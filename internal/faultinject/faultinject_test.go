package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// arm installs a profile for the duration of the test.
func arm(t *testing.T, spec string) {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	Enable(p)
	t.Cleanup(Disable)
}

func TestParseGrammar(t *testing.T) {
	cases := []struct {
		spec string
		ok   bool
	}{
		{"a.b=error", true},
		{"a.b=panic@0.5;c.d=enospc#3;seed=42", true},
		{"x=latency:25ms@0.01#2", true},
		{"x=torn", true},
		{"", true}, // empty = disabled
		{"a.b=explode", false},
		{"a.b=error@1.5", false},
		{"a.b=error@0", false},
		{"a.b=latency", false},         // latency needs a duration
		{"a.b=error:why", false},       // error takes no argument
		{"a.b=error;a.b=panic", false}, // duplicate site
		{"seed=nope;a=error", false},
		{"seed=7", false}, // no sites
		{"=error", false},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if (err == nil) != c.ok {
			t.Errorf("Parse(%q): err = %v, want ok = %v", c.spec, err, c.ok)
		}
	}
}

func TestCheckKinds(t *testing.T) {
	arm(t, "e=error;n=enospc;l=latency:1ms")
	if err := Check("e"); err == nil || !IsInjected(err) {
		t.Fatalf("error site: got %v", err)
	}
	err := Check("n")
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("enospc site should unwrap to ENOSPC, got %v", err)
	}
	start := time.Now()
	if err := Check("l"); err != nil {
		t.Fatalf("latency site returned %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("latency site did not sleep")
	}
	if err := Check("unknown.site"); err != nil {
		t.Fatalf("unknown site fired: %v", err)
	}
}

func TestPanicKind(t *testing.T) {
	arm(t, "p=panic")
	defer func() {
		r := recover()
		fe, ok := r.(*Error)
		if !ok || fe.Site != "p" || fe.Kind != KindPanic {
			t.Fatalf("panic value = %v, want injected *Error for site p", r)
		}
	}()
	Check("p")
	t.Fatal("panic site did not panic")
}

func TestCountBudget(t *testing.T) {
	arm(t, "c=error#2")
	fired := 0
	for i := 0; i < 10; i++ {
		if Check("c") != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("count-limited site fired %d times, want 2", fired)
	}
	if Fired("c") != 2 {
		t.Fatalf("Fired = %d, want 2", Fired("c"))
	}
}

// TestRateDeterminism pins that the same seed yields the same firing
// pattern, a different seed a different one, and the empirical rate is
// in the right ballpark.
func TestRateDeterminism(t *testing.T) {
	pattern := func(seed string) string {
		arm(t, "r=error@0.25;seed="+seed)
		var b strings.Builder
		for i := 0; i < 400; i++ {
			if Check("r") != nil {
				b.WriteByte('x')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	p1, p2, p3 := pattern("7"), pattern("7"), pattern("8")
	if p1 != p2 {
		t.Fatal("same seed produced different firing patterns")
	}
	if p1 == p3 {
		t.Fatal("different seeds produced identical firing patterns")
	}
	fires := strings.Count(p1, "x")
	if fires < 60 || fires > 140 {
		t.Fatalf("rate 0.25 fired %d/400 times, outside [60, 140]", fires)
	}
}

// TestSiteIndependence pins that interleaving calls at another site
// does not perturb a site's own firing pattern (per-site streams).
func TestSiteIndependence(t *testing.T) {
	run := func(interleave bool) string {
		arm(t, "a=error@0.5;b=error@0.5;seed=3")
		var sb strings.Builder
		for i := 0; i < 100; i++ {
			if interleave {
				Check("b")
			}
			if Check("a") != nil {
				sb.WriteByte('x')
			} else {
				sb.WriteByte('.')
			}
		}
		return sb.String()
	}
	if run(false) != run(true) {
		t.Fatal("site a's firing pattern changed when site b was interleaved")
	}
}

func TestDisabledPathAllocs(t *testing.T) {
	Disable()
	if n := testing.AllocsPerRun(1000, func() {
		if Enabled() {
			t.Fatal("enabled")
		}
		if Check("some.site") != nil {
			t.Fatal("fired")
		}
	}); n != 0 {
		t.Fatalf("disabled path allocates %v per call, want 0", n)
	}

	// Armed profile, cold site: still zero.
	arm(t, "other=error")
	if n := testing.AllocsPerRun(1000, func() {
		if Check("some.site") != nil {
			t.Fatal("fired")
		}
	}); n != 0 {
		t.Fatalf("miss path allocates %v per call, want 0", n)
	}

	// Firing error path: the error is preallocated.
	arm(t, "hot=error")
	if n := testing.AllocsPerRun(1000, func() {
		if Check("hot") == nil {
			t.Fatal("did not fire")
		}
	}); n != 0 {
		t.Fatalf("firing path allocates %v per call, want 0", n)
	}
}

func TestFSWrappers(t *testing.T) {
	dir := t.TempDir()
	data := []byte("0123456789abcdef")

	t.Run("enospc-write", func(t *testing.T) {
		arm(t, "w=enospc")
		f, err := os.Create(filepath.Join(dir, "enospc"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := Write("w", f, data); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("Write = %v, want ENOSPC", err)
		}
		st, _ := f.Stat()
		if st.Size() != 0 {
			t.Fatalf("enospc write wrote %d bytes, want 0", st.Size())
		}
	})

	t.Run("partial-write", func(t *testing.T) {
		arm(t, "w=partial")
		f, err := os.Create(filepath.Join(dir, "partial"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		n, err := Write("w", f, data)
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("partial Write err = %v, want ENOSPC", err)
		}
		if n != len(data)/2 {
			t.Fatalf("partial Write wrote %d bytes, want %d", n, len(data)/2)
		}
	})

	t.Run("torn-rename", func(t *testing.T) {
		arm(t, "r=torn")
		src := filepath.Join(dir, "src")
		dst := filepath.Join(dir, "dst")
		if err := os.WriteFile(src, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Rename("r", src, dst); err != nil {
			t.Fatalf("torn rename should report success, got %v", err)
		}
		got, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(data)/2 {
			t.Fatalf("torn rename left %d bytes, want truncated %d", len(got), len(data)/2)
		}
		if _, err := os.Stat(src); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("torn rename left the source behind: %v", err)
		}
	})

	t.Run("clean-passthrough", func(t *testing.T) {
		Disable()
		src := filepath.Join(dir, "clean-src")
		dst := filepath.Join(dir, "clean-dst")
		f, err := CreateTemp("c", dir, "tmp-*")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Write("w", f, data); err != nil {
			t.Fatal(err)
		}
		if err := Sync("s", f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := os.Rename(f.Name(), src); err != nil {
			t.Fatal(err)
		}
		if err := Rename("r", src, dst); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(dst)
		if err != nil || string(got) != string(data) {
			t.Fatalf("round trip = %q, %v", got, err)
		}
		if err := MkdirAll("mk", filepath.Join(dir, "a/b"), 0o755); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFromEnv(t *testing.T) {
	t.Cleanup(Disable)
	t.Setenv("RMQ_FAULTS", "")
	spec, err := Arm("x=error;seed=2")
	if err != nil || spec == "" || !Enabled() {
		t.Fatalf("Arm: spec %q err %v enabled %v", spec, err, Enabled())
	}
	Disable()
	spec, err = Arm("")
	if err != nil || spec != "" || Enabled() {
		t.Fatalf("empty Arm, empty env: spec %q err %v enabled %v", spec, err, Enabled())
	}
	t.Setenv("RMQ_FAULTS", "y=error;seed=3")
	spec, err = Arm("")
	if err != nil || spec != "y=error;seed=3" || !Enabled() {
		t.Fatalf("empty Arm reads RMQ_FAULTS: spec %q err %v enabled %v", spec, err, Enabled())
	}
	Disable()
	if spec, err = Arm("x=error"); err != nil || spec != "x=error" {
		t.Fatalf("a given spec wins over RMQ_FAULTS: spec %q err %v", spec, err)
	}
	Disable()
	if _, err := Arm("garbage"); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestStats(t *testing.T) {
	arm(t, "a=error;b=error#0")
	Check("a")
	Check("b")
	st := Stats()
	if st["a"] != 1 || st["b"] != 0 {
		t.Fatalf("Stats = %v, want a:1 b:0", st)
	}
	Disable()
	if Stats() != nil {
		t.Fatal("Stats while disabled should be nil")
	}
}
