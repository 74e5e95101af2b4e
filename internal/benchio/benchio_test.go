package benchio

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: rmq/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkClimb50        	    1533	    813416 ns/op	   90077 B/op	     636 allocs/op
BenchmarkAblationClimb/fast-8       	    1536	    793022 ns/op	   90031 B/op	     636 allocs/op
BenchmarkAblationClimb/naive-8      	      15	  94441002 ns/op	70948237 B/op	  618991 allocs/op
BenchmarkFigure1-8  	       1	 5123456789 ns/op	         2.41 rmq-final-alpha-gm
PASS
ok  	rmq/internal/core	6.232s
`

func TestParseGoBench(t *testing.T) {
	bms, cpu, err := ParseGoBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(bms) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(bms))
	}
	if cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu line not captured: %q", cpu)
	}
	if bms[0].Name != "BenchmarkClimb50" || bms[0].NsPerOp != 813416 || bms[0].AllocsPerOp != 636 {
		t.Fatalf("bad first benchmark: %+v", bms[0])
	}
	if bms[1].Name != "BenchmarkAblationClimb/fast" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", bms[1].Name)
	}
	fig := bms[3]
	if fig.Metrics["rmq-final-alpha-gm"] != 2.41 {
		t.Fatalf("custom metric lost: %+v", fig)
	}
}

func TestParseGoBenchAveragesRepeats(t *testing.T) {
	in := `BenchmarkX-8 10 100 ns/op
BenchmarkX-8 10 300 ns/op
`
	bms, _, err := ParseGoBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(bms) != 1 || bms[0].NsPerOp != 200 || bms[0].Runs != 20 {
		t.Fatalf("repeat averaging wrong: %+v", bms)
	}
}

func TestReportRoundTrip(t *testing.T) {
	bms, cpu, err := ParseGoBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	_ = cpu
	r := &Report{Schema: Schema, Date: "2026-07-29T00:00:00Z", Label: "test", Benchmarks: bms}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteFile(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != len(r.Benchmarks) || got.Label != "test" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Benchmarks[3].Metrics["rmq-final-alpha-gm"] != 2.41 {
		t.Fatal("round trip lost custom metric")
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	r := &Report{Schema: "other/v9", Benchmarks: nil}
	if err := WriteFile(path, r); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestDiffFlagsRegressions(t *testing.T) {
	old := &Report{Schema: Schema, Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkB", NsPerOp: 1000},
		{Name: "BenchmarkGone", NsPerOp: 50},
	}}
	new := &Report{Schema: Schema, Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1100, AllocsPerOp: 10}, // +10%: ok at 20%
		{Name: "BenchmarkB", NsPerOp: 1300},                  // +30%: regression
		{Name: "BenchmarkNew", NsPerOp: 1},
	}}
	deltas, regressed := Diff(old, new, 0.2)
	if !regressed {
		t.Fatal("regression not flagged")
	}
	if len(deltas) != 2 {
		t.Fatalf("diff compared %d benchmarks, want 2 (intersection)", len(deltas))
	}
	// Sorted by ratio descending: B first.
	if deltas[0].Name != "BenchmarkB" || !deltas[0].Regressed {
		t.Fatalf("bad worst delta: %+v", deltas[0])
	}
	if deltas[1].Name != "BenchmarkA" || deltas[1].Regressed {
		t.Fatalf("improvement flagged: %+v", deltas[1])
	}
	if out := FormatDeltas(deltas, 0.2); !strings.Contains(out, "BenchmarkB") || !strings.Contains(out, "!!") {
		t.Fatalf("table missing regression marker:\n%s", out)
	}
	// Geomean of 1.10x and 1.30x is ~1.196x; the summary line must carry
	// it so trend dashboards can scrape one number per diff.
	if gm := GeomeanRatio(deltas); gm < 1.19 || gm > 1.20 {
		t.Fatalf("GeomeanRatio = %v, want ~1.196", gm)
	}
	if out := FormatDeltas(deltas, 0.2); !strings.Contains(out, "geomean ns/op ratio: 1.196x over 2 benchmarks") {
		t.Fatalf("table missing geomean summary:\n%s", out)
	}
}

func TestDiffNoRegression(t *testing.T) {
	old := &Report{Schema: Schema, Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: 1000}}}
	new := &Report{Schema: Schema, Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: 400}}}
	deltas, regressed := Diff(old, new, 0.2)
	if regressed || len(deltas) != 1 || deltas[0].Ratio != 0.4 {
		t.Fatalf("improvement misreported: %+v regressed=%v", deltas, regressed)
	}
}

// TestDiffFlagsAllocRegressions pins the allocs/op limit of the gate: a
// synthetic +25% allocation injection at unchanged speed fails it and
// the table names the limit tripped, while growth inside the threshold,
// and a fraction of one allocation on a benchmark that allocated
// nothing, pass. A benchmark's first whole allocation per op fails.
func TestDiffFlagsAllocRegressions(t *testing.T) {
	old := &Report{Schema: Schema, Benchmarks: []Benchmark{
		{Name: "BenchmarkInjected", NsPerOp: 1000, AllocsPerOp: 400},
		{Name: "BenchmarkWithin", NsPerOp: 1000, AllocsPerOp: 400},
		{Name: "BenchmarkNoise", NsPerOp: 1000},
		{Name: "BenchmarkFirstAlloc", NsPerOp: 1000},
		{Name: "BenchmarkSlow", NsPerOp: 1000, AllocsPerOp: 400},
	}}
	new := &Report{Schema: Schema, Benchmarks: []Benchmark{
		{Name: "BenchmarkInjected", NsPerOp: 1000, AllocsPerOp: 500}, // +25% allocs
		{Name: "BenchmarkWithin", NsPerOp: 1000, AllocsPerOp: 440},   // +10% allocs
		{Name: "BenchmarkNoise", NsPerOp: 1000, AllocsPerOp: 0.67},   // averaged -count noise
		{Name: "BenchmarkFirstAlloc", NsPerOp: 1000, AllocsPerOp: 1},
		{Name: "BenchmarkSlow", NsPerOp: 1300, AllocsPerOp: 400}, // +30% ns/op only
	}}
	deltas, regressed := Diff(old, new, 0.2)
	if !regressed {
		t.Fatal("alloc regression not flagged")
	}
	want := map[string][2]bool{ // name → {ns tripped, allocs tripped}
		"BenchmarkInjected":   {false, true},
		"BenchmarkWithin":     {false, false},
		"BenchmarkNoise":      {false, false},
		"BenchmarkFirstAlloc": {false, true},
		"BenchmarkSlow":       {true, false},
	}
	for _, d := range deltas {
		w := want[d.Name]
		if d.NsRegressed != w[0] || d.AllocsRegressed != w[1] || d.Regressed != (w[0] || w[1]) {
			t.Errorf("%s: ns %v allocs %v regressed %v, want ns %v allocs %v", d.Name, d.NsRegressed, d.AllocsRegressed, d.Regressed, w[0], w[1])
		}
	}
	out := FormatDeltas(deltas, 0.2)
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "BenchmarkInjected"), strings.HasPrefix(line, "BenchmarkFirstAlloc"):
			if !strings.HasSuffix(line, "!! allocs/op") {
				t.Errorf("alloc regression row not marked with its limit: %q", line)
			}
		case strings.HasPrefix(line, "BenchmarkSlow"):
			if !strings.HasSuffix(line, "!! ns/op") {
				t.Errorf("ns/op regression row not marked with its limit: %q", line)
			}
		case strings.HasPrefix(line, "BenchmarkWithin"), strings.HasPrefix(line, "BenchmarkNoise"):
			if strings.Contains(line, "!!") {
				t.Errorf("row within the thresholds marked: %q", line)
			}
		}
	}

	// The injection alone, at unchanged ns/op, fails the gate.
	only := &Report{Schema: Schema, Benchmarks: new.Benchmarks[:1]}
	if _, regressed := Diff(old, only, 0.2); !regressed {
		t.Fatal("a +25% alloc injection alone passed the gate")
	}
}
