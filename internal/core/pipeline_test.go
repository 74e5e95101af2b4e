package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rmq/internal/cache"
	"rmq/internal/opt"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// TestPipelinedMatchesInline is the differential test of Step's stage
// pipeline: one run approximates each climbed plan's frontiers on a
// helper goroutine during the next climb, its twin runs both stages back
// to back, and after every step (Frontier, Stats and Cache complete the
// pending stage) both must hold the same cache set by set, the same path
// lengths and the same frontier. Some steps call Frontier mid-run, so a
// stage completed inline is followed by one run on the helper.
func TestPipelinedMatchesInline(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		shared bool
	}{
		{name: "bushy", cfg: Config{}},
		{name: "shared", shared: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(mode pipeMode) *RMQ {
				cfg := tc.cfg
				p := testProblem(t, 12, 61)
				if tc.shared {
					cfg.Shared = cache.NewShared(tableset.NewInterner(), 1)
					p = sharedProblem(t, cfg.Shared, 12, 61)
				}
				r := New(cfg)
				r.pipe = mode
				r.Init(p, 9)
				return r
			}
			inline, piped := build(pipeInline), build(pipeAsync)
			for i := 1; i <= 60; i++ {
				inline.Step()
				piped.Step()
				if i%7 == 0 || i%11 == 0 {
					sameFrontier(t, i, inline.Frontier(), piped.Frontier())
				}
				if i%5 == 0 || i == 60 {
					sameRuns(t, i, inline, piped)
				}
			}
		})
	}
}

// sameRuns compares two runs after step i: path lengths, cache sizes and
// every cached table set plan for plan.
func sameRuns(t *testing.T, i int, a, b *RMQ) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("step %d: stats differ:\n inline    %+v\n pipelined %+v", i, sa, sb)
	}
	sameCaches(t, i, a.problem.Model.Interner(), a.Cache(), b.Cache())
	sameFrontier(t, i, a.Frontier(), b.Frontier())
}

// sameCaches compares two caches over one interner after step i: the
// same number of sets and plans, and every interned table set holding
// the same plans in the same order.
func sameCaches(t *testing.T, i int, in *tableset.Interner, ca, cb *cache.Cache) {
	t.Helper()
	if ca.NumSets() != cb.NumSets() || ca.NumPlans() != cb.NumPlans() {
		t.Fatalf("step %d: caches hold %d sets/%d plans and %d/%d",
			i, ca.NumSets(), ca.NumPlans(), cb.NumSets(), cb.NumPlans())
	}
	for _, set := range in.Sets()[1:] {
		got, want := cb.Get(set), ca.Get(set)
		if len(got) != len(want) {
			t.Fatalf("step %d: set %v holds %d plans and %d", i, set, len(want), len(got))
		}
		for j := range got {
			if !samePlan(got[j], want[j]) {
				t.Fatalf("step %d: set %v diverged at plan %d: %v vs %v", i, set, j, want[j], got[j])
			}
		}
	}
}

func sameFrontier(t *testing.T, i int, a, b []*plan.Plan) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("step %d: frontiers of %d and %d plans", i, len(a), len(b))
	}
	for j := range a {
		if a[j].Cost != b[j].Cost {
			t.Fatalf("step %d: frontier plan %d costs %v and %v", i, j, a[j].Cost, b[j].Cost)
		}
	}
}

// TestStageBPanicContained injects a panic into a frontier approximation
// running on the helper goroutine. Step must re-raise it on the worker's
// goroutine after the join, so opt.Run's worker boundary reports a
// *opt.PanicError with the frontier merged before the panic and the
// process survives; no helper goroutine may be left behind.
func TestStageBPanicContained(t *testing.T) {
	base := runtime.NumGoroutine()
	r := New(Config{})
	r.pipe = pipeAsync
	stages := 0
	r.stageHook = func() {
		// MergeEvery 5 completes every fifth stage inline (FrontierDelta);
		// the eighth stage runs on the helper during step 9.
		if stages++; stages == 8 {
			panic("injected stage B fault")
		}
	}
	res, err := opt.Run(context.Background(), opt.RunConfig{
		Workers:       []opt.Worker{{Optimizer: r, Problem: testProblem(t, 10, 62), Seed: 3}},
		MaxIterations: 50,
		MergeEvery:    5,
		Observe:       func(opt.Event) {},
	})
	var perr *opt.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("Run error = %v, want *opt.PanicError", err)
	}
	if perr.Value != "injected stage B fault" {
		t.Fatalf("panic value %v, want the injected one", perr.Value)
	}
	if !strings.Contains(string(perr.Stack), "(*RMQ).join") {
		t.Fatalf("panic not re-raised by the join:\n%s", perr.Stack)
	}
	if len(res.Plans) == 0 {
		t.Fatal("no partial frontier from the steps merged before the panic")
	}
	waitGoroutines(t, base)
}

// TestRunLeavesNoGoroutines checks that pipelined runs leave no helper
// goroutine behind, whether they stop at their iteration budget or at a
// deadline.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name    string
		iters   int
		timeout time.Duration
	}{
		{name: "budget", iters: 40},
		{name: "deadline", timeout: 30 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := context.Background()
			if tc.timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.timeout)
				defer cancel()
			}
			workers := make([]opt.Worker, 2)
			for i := range workers {
				r := New(Config{})
				r.pipe = pipeAsync
				workers[i] = opt.Worker{Optimizer: r, Problem: testProblem(t, 14, 63), Seed: uint64(i + 1)}
			}
			res, err := opt.Run(ctx, opt.RunConfig{Workers: workers, MaxIterations: tc.iters})
			if err != nil || len(res.Plans) == 0 {
				t.Fatalf("Run = %d plans, %v", len(res.Plans), err)
			}
			waitGoroutines(t, base)
		})
	}
}

// waitGoroutines fails unless the goroutine count returns to base. A
// joined helper has finished its work but may still be exiting, so the
// count is polled briefly.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, want %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineHandOffAllocs bounds the allocation cost of the stage
// hand-off: a pipelined step may allocate at most two more objects than
// the same step run inline.
func TestPipelineHandOffAllocs(t *testing.T) {
	steps := func(mode pipeMode) float64 {
		r := New(Config{})
		r.pipe = mode
		r.Init(testProblem(t, 12, 64), 5)
		for i := 0; i < 300; i++ {
			r.Step()
		}
		return testing.AllocsPerRun(200, func() { r.Step() })
	}
	inline, piped := steps(pipeInline), steps(pipeAsync)
	if piped > inline+2 {
		t.Errorf("pipelined step allocates %v objects, inline %v: hand-off costs more than 2", piped, inline)
	}
}

// TestRecombinedPlansKeepPricedCost checks that plans materialized by
// frontier approximation carry exactly the cost JoinCost (or ScanCost)
// assigns them and the set id the interner assigns their table set:
// recombination reuses the vector it priced for admission, and scans
// take their id from the climbed plan.
func TestRecombinedPlansKeepPricedCost(t *testing.T) {
	p := testProblem(t, 12, 65)
	r := New(Config{})
	r.pipe = pipeInline
	r.Init(p, 4)
	for i := 0; i < 40; i++ {
		r.Step()
	}
	m := p.Model
	checked := 0
	for _, set := range m.Interner().Sets()[1:] {
		for _, cp := range r.Cache().Get(set) {
			want := m.ScanCost(cp.Table, cp.Scan)
			if cp.IsJoin() {
				want = m.JoinCost(cp.Join, cp.Outer, cp.Inner, cp.Card)
			}
			if cp.Cost != want {
				t.Fatalf("cached plan %v costs %v, the model prices it %v", cp, cp.Cost, want)
			}
			if cp.RelID != m.Interner().Intern(cp.Rel) {
				t.Fatalf("cached plan %v carries set id %d, interner has %d", cp, cp.RelID, m.Interner().Intern(cp.Rel))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no cached plans checked")
	}
}
