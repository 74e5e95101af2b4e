package opt

import (
	"context"
	"testing"
	"time"

	"errors"

	"rmq/internal/cost"
	"rmq/internal/faultinject"
	"rmq/internal/plan"
)

// scriptedOpt is a fake optimizer that reveals one pre-scripted plan per
// step and reports no more work when the script is exhausted.
type scriptedOpt struct {
	script []*plan.Plan
	shown  int
	inits  int
	seed   uint64
}

func (f *scriptedOpt) Name() string { return "scripted" }

func (f *scriptedOpt) Init(p *Problem, seed uint64) {
	f.shown = 0
	f.inits++
	f.seed = seed
}

func (f *scriptedOpt) Step() bool {
	if f.shown < len(f.script) {
		f.shown++
	}
	return f.shown < len(f.script)
}

func (f *scriptedOpt) Frontier() []*plan.Plan { return f.script[:f.shown] }

func plans(costs ...[]float64) []*plan.Plan {
	out := make([]*plan.Plan, len(costs))
	for i, c := range costs {
		out[i] = &plan.Plan{Cost: cost.New(c...)}
	}
	return out
}

func TestDriveStopsAtMaxSteps(t *testing.T) {
	o := &scriptedOpt{script: plans([]float64{1}, []float64{2}, []float64{3}, []float64{4})}
	o.Init(nil, 0)
	if got := Drive(context.Background(), o, 2, nil); got != 2 {
		t.Errorf("steps = %d, want 2", got)
	}
}

func TestDriveStopsWhenOptimizerFinishes(t *testing.T) {
	o := &scriptedOpt{script: plans([]float64{1}, []float64{2})}
	o.Init(nil, 0)
	if got := Drive(context.Background(), o, 0, nil); got != 2 {
		t.Errorf("steps = %d, want 2 (script exhausted)", got)
	}
}

func TestDriveStopsWhenAfterReturnsFalse(t *testing.T) {
	o := &scriptedOpt{script: plans([]float64{1}, []float64{2}, []float64{3})}
	o.Init(nil, 0)
	steps := Drive(context.Background(), o, 0, func(s int) bool { return s < 1 })
	if steps != 1 {
		t.Errorf("steps = %d, want 1", steps)
	}
}

func TestDriveCancelledBeforeFirstStep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := &scriptedOpt{script: plans([]float64{1})}
	o.Init(nil, 0)
	if got := Drive(ctx, o, 0, nil); got != 0 {
		t.Errorf("steps = %d, want 0 on pre-cancelled context", got)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(context.Background(), RunConfig{}); err == nil {
		t.Error("empty worker list accepted")
	}
	if _, err := Run(context.Background(), RunConfig{Workers: []Worker{{}}}); err == nil {
		t.Error("nil optimizer/problem accepted")
	}
}

func TestRunSequentialMergesAndCounts(t *testing.T) {
	p := testProblem(t)
	o := &scriptedOpt{script: plans([]float64{3, 3, 3}, []float64{1, 5, 5}, []float64{5, 1, 5})}
	res, err := Run(context.Background(), RunConfig{
		Workers: []Worker{{Optimizer: o, Problem: p, Seed: 42}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.inits != 1 || o.seed != 42 {
		t.Errorf("worker init: inits=%d seed=%d", o.inits, o.seed)
	}
	if res.Iterations != 3 {
		t.Errorf("iterations = %d, want 3", res.Iterations)
	}
	// All three scripted plans are mutually non-dominated.
	if len(res.Plans) != 3 {
		t.Errorf("merged plans = %d, want 3", len(res.Plans))
	}
}

func TestRunParallelMergedFrontierNonDominated(t *testing.T) {
	p1, p2 := testProblem(t), testProblem(t)
	// Worker 2's second plan dominates worker 1's first plan.
	w1 := &scriptedOpt{script: plans([]float64{4, 4, 4}, []float64{1, 9, 9})}
	w2 := &scriptedOpt{script: plans([]float64{9, 9, 1}, []float64{2, 2, 2})}
	res, err := Run(context.Background(), RunConfig{
		Workers: []Worker{
			{Optimizer: w1, Problem: p1, Seed: 1},
			{Optimizer: w2, Problem: p2, Seed: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 4 {
		t.Errorf("iterations = %d, want 4", res.Iterations)
	}
	for i, a := range res.Plans {
		for j, b := range res.Plans {
			if i != j && a.Cost.Dominates(b.Cost) {
				t.Fatalf("merged archive holds dominated plan: %v dominates %v", a.Cost, b.Cost)
			}
		}
	}
	// {4,4,4} must have been evicted by {2,2,2}.
	for _, p := range res.Plans {
		if p.Cost.At(0) == 4 {
			t.Error("dominated plan {4,4,4} survived the merge")
		}
	}
}

func TestRunObserveEventsAreOrderedAndSnapshotsValid(t *testing.T) {
	p := testProblem(t)
	o := &scriptedOpt{script: plans([]float64{3, 3, 3}, []float64{2, 2, 2}, []float64{1, 1, 1})}
	var events []Event
	var snaps [][]*plan.Plan
	res, err := Run(context.Background(), RunConfig{
		Workers: []Worker{{Optimizer: o, Problem: p}},
		Observe: func(ev Event) {
			events = append(events, ev)
			snaps = append(snaps, ev.Snapshot())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	for i, ev := range events {
		if !ev.Improved {
			t.Errorf("event %d not improved (each scripted plan dominates its predecessor)", i)
		}
		if ev.Iterations != i+1 {
			t.Errorf("event %d iterations = %d", i, ev.Iterations)
		}
		if len(snaps[i]) != 1 {
			t.Errorf("snapshot %d has %d plans, want 1", i, len(snaps[i]))
		}
	}
	if len(res.Plans) != 1 || res.Plans[0].Cost.At(0) != 1 {
		t.Errorf("final plans = %v", Costs(res.Plans))
	}
}

func TestRunMergeEveryBatchesNotifications(t *testing.T) {
	p := testProblem(t)
	o := &scriptedOpt{script: plans([]float64{3, 3, 3}, []float64{2, 2, 2}, []float64{1, 1, 1})}
	calls := 0
	_, err := Run(context.Background(), RunConfig{
		Workers:    []Worker{{Optimizer: o, Problem: p}},
		MergeEvery: 2,
		Observe:    func(Event) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 steps with MergeEvery 2: one batched merge plus the final one.
	if calls != 2 {
		t.Errorf("observe calls = %d, want 2", calls)
	}
}

// deltaOpt wraps scriptedOpt with a non-dominated Archive as its
// frontier and admission marks over the script, so Run's delta merging
// path is exercised. The revealed script prefix is append-only, so a
// mark is a prefix length and FrontierDelta reports the plans revealed
// since it, including ones the archive has since evicted.
type deltaOpt struct {
	scriptedOpt
	archive Archive
	calls   []int // delta sizes per FrontierDelta call
}

func (d *deltaOpt) Init(p *Problem, seed uint64) {
	d.scriptedOpt.Init(p, seed)
	d.archive.Reset()
}

func (d *deltaOpt) Step() bool {
	more := d.scriptedOpt.Step()
	for _, p := range d.script[:d.shown] {
		d.archive.Add(p)
	}
	return more
}

func (d *deltaOpt) Frontier() []*plan.Plan { return d.archive.Plans() }

func (d *deltaOpt) FrontierDelta(mark uint64) ([]*plan.Plan, uint64) {
	plans := d.script[mark:d.shown]
	d.calls = append(d.calls, len(plans))
	return plans, uint64(d.shown)
}

// fullOpt hides deltaOpt's FrontierDelta, so Run must take the
// full-frontier fallback for it.
type fullOpt struct{ Optimizer }

// TestRunDeltaMergeMatchesFull: the same scripted worker merged through
// FrontierDelta and through the full-frontier fallback must yield the
// same non-dominated result, and the delta path must actually deliver
// deltas (not re-report the whole frontier every merge).
func TestRunDeltaMergeMatchesFull(t *testing.T) {
	script := plans([]float64{4, 4, 4}, []float64{1, 9, 9}, []float64{9, 1, 9}, []float64{2, 2, 2})
	run := func(o Optimizer) []cost.Vector {
		res, err := Run(context.Background(), RunConfig{
			Workers: []Worker{{Optimizer: o, Problem: testProblem(t)}},
			Observe: func(Event) {}, // force per-step merges
		})
		if err != nil {
			t.Fatal(err)
		}
		return Costs(res.Plans)
	}
	d := &deltaOpt{scriptedOpt: scriptedOpt{script: script}}
	a := run(d)
	if len(d.calls) == 0 {
		t.Fatal("delta-capable worker never called FrontierDelta")
	}
	total := 0
	for _, n := range d.calls {
		total += n
	}
	// Every admitted plan is reported exactly once across deltas.
	if total != d.archive.Len()+1 { // +1: {4,4,4} was admitted, then evicted
		t.Errorf("delta calls delivered %d plans total, want %d", total, d.archive.Len()+1)
	}
	f := &deltaOpt{scriptedOpt: scriptedOpt{script: script}}
	b := run(fullOpt{f})
	if len(f.calls) != 0 {
		t.Error("full-frontier fallback consulted FrontierDelta")
	}
	if len(a) != len(b) {
		t.Fatalf("delta result %d plans, full %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("results diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRunParallelDeltaMerge drives several delta-capable workers
// concurrently and checks the merged archive is the non-dominated union.
func TestRunParallelDeltaMerge(t *testing.T) {
	mkWorker := func(costs ...[]float64) Worker {
		return Worker{
			Optimizer: &deltaOpt{scriptedOpt: scriptedOpt{script: plans(costs...)}},
			Problem:   testProblem(t),
		}
	}
	res, err := Run(context.Background(), RunConfig{
		Workers: []Worker{
			mkWorker([]float64{4, 4, 4}, []float64{1, 9, 9}),
			mkWorker([]float64{9, 9, 1}, []float64{2, 2, 2}),
			mkWorker([]float64{5, 5, 5}, []float64{9, 1, 9}),
		},
		Observe: func(Event) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Plans {
		for j, b := range res.Plans {
			if i != j && a.Cost.Dominates(b.Cost) {
				t.Fatalf("merged archive holds dominated plan %v", b.Cost)
			}
		}
	}
	// {4,4,4} and {5,5,5} are dominated by {2,2,2}; the three one-axis
	// specialists and {2,2,2} are mutually non-dominated.
	if len(res.Plans) != 4 {
		t.Fatalf("merged plans = %v, want the 4 non-dominated", Costs(res.Plans))
	}
	for _, p := range res.Plans {
		if p.Cost.At(0) == 4 || p.Cost.At(0) == 5 {
			t.Fatalf("dominated plan survived: %v", p.Cost)
		}
	}
}

func TestRunCancelledReturnsPartialResult(t *testing.T) {
	p := testProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := &scriptedOpt{script: plans([]float64{1, 1, 1})}
	res, err := Run(ctx, RunConfig{Workers: []Worker{{Optimizer: o, Problem: p}}})
	if err != nil {
		t.Fatalf("cancellation must not be an error, got %v", err)
	}
	if res.Iterations != 0 {
		t.Errorf("iterations = %d, want 0", res.Iterations)
	}
	if time.Duration(0) > res.Elapsed {
		t.Errorf("elapsed = %v", res.Elapsed)
	}
}

// panicOpt panics on its n-th Step call (1-based), revealing scripted
// plans before that.
type panicOpt struct {
	scriptedOpt
	panicAt int
	steps   int
}

func (p *panicOpt) Step() bool {
	p.steps++
	if p.steps == p.panicAt {
		panic("optimizer poisoned")
	}
	return p.scriptedOpt.Step()
}

func TestRunContainsWorkerPanic(t *testing.T) {
	bad := &panicOpt{
		scriptedOpt: scriptedOpt{script: plans([]float64{1, 9, 9}, []float64{8, 8, 8})},
		panicAt:     2,
	}
	good := &scriptedOpt{script: plans([]float64{9, 9, 1}, []float64{9, 1, 9})}
	res, err := Run(context.Background(), RunConfig{
		Workers: []Worker{
			{Optimizer: bad, Problem: testProblem(t)},
			{Optimizer: good, Problem: testProblem(t)},
		},
		Observe: func(Event) {}, // per-step merges: the bad worker deposits before dying
	})
	if err == nil {
		t.Fatal("worker panic not reported")
	}
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("error %v does not wrap *PanicError", err)
	}
	if perr.Worker != 0 || perr.Value != "optimizer poisoned" || len(perr.Stack) == 0 {
		t.Errorf("PanicError = {Worker:%d Value:%v Stack:%d bytes}", perr.Worker, perr.Value, len(perr.Stack))
	}
	// The healthy worker ran to completion and the panicking worker's
	// pre-panic deposit folded in: all three one-axis plans survive.
	if len(res.Plans) != 3 {
		t.Fatalf("partial merge = %v, want 3 plans", Costs(res.Plans))
	}
}

func TestRunPanicInObserveContained(t *testing.T) {
	o := &scriptedOpt{script: plans([]float64{1, 1, 1}, []float64{2, 2, 2})}
	_, err := Run(context.Background(), RunConfig{
		Workers: []Worker{{Optimizer: o, Problem: testProblem(t)}},
		Observe: func(Event) { panic("observer bug") },
	})
	var perr *PanicError
	if !errors.As(err, &perr) || perr.Value != "observer bug" {
		t.Fatalf("observer panic not contained as *PanicError: %v", err)
	}
}

func TestRunInjectedStepPanic(t *testing.T) {
	faultinject.Enable(faultinject.MustParse("opt.worker.step=panic#1"))
	defer faultinject.Disable()
	bad := &scriptedOpt{script: plans([]float64{1, 9, 9}, []float64{8, 8, 8})}
	good := &scriptedOpt{script: plans([]float64{9, 9, 1}, []float64{9, 1, 9})}
	res, err := Run(context.Background(), RunConfig{
		Workers: []Worker{
			{Optimizer: bad, Problem: testProblem(t)},
			{Optimizer: good, Problem: testProblem(t)},
		},
	})
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("injected panic not contained: %v", err)
	}
	if fe, ok := perr.Value.(*faultinject.Error); !ok || fe.Site != "opt.worker.step" {
		t.Fatalf("panic value = %v, want injected fault error", perr.Value)
	}
	// Exactly one worker died (the site fires once); the sibling finished.
	if len(res.Plans) == 0 {
		t.Fatal("surviving worker contributed no plans")
	}
}

func TestRunInjectedStepErrorAbortsOneWorker(t *testing.T) {
	faultinject.Enable(faultinject.MustParse("opt.worker.step=error#1"))
	defer faultinject.Disable()
	w1 := &scriptedOpt{script: plans([]float64{1, 9, 9}, []float64{8, 8, 8})}
	w2 := &scriptedOpt{script: plans([]float64{9, 9, 1}, []float64{9, 1, 9})}
	res, err := Run(context.Background(), RunConfig{
		Workers: []Worker{
			{Optimizer: w1, Problem: testProblem(t)},
			{Optimizer: w2, Problem: testProblem(t)},
		},
	})
	if err == nil {
		t.Fatal("injected step error not reported")
	}
	var perr *PanicError
	if errors.As(err, &perr) {
		t.Fatalf("error kind must abort, not panic: %v", err)
	}
	if !faultinject.IsInjected(err) {
		t.Fatalf("error %v does not wrap the injected fault", err)
	}
	// The aborted worker's partial frontier still merged (final fold).
	if len(res.Plans) == 0 {
		t.Fatal("no plans survived the aborted worker")
	}
}
