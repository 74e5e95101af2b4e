// Tests for the context-aware API: cancellation, parallel multi-start,
// sessions, streamed progress, the algorithm registry, and the
// deprecated struct-options shim.
package rmq_test

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"rmq"
	"rmq/internal/core"
)

// frontierCosts flattens a frontier's cost vectors for comparison.
func frontierCosts(f *rmq.Frontier) []float64 {
	var out []float64
	for _, p := range f.Plans {
		for i := 0; i < p.Cost.Dim(); i++ {
			out = append(out, p.Cost.At(i))
		}
	}
	return out
}

// checkNonDominated fails the test if any frontier plan dominates
// another.
func checkNonDominated(t *testing.T, f *rmq.Frontier) {
	t.Helper()
	for i, a := range f.Plans {
		for j, b := range f.Plans {
			if i != j && a.Cost.Dominates(b.Cost) {
				t.Fatalf("frontier contains dominated plan: %v dominates %v", a.Cost, b.Cost)
			}
		}
	}
}

func TestOptimizeCancellationReturnsPartialFrontier(t *testing.T) {
	// A query large enough that optimization would run far longer than
	// the cancellation point.
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 30, Graph: rmq.Star}, 8)
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled time.Time
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancelled = time.Now()
		cancel()
	}()
	f, err := rmq.Optimize(ctx, cat, rmq.WithTimeout(30*time.Second), rmq.WithSeed(4))
	returned := time.Now()
	if err != nil {
		t.Fatalf("cancellation must not be an error, got %v", err)
	}
	if latency := returned.Sub(cancelled); latency > 500*time.Millisecond {
		t.Errorf("returned %v after cancellation", latency)
	}
	if len(f.Plans) == 0 {
		t.Fatal("no partial frontier after 150ms of anytime optimization")
	}
	checkNonDominated(t, f)
	for _, p := range f.Plans {
		if err := p.Validate(); err != nil {
			t.Fatalf("invalid plan in partial frontier: %v", err)
		}
	}
}

func TestOptimizeContextDeadlineActsAsBudget(t *testing.T) {
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 20, Graph: rmq.Chain}, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	start := time.Now()
	f, err := rmq.Optimize(ctx, cat) // no WithTimeout: deadline is the budget
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("run ignored the context deadline: %v", elapsed)
	}
	if len(f.Plans) == 0 {
		t.Fatal("empty frontier")
	}
}

func TestOptimizeParallelDeterministicUnderMaxIterations(t *testing.T) {
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 12, Graph: rmq.Cycle}, 6)
	run := func() *rmq.Frontier {
		f, err := rmq.Optimize(context.Background(), cat,
			rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer),
			rmq.WithParallelism(4),
			rmq.WithMaxIterations(30),
			rmq.WithSeed(9),
		)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := run(), run()
	if a.Iterations != 4*30 || b.Iterations != 4*30 {
		t.Errorf("iterations = %d/%d, want %d (per-worker cap × workers)",
			a.Iterations, b.Iterations, 4*30)
	}
	checkNonDominated(t, a)
	checkNonDominated(t, b)
	if !slices.Equal(frontierCosts(a), frontierCosts(b)) {
		t.Error("parallel runs with equal seeds and iteration caps produced different frontiers")
	}
}

func TestOptimizeParallelCoversSequentialRun(t *testing.T) {
	// The 4-worker merged frontier contains worker 0's plans (same seed
	// as a sequential run) minus anything another worker dominated, so
	// it must be at least as large a non-dominated set.
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 12, Graph: rmq.Chain}, 13)
	opts := func(parallelism int) []rmq.Option {
		return []rmq.Option{
			rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer),
			rmq.WithParallelism(parallelism),
			rmq.WithMaxIterations(25),
			rmq.WithSeed(3),
		}
	}
	seq, err := rmq.Optimize(context.Background(), cat, opts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	par, err := rmq.Optimize(context.Background(), cat, opts(4)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Plans) < len(seq.Plans) {
		t.Errorf("parallel frontier (%d plans) smaller than sequential (%d plans)",
			len(par.Plans), len(seq.Plans))
	}
}

func TestSessionReuseAcrossRuns(t *testing.T) {
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 10, Graph: rmq.Chain}, 21)
	sess, err := rmq.NewSession(cat, rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Catalog() != cat {
		t.Error("session catalog mismatch")
	}
	// Sequential reuse: same session, two runs; determinism must hold
	// even though the second run reuses the first run's warmed problem.
	runOpts := []rmq.Option{rmq.WithMaxIterations(20), rmq.WithSeed(5)}
	a, err := sess.Optimize(context.Background(), runOpts...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Optimize(context.Background(), runOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(frontierCosts(a), frontierCosts(b)) {
		t.Error("session reuse changed results")
	}
	// Per-run options override session defaults.
	c, err := sess.Optimize(context.Background(),
		rmq.WithMetrics(rmq.MetricTime), rmq.WithMaxIterations(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Metrics) != 1 {
		t.Errorf("per-run metric override ignored: %v", c.Metrics)
	}
}

func TestSessionConcurrentUse(t *testing.T) {
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 10, Graph: rmq.Star}, 33)
	sess, err := rmq.NewSession(cat)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	frontiers := make([]*rmq.Frontier, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frontiers[i], errs[i] = sess.Optimize(context.Background(),
				rmq.WithMaxIterations(15),
				rmq.WithSeed(uint64(i)),
				rmq.WithParallelism(2))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
		if len(frontiers[i].Plans) == 0 {
			t.Fatalf("concurrent run %d: empty frontier", i)
		}
		checkNonDominated(t, frontiers[i])
	}
}

// TestMergeStrategiesProduceSameFrontier: the built-in rmq merges worker
// deltas (core.RMQ implements opt.DeltaFrontier), the registered
// wrapped-rmq hides FrontierDelta and so takes the full-frontier
// fallback; both must merge to the same frontier.
func TestMergeStrategiesProduceSameFrontier(t *testing.T) {
	registerWrappedRMQ()
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 12, Graph: rmq.Star}, 8)
	run := func(algo rmq.Algorithm) *rmq.Frontier {
		f, err := rmq.Optimize(context.Background(), cat,
			rmq.WithAlgorithm(algo),
			rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer),
			rmq.WithParallelism(3),
			rmq.WithMaxIterations(25),
			rmq.WithSeed(4),
		)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	delta, full := run(rmq.AlgoRMQ), run("wrapped-rmq")
	if len(delta.Plans) == 0 {
		t.Fatal("empty frontier")
	}
	if !slices.Equal(frontierCosts(delta), frontierCosts(full)) {
		t.Error("delta and full-frontier merging produced different frontiers")
	}
}

func TestSessionRejectsBadDefaults(t *testing.T) {
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 4}, 1)
	if _, err := rmq.NewSession(nil); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := rmq.NewSession(cat, rmq.WithMetrics(rmq.MetricTime, rmq.MetricTime)); err == nil {
		t.Error("duplicate default metric accepted")
	}
	if _, err := rmq.NewSession(cat, rmq.WithAlgorithm("bogus")); err == nil {
		t.Error("unknown default algorithm accepted at session setup")
	}
	if _, err := rmq.NewSession(cat, rmq.WithAlgorithm(rmq.AlgoDP), rmq.WithDPAlpha(0.5)); err == nil {
		t.Error("bad default DPAlpha accepted at session setup")
	}
}

func TestWithProgressStreamsSnapshots(t *testing.T) {
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 8, Graph: rmq.Chain}, 11)
	var mu sync.Mutex
	var iterations []int
	var lastPlans int
	_, err := rmq.Optimize(context.Background(), cat,
		rmq.WithMaxIterations(40),
		rmq.WithSeed(2),
		rmq.WithProgress(10, func(p rmq.Progress) {
			mu.Lock()
			defer mu.Unlock()
			iterations = append(iterations, p.Iterations)
			lastPlans = len(p.Plans)
			if len(p.Metrics) != 3 {
				t.Errorf("progress metrics = %v", p.Metrics)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(iterations) == 0 {
		t.Fatal("no progress callbacks over 40 iterations with every=10")
	}
	if !slices.IsSorted(iterations) {
		t.Errorf("progress iterations not monotone: %v", iterations)
	}
	if lastPlans == 0 {
		t.Error("final progress snapshot empty")
	}
}

func TestOnImprovementFiresAndSnapshotsAreNonDominated(t *testing.T) {
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 8, Graph: rmq.Chain}, 14)
	calls := 0
	_, err := rmq.Optimize(context.Background(), cat,
		rmq.WithMaxIterations(30),
		rmq.WithSeed(6),
		rmq.OnImprovement(func(p rmq.Progress) {
			calls++
			for i, a := range p.Plans {
				for j, b := range p.Plans {
					if i != j && a.Cost.Dominates(b.Cost) {
						t.Error("improvement snapshot contains dominated plan")
					}
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("OnImprovement never fired (the first plan always improves)")
	}
}

// wrappedRMQ exercises external registration: an algorithm plugged in
// through the public registry, here delegating to the core optimizer.
// Embedding the rmq.Optimizer interface hides core.RMQ's FrontierDelta,
// so runs of it merge full frontiers.
type wrappedRMQ struct {
	rmq.Optimizer
}

func (w *wrappedRMQ) Name() string { return "wrapped-rmq" }

var registerWrappedOnce sync.Once

// registerWrappedRMQ registers wrapped-rmq once per test binary (the
// registry panics on duplicate names).
func registerWrappedRMQ() {
	registerWrappedOnce.Do(func() {
		rmq.RegisterAlgorithm("wrapped-rmq", func(rmq.AlgorithmSpec) (rmq.Optimizer, error) {
			return &wrappedRMQ{Optimizer: core.New(core.Config{})}, nil
		})
	})
}

func TestRegisterAlgorithm(t *testing.T) {
	registerWrappedRMQ()
	if !slices.Contains(rmq.Algorithms(), rmq.Algorithm("wrapped-rmq")) {
		t.Fatal("registered algorithm not listed")
	}
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 6}, 5)
	f, err := rmq.Optimize(context.Background(), cat,
		rmq.WithAlgorithm("wrapped-rmq"),
		rmq.WithMaxIterations(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Plans) == 0 {
		t.Fatal("registered algorithm produced nothing")
	}
}

func TestAlgorithmsListsBuiltins(t *testing.T) {
	got := rmq.Algorithms()
	for _, want := range []rmq.Algorithm{
		rmq.AlgoRMQ, rmq.AlgoII, rmq.AlgoSA, rmq.Algo2P,
		rmq.AlgoNSGA2, rmq.AlgoDP, rmq.AlgoWS,
	} {
		if !slices.Contains(got, want) {
			t.Errorf("built-in %q missing from Algorithms(): %v", want, got)
		}
	}
}
