// Tests for the session-scoped shared plan cache: warm starts across
// Optimize calls, cross-worker sharing, quality differentials against
// private-cache runs, retention bounds, and concurrent use.
package rmq_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"rmq"
	"rmq/internal/opt"
	"rmq/internal/quality"
)

func sharedTestCatalog(tables int) *rmq.Catalog {
	return rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: tables, Graph: rmq.Chain}, 5)
}

// TestSharedCacheWarmStartQuality pins the warm-start contract end to
// end: after a cold call, a repeat call through the same session at a
// tenth of the budget returns a frontier whose ε-indicator against the
// cold result is exactly 1 — every cold trade-off is matched or
// dominated. This is the quality side of the ≥3x warm-start latency
// claim benchmarked by BenchmarkWorkloadThroughput: the warm budget
// used there is sufficient, not lucky.
func TestSharedCacheWarmStartQuality(t *testing.T) {
	sess, err := rmq.NewSession(sharedTestCatalog(20),
		rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer),
		rmq.WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cold, err := sess.Optimize(ctx, rmq.WithSeed(1), rmq.WithMaxIterations(400))
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Plans) == 0 {
		t.Fatal("cold run found nothing")
	}
	if cs := sess.CacheStats(); cs.Sets == 0 || cs.Plans == 0 {
		t.Fatalf("cold run retained nothing: %+v", cs)
	}
	for seed := uint64(2); seed <= 4; seed++ {
		warm, err := sess.Optimize(ctx, rmq.WithSeed(seed), rmq.WithMaxIterations(40))
		if err != nil {
			t.Fatal(err)
		}
		checkNonDominated(t, warm)
		eps := quality.Epsilon(opt.Costs(warm.Plans), opt.Costs(cold.Plans))
		if eps > 1 {
			t.Fatalf("warm run (seed %d) at 1/10 budget: ε = %g vs cold result, want 1", seed, eps)
		}
	}
}

// TestSharedCacheQualityNoWorseEqualBudget is the differential
// acceptance test: at equal per-worker iteration budgets in the
// schedule's refined regime, parallel runs with the shared cache
// produce frontiers whose ε-indicator (against the union reference,
// the paper's Section 6.1 device) is no worse than private-cache runs
// — in aggregate across seeds, since individual trajectories are
// randomized. The budget sits where the cumulative-α effect has teeth;
// far below it, private multi-start's trajectory diversity can win
// (see the package docs of internal/cache on when to enable sharing).
func TestSharedCacheQualityNoWorseEqualBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("multi-second quality differential; run without -short/-race")
	}
	cat := sharedTestCatalog(16)
	metrics := rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer, rmq.MetricDisc)
	const iters = 1500
	const workers = 4
	logPriv, logShared := 0.0, 0.0
	seeds := []uint64{1, 2, 3, 4}
	for _, seed := range seeds {
		priv, err := rmq.NewSession(cat, metrics)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := rmq.NewSession(cat, metrics, rmq.WithSharedCache(true))
		if err != nil {
			t.Fatal(err)
		}
		fP, err := priv.Optimize(context.Background(),
			rmq.WithSeed(seed), rmq.WithMaxIterations(iters), rmq.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		fS, err := shared.Optimize(context.Background(),
			rmq.WithSeed(seed), rmq.WithMaxIterations(iters), rmq.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		ref := quality.Union(opt.Costs(fP.Plans), opt.Costs(fS.Plans))
		eP := quality.Epsilon(opt.Costs(fP.Plans), ref)
		eS := quality.Epsilon(opt.Costs(fS.Plans), ref)
		t.Logf("seed %d: ε private = %.3f, shared = %.3f", seed, eP, eS)
		logPriv += math.Log(eP)
		logShared += math.Log(eS)
	}
	gmP := math.Exp(logPriv / float64(len(seeds)))
	gmS := math.Exp(logShared / float64(len(seeds)))
	t.Logf("geomean ε: private = %.3f, shared = %.3f", gmP, gmS)
	// Interleaving makes shared trajectories nondeterministic; the
	// slack absorbs that noise without letting a real regression
	// through (the steady gap measured on this configuration is ≥ 2x
	// in sharing's favor).
	if gmS > gmP*1.2 {
		t.Fatalf("shared-cache quality worse at equal budget: geomean ε %.3f vs private %.3f", gmS, gmP)
	}
}

// TestSharedCacheSoloFirstRunDeterministic pins that enabling the
// shared cache does not perturb a fresh session's first single-worker
// run: with no prior state to import and nobody to exchange with, the
// trajectory is bit-identical to a private-cache run with the same
// seed.
func TestSharedCacheSoloFirstRunDeterministic(t *testing.T) {
	cat := sharedTestCatalog(10)
	run := func(opts ...rmq.Option) *rmq.Frontier {
		sess, err := rmq.NewSession(cat, opts...)
		if err != nil {
			t.Fatal(err)
		}
		f, err := sess.Optimize(context.Background(), rmq.WithSeed(3), rmq.WithMaxIterations(150))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	private := run()
	shared := run(rmq.WithSharedCache(true))
	if !slicesEqual(frontierCosts(private), frontierCosts(shared)) {
		t.Fatalf("first solo shared run diverged from private:\nprivate %v\nshared  %v",
			frontierCosts(private), frontierCosts(shared))
	}
}

// TestSharedCacheRaceStress exercises the full concurrent surface under
// the race detector: two concurrent Optimize calls on one session, each
// with eight workers publishing into and warm-starting from the same
// store, interleaved with CacheStats polling.
func TestSharedCacheRaceStress(t *testing.T) {
	sess, err := rmq.NewSession(sharedTestCatalog(12),
		rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer),
		rmq.WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for call := 0; call < 2; call++ {
				f, err := sess.Optimize(context.Background(),
					rmq.WithSeed(uint64(10*g+call)),
					rmq.WithParallelism(8),
					rmq.WithMaxIterations(30))
				if err != nil {
					t.Error(err)
					return
				}
				if len(f.Plans) == 0 {
					t.Error("empty frontier under concurrent shared-cache use")
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if cs := sess.CacheStats(); cs.Sets == 0 {
				t.Fatal("stress run retained nothing")
			}
			return
		default:
			_ = sess.CacheStats()
		}
	}
}

// TestSharedCacheRetentionBoundsStore checks the memory knob: once the
// frontiers of several workers and runs accumulate, a store with coarse
// retention α keeps substantially fewer plans than an exact one after
// identical optimization work, and stays usable for warm starts. (A
// single solitary run shows no difference — its publishes are already
// α-schedule-sparse; retention bounds the union that a long-lived
// session accumulates.)
func TestSharedCacheRetentionBoundsStore(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("multi-second accumulation; run without -short/-race")
	}
	cat := sharedTestCatalog(12)
	metrics := rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer, rmq.MetricDisc)
	retained := func(opts ...rmq.Option) (rmq.CacheStats, *rmq.Frontier) {
		sess, err := rmq.NewSession(cat, append([]rmq.Option{metrics, rmq.WithSharedCache(true)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		var f *rmq.Frontier
		// Enough cumulative work to push the schedule into the fine-α
		// regime, where exact retention's union balloons (the regime the
		// knob exists for).
		for seed := uint64(1); seed <= 2; seed++ {
			var err error
			f, err = sess.Optimize(context.Background(),
				rmq.WithSeed(seed), rmq.WithMaxIterations(1500), rmq.WithParallelism(4))
			if err != nil {
				t.Fatal(err)
			}
		}
		return sess.CacheStats(), f
	}
	exact, _ := retained()
	coarse, f := retained(rmq.WithCacheRetention(2))
	if coarse.Plans >= exact.Plans*3/4 {
		t.Fatalf("retention 2 kept %d plans, exact kept %d — no substantive pruning", coarse.Plans, exact.Plans)
	}
	if coarse.Sets == 0 || len(f.Plans) == 0 {
		t.Fatal("coarse retention degenerated the store")
	}
}

func TestWithCacheRetentionValidation(t *testing.T) {
	_, err := rmq.NewSession(sharedTestCatalog(6), rmq.WithCacheRetention(0.5))
	if err == nil {
		t.Fatal("retention below 1 accepted")
	}
}

func slicesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStoreInternsOnlyCachedSets checks that a store's interner names
// exactly the table sets the store caches. Shared runs at parallelism 2
// (with more than one processor each worker pipelines stage B behind
// the next climb) leave one id per cached set; so do a replica after
// the primary's full delta pull and a fresh session after restoring the
// primary's snapshot. Random plans and climbing moves pass through
// many more sets than the climbed plans keep; none of those may take an
// id.
func TestStoreInternsOnlyCachedSets(t *testing.T) {
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 14, Graph: rmq.Cycle}, 3)
	primary, err := rmq.NewSession(cat, rmq.WithSharedCache(true),
		rmq.WithCacheRetention(2), rmq.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		if _, err := primary.Optimize(context.Background(), rmq.WithSeed(seed), rmq.WithMaxIterations(40)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, s *rmq.Session) {
		t.Helper()
		if cs := s.CacheStats(); cs.Sets == 0 || cs.IDs != cs.Sets {
			t.Fatalf("%s store holds %d ids for %d sets", name, cs.IDs, cs.Sets)
		}
	}
	check("primary", primary)

	deltas, _, err := primary.EncodeDeltas(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := rmq.NewSession(cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.ApplyDeltas(deltas); err != nil {
		t.Fatal(err)
	}
	check("replica", replica)

	snap, err := primary.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := rmq.NewSession(cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	check("restored", restored)
}

// TestBaselinesLeaveStoreAlone checks that shared-cache runs of a
// baseline, which has no sub-plan cache, neither create a store nor
// intern into one: simulated annealing builds plans over every set its
// moves reach, and none of them may take a store id.
func TestBaselinesLeaveStoreAlone(t *testing.T) {
	sess, err := rmq.NewSession(sharedTestCatalog(10), rmq.WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 2; seed++ {
		if _, err := sess.Optimize(context.Background(), rmq.WithSeed(seed),
			rmq.WithAlgorithm(rmq.AlgoSA), rmq.WithMaxIterations(200)); err != nil {
			t.Fatal(err)
		}
	}
	if cs, ps := sess.CacheStats(), sess.PoolStats(); cs != (rmq.CacheStats{}) || ps.Pooled != 0 {
		t.Fatalf("baseline runs left cache stats %+v and %d pooled problems", cs, ps.Pooled)
	}
}
