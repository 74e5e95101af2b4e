// In-package session tests: the problem pool's compatibility keying,
// its population cap, the shared-store retention contract, and the
// per-worker seed derivation — state external tests cannot observe.
package rmq

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"rmq/internal/costmodel"
)

// TestProblemPoolKeyedBySharedCacheBinding is the regression test for
// the pool-keying bug: problems were pooled under the metric subset
// alone, so an instance warmed under one option set could be handed to
// an incompatible run. Concretely, a private-interner problem recycled
// into a shared-cache run carries plan ids from a foreign namespace —
// the optimizer then detects the mismatch and silently degrades to a
// private cache, losing the warm start the caller asked for. Only
// shared-cache runs park problems now; this test pins that private runs
// park nothing and that parked problems are built over the session
// store's interner.
func TestProblemPoolKeyedBySharedCacheBinding(t *testing.T) {
	cat := GenerateCatalog(WorkloadSpec{Tables: 6, Graph: Chain}, 1)
	s, err := NewSession(cat)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// A private run, then a shared one, then private again — under the
	// old keying the second run would have been handed the first run's
	// private-interner problem.
	if _, err := s.Optimize(ctx, WithMaxIterations(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Optimize(ctx, WithSharedCache(true), WithMaxIterations(4), WithParallelism(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Optimize(ctx, WithMaxIterations(4)); err != nil {
		t.Fatal(err)
	}

	key := metricsKey(costmodel.AllMetrics())
	s.mu.Lock()
	defer s.mu.Unlock()
	store := s.shared[key]
	if store == nil {
		t.Fatal("shared run created no session store")
	}
	shared := s.pool[key]
	if len(shared) == 0 {
		t.Fatal("the shared run parked no problem")
	}
	if s.pooled != len(shared) {
		t.Fatalf("pool holds %d problems, %d of them the shared run's: private runs must park nothing",
			s.pooled, len(shared))
	}
	for _, p := range shared {
		if p.Model.Interner() != store.Interner() {
			t.Fatal("shared pool holds a problem not bound to the session store's interner")
		}
	}
}

// TestSharedStorePerMetricSubset pins that metric subsets get disjoint
// stores (cost vectors of different dimensionality are incomparable)
// and that CacheStats aggregates across them.
func TestSharedStorePerMetricSubset(t *testing.T) {
	cat := GenerateCatalog(WorkloadSpec{Tables: 6, Graph: Chain}, 1)
	s, err := NewSession(cat, WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Optimize(ctx, WithMaxIterations(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Optimize(ctx, WithMetrics(MetricTime, MetricBuffer), WithMaxIterations(10)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	n := len(s.shared)
	s.mu.Unlock()
	if n != 2 {
		t.Fatalf("session holds %d stores, want 2 (one per metric subset)", n)
	}
	cs := s.CacheStats()
	s.mu.Lock()
	sum := 0
	for _, sh := range s.shared {
		_, plans := sh.Stats()
		sum += plans
	}
	s.mu.Unlock()
	if cs.Plans != sum || cs.Plans == 0 {
		t.Fatalf("CacheStats.Plans = %d, want sum over stores %d > 0", cs.Plans, sum)
	}
}

// TestSharedStoreRetentionFixedByFirstRun documents that the retention
// precision of a metric subset's store is fixed by the run that creates
// it: a later run that explicitly asks for a different retention gets
// ErrRetentionMismatch (it would otherwise silently optimize under
// someone else's memory bound), while runs that match the retention or
// leave it unset reuse the store.
func TestSharedStoreRetentionFixedByFirstRun(t *testing.T) {
	cat := GenerateCatalog(WorkloadSpec{Tables: 6, Graph: Chain}, 1)
	s, err := NewSession(cat, WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Optimize(ctx, WithCacheRetention(2), WithMaxIterations(4)); err != nil {
		t.Fatal(err)
	}
	// A conflicting explicit retention is an error, not a silent reuse.
	_, err = s.Optimize(ctx, WithCacheRetention(4), WithMaxIterations(4))
	if !errors.Is(err, ErrRetentionMismatch) {
		t.Fatalf("conflicting retention: got err %v, want ErrRetentionMismatch", err)
	}
	// Matching retention and unset retention both reuse the store.
	if _, err := s.Optimize(ctx, WithCacheRetention(2), WithMaxIterations(4)); err != nil {
		t.Fatalf("matching retention rejected: %v", err)
	}
	if _, err := s.Optimize(ctx, WithMaxIterations(4)); err != nil {
		t.Fatalf("unset retention rejected: %v", err)
	}
	s.mu.Lock()
	n := len(s.shared)
	for _, sh := range s.shared {
		if got := sh.Retention(); got != 2 {
			s.mu.Unlock()
			t.Fatalf("store retention = %v, want 2 (fixed by the creating run)", got)
		}
	}
	s.mu.Unlock()
	if n != 1 {
		t.Fatalf("session holds %d stores, want 1 (the error path must not create a second store)", n)
	}
}

// TestProblemPoolCappedUnderBurst is the regression test for the
// unbounded-pool bug: release appended every borrowed problem back with
// no cap, so a burst of B concurrent Optimize calls at parallelism P
// permanently pinned B×P warmed instances. A release now keeps at most
// max(GOMAXPROCS, parallelism) instances per metric subset. The burst
// holds its instances at once (every run waits at its first progress
// report until all have reached theirs) and borrows more than the cap
// admits back on any GOMAXPROCS, so drops must happen and the
// high-water mark must stay at the cap.
func TestProblemPoolCappedUnderBurst(t *testing.T) {
	cat := GenerateCatalog(WorkloadSpec{Tables: 8, Graph: Chain}, 1)
	const parallelism = 4
	burst := runtime.GOMAXPROCS(0)/parallelism + 2
	adaptiveCap := max(runtime.GOMAXPROCS(0), parallelism)
	s, err := NewSession(cat, WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	var wg, inFlight sync.WaitGroup
	inFlight.Add(burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived := false
			_, err := s.Optimize(context.Background(),
				WithSeed(uint64(i)), WithParallelism(parallelism), WithMaxIterations(5),
				WithProgress(1, func(Progress) {
					if !arrived {
						arrived = true
						inFlight.Done()
						inFlight.Wait()
					}
				}))
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	ps := s.PoolStats()
	if ps.HighWater > adaptiveCap {
		t.Fatalf("pool high-water %d exceeds max(GOMAXPROCS, parallelism) = %d (pooled %d, dropped %d)",
			ps.HighWater, adaptiveCap, ps.Pooled, ps.Dropped)
	}
	if ps.Pooled > adaptiveCap {
		t.Fatalf("pool holds %d instances, cap is %d", ps.Pooled, adaptiveCap)
	}
	// The burst borrowed more instances than the cap admits back, so
	// drops must have happened — that is the memory bound working.
	if want := burst*parallelism - adaptiveCap; ps.Dropped < want {
		t.Fatalf("burst of %d×%d dropped %d instances at cap %d, want at least %d",
			burst, parallelism, ps.Dropped, adaptiveCap, want)
	}
}

// TestWorkerSeedsWellSpread is the regression test for the worker-seed
// collision: the bare golden-ratio increment made run seed s worker 1
// collide bit-for-bit with run seed s+0x9E3779B97F4A7C15 worker 0, so
// adjacent server requests deriving per-request seeds could silently
// duplicate multi-start trajectories. With the SplitMix64 finalizer the
// derived streams are pairwise distinct across runs and workers, while
// worker 0 still keeps the raw run seed for sequential compatibility.
func TestWorkerSeedsWellSpread(t *testing.T) {
	const golden uint64 = 0x9E3779B97F4A7C15
	for _, s := range []uint64{0, 1, 42, 1 << 63} {
		if workerSeed(s, 0) != s {
			t.Fatalf("worker 0 of seed %d no longer keeps the raw seed", s)
		}
		if workerSeed(s, 1) == workerSeed(s+golden, 0) {
			t.Fatalf("seed %d worker 1 collides with seed %d worker 0 (the pre-finalizer bug)", s, s+golden)
		}
	}
	// Pairwise distinct across a grid of run seeds × workers, including
	// the golden-ratio-spaced run seeds that collided before and the
	// dense consecutive seeds a server derives per request.
	seen := make(map[uint64]string)
	bases := []uint64{7, 7 + golden}
	bases = append(bases, bases[1]+golden) // wraps past 2^64; constant arithmetic would not
	for _, base := range bases {
		for run := uint64(0); run < 64; run++ {
			for w := 0; w < 8; w++ {
				derived := workerSeed(base+run, w)
				at := ""
				if prev, dup := seen[derived]; dup {
					at = prev
				}
				if at != "" {
					t.Fatalf("derived seed collision: run %d worker %d repeats %s", base+run, w, at)
				}
				seen[derived] = fmt.Sprintf("run %d worker %d", base+run, w)
			}
		}
	}
}
