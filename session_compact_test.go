package rmq

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"rmq/internal/cache"
	"rmq/internal/costmodel"
	"rmq/internal/tableset"
)

// TestCompactionReplacesOutgrownStore pads a shared session's store
// interner past the compaction trigger twice. The first compaction runs
// while optimizer runs keep publishing into the store and a replica
// keeps pulling deltas from it; the second runs with no writes in
// flight. Afterwards the store's interner holds exactly its sets, a
// quiesced compaction changes no byte of the snapshot, the effective
// retention a shed raised survives, a delta cursor issued before the
// compaction receives every bucket on its next pull, no problem bound
// to a replaced store is parked, and the next run warm-starts from the
// new store and publishes into it.
func TestCompactionReplacesOutgrownStore(t *testing.T) {
	cat := GenerateCatalog(WorkloadSpec{Tables: 10, Graph: Chain}, 3)
	s, err := NewSession(cat, WithSharedCache(true), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := s.Optimize(ctx, WithSeed(seed), WithMaxIterations(30)); err != nil {
			t.Fatal(err)
		}
	}
	s.TightenCache(2) // raises the effective retention from 1 to 2
	tag := metricsKey(costmodel.AllMetrics())
	store := func() *cache.Shared {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.shared[tag]
	}
	checkCompacted := func(old *cache.Shared, compactions int) {
		t.Helper()
		cs := s.CacheStats()
		if cs.Compactions != compactions || store() == old {
			t.Fatalf("after compaction: %d compactions, store replaced %v", cs.Compactions, store() != old)
		}
		if cs.IDs != cs.Sets {
			t.Fatalf("compacted store holds %d ids for %d sets", cs.IDs, cs.Sets)
		}
		if got := s.EffectiveRetention(); got != 2 {
			t.Fatalf("effective retention %v after compaction, want 2", got)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, p := range s.pool[tag] {
			if p.Model.Interner() != s.shared[tag].Interner() {
				t.Fatal("the pool holds a problem bound to a replaced store")
			}
		}
	}

	// Compaction while runs publish and a replica pulls.
	old := store()
	padInterner(old)
	runCtx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for seed := uint64(10); seed < 12; seed++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = s.Optimize(runCtx, WithSeed(seed), WithMaxIterations(1<<30))
		}()
	}
	replica, err := NewSession(cat)
	if err != nil {
		t.Fatal(err)
	}
	var cursors map[string]uint64
	pull := func() {
		t.Helper()
		data, next, err := s.EncodeDeltas(1, cursors)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := replica.ApplyDeltas(data); err != nil {
			t.Fatal(err)
		}
		cursors = next
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for runCtx.Err() == nil {
			data, _, err := s.EncodeDeltas(1, nil)
			if err == nil {
				_, err = replica.ApplyDeltas(data)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	pull()
	if err := s.compact(tag); err != nil {
		t.Fatal(err)
	}
	stop()
	wg.Wait()
	checkCompacted(old, 1)
	pull()
	if got, want := replica.CacheStats().Sets, s.CacheStats().Sets; got < want {
		t.Fatalf("replica holds %d sets after pulling across the compaction, primary %d", got, want)
	}

	// Compaction with no writes in flight.
	old = store()
	padInterner(old)
	before, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cursor := s.DeltaCursors()[tag]
	if err := s.compact(tag); err != nil {
		t.Fatal(err)
	}
	checkCompacted(old, 2)
	after, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("snapshot after compaction differs (%d bytes, before %d)", len(after), len(before))
	}
	data, _, err := s.EncodeDeltas(1, map[string]uint64{tag: cursor})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSession(cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.ApplyDeltas(data); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.CacheStats().Sets, s.CacheStats().Sets; got != want {
		t.Fatalf("pull with a pre-compaction cursor shipped %d sets, the store holds %d", got, want)
	}

	// The next run warm-starts from the new store and publishes into it.
	sh := store()
	iters, mark := sh.Iterations(), sh.DeltaCursor()
	if _, err := s.Optimize(ctx, WithSeed(20), WithMaxIterations(30)); err != nil {
		t.Fatal(err)
	}
	if store() != sh || sh.Iterations() <= iters || sh.DeltaCursor() <= mark {
		t.Fatalf("run after compaction: iterations %d → %d, cursor %d → %d", iters, sh.Iterations(), mark, sh.DeltaCursor())
	}
	s.mu.Lock()
	parked := s.pool[tag]
	s.mu.Unlock()
	if len(parked) == 0 {
		t.Fatal("the run after compaction parked no problem")
	}
	for _, p := range parked {
		if p.Model.Interner() != sh.Interner() {
			t.Fatal("the run after compaction parked a problem not bound to the new store")
		}
	}
	// A run that met the replaced store before the swap builds its own
	// problems instead of taking the new store's.
	for _, p := range s.acquire(costmodel.AllMetrics(), len(parked), old) {
		if p.Model.Interner() != old.Interner() {
			t.Fatal("a run on the replaced store took a problem bound to the new one")
		}
	}
}

// padInterner interns sets over tables 64–127, which the test catalogs
// never use, until the store's interner has outgrown it.
func padInterner(sh *cache.Shared) {
	in := sh.Interner()
	for k := uint64(1); !outgrown(sh); k++ {
		var set tableset.Set
		for b, bits := 0, k; bits != 0; b, bits = b+1, bits>>1 {
			if bits&1 != 0 {
				set = set.Add(64 + b)
			}
		}
		in.Intern(set)
	}
}
