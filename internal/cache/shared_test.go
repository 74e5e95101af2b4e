package cache

import (
	"math/rand/v2"
	"sync"
	"testing"

	"rmq/internal/cost"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// sharedFixture returns a shared store plus n private caches over the
// store's interner, each with its own sync handle and dirty tracking —
// the wiring an n-worker shared-cache run uses.
func sharedFixture(t testing.TB, n int, retain float64) (*Shared, []*Cache, []*SyncState) {
	t.Helper()
	sh := NewShared(tableset.NewInterner(), retain)
	caches := make([]*Cache, n)
	syncs := make([]*SyncState, n)
	for i := range caches {
		caches[i] = New(sh.Interner())
		caches[i].TrackDirty()
		syncs[i] = sh.NewSync()
	}
	return sh, caches, syncs
}

// insert builds a plan with an interned id (like model-built plans) and
// offers it to the cache at α.
func insert(c *Cache, rel tableset.Set, out plan.OutputProp, alpha float64, costs ...float64) bool {
	p := &plan.Plan{Rel: rel, RelID: c.in.Intern(rel), Cost: cost.New(costs...), Output: out}
	return c.Insert(p, alpha)
}

// storeBuckets returns the store's buckets in slot order.
func storeBuckets(sh *Shared) []*sharedBucket {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]*sharedBucket, sh.n)
	for slot := range out {
		out[slot], _ = slotAt(sh.chunks, slot)
	}
	return out
}

func costsOf(plans []*plan.Plan) [][]float64 {
	out := make([][]float64, len(plans))
	for i, p := range plans {
		out[i] = []float64{p.Cost.At(0), p.Cost.At(1)}
	}
	return out
}

// TestSharedPublishPullRoundtrip moves plans worker A found into worker
// B's private cache through the store and checks both frontiers agree.
func TestSharedPublishPullRoundtrip(t *testing.T) {
	sh, caches, syncs := sharedFixture(t, 2, 1)
	a, b := caches[0], caches[1]
	relAB := tableset.FromSlice([]int{0, 1})

	insert(a, relAB, plan.Pipelined, 1, 4, 1)
	insert(a, relAB, plan.Pipelined, 1, 1, 4)
	if got := syncs[0].Publish(a); got != 2 {
		t.Fatalf("Publish = %d, want 2", got)
	}
	if sets, plans := sh.Stats(); sets != 1 || plans != 2 {
		t.Fatalf("Stats = (%d, %d), want (1, 2)", sets, plans)
	}
	if got := syncs[1].Pull(b); got != 2 {
		t.Fatalf("Pull = %d, want 2", got)
	}
	if got := b.Get(relAB); len(got) != 2 {
		t.Fatalf("pulled frontier %v", costsOf(got))
	}

	// B improves on one trade-off; A sees it after a sync pair.
	insert(b, relAB, plan.Pipelined, 1, 2, 1) // evicts (4,1)
	syncs[1].Publish(b)
	syncs[0].Pull(a)
	got := a.Get(relAB)
	if len(got) != 2 {
		t.Fatalf("frontier after exchange: %v", costsOf(got))
	}
	for _, p := range got {
		if p.Cost.At(0) == 4 {
			t.Fatalf("dominated plan survived the exchange: %v", costsOf(got))
		}
	}
}

// TestSharedSelfPullIsNoOp pins that a solitary worker does not reimport
// its own publishes: after publish, pull must move nothing.
func TestSharedSelfPullIsNoOp(t *testing.T) {
	_, caches, syncs := sharedFixture(t, 1, 1)
	c, st := caches[0], syncs[0]
	insert(c, tableset.Single(2), plan.Materialized, 1, 3, 3)
	insert(c, tableset.FromSlice([]int{0, 1}), plan.Pipelined, 1, 1, 2)
	st.Publish(c)
	if got := st.Pull(c); got != 0 {
		t.Fatalf("self-pull imported %d plans", got)
	}
	// And the epoch bookkeeping must not have marked anything dirty in a
	// way that republishes: a second sync is a full no-op.
	if p, i := st.Sync(c); p != 0 || i != 0 {
		t.Fatalf("steady-state sync = (%d, %d), want (0, 0)", p, i)
	}
}

// TestSharedWarmStartImportsEverything pins that a fresh handle's first
// pull hands a new private cache the store's entire contents.
func TestSharedWarmStartImportsEverything(t *testing.T) {
	sh, caches, syncs := sharedFixture(t, 1, 1)
	seed := caches[0]
	rels := []tableset.Set{
		tableset.Single(0),
		tableset.Single(1),
		tableset.FromSlice([]int{0, 1}),
		tableset.FromSlice([]int{0, 1, 2}),
	}
	for i, rel := range rels {
		insert(seed, rel, plan.Pipelined, 1, float64(i+1), float64(len(rels)-i))
		insert(seed, rel, plan.Materialized, 1, float64(i+2), float64(len(rels)-i))
	}
	syncs[0].Publish(seed)

	warm := New(sh.Interner())
	warm.TrackDirty()
	st := sh.NewSync()
	if got := st.Pull(warm); got != 2*len(rels) {
		t.Fatalf("warm pull = %d plans, want %d", got, 2*len(rels))
	}
	for _, rel := range rels {
		if f := warm.Get(rel); len(f) != 2 {
			t.Fatalf("warm frontier of %v: %v", rel, costsOf(f))
		}
	}
	// The warm cache republishes nothing: everything came from the store.
	if p, _ := st.Sync(warm); p != 0 {
		t.Fatalf("warm cache republished %d plans", p)
	}
}

// TestSharedRetentionPrunes checks that a retention α > 1 keeps only
// α-approximate frontiers in the store while private caches keep their
// exact ones.
func TestSharedRetentionPrunes(t *testing.T) {
	_, caches, syncs := sharedFixture(t, 2, 2) // retain α = 2
	c := caches[0]
	rel := tableset.FromSlice([]int{0, 1})
	// A tight cost ladder: exact Pareto keeps all, α=2 keeps one.
	insert(c, rel, plan.Pipelined, 1, 10, 10)
	insert(c, rel, plan.Pipelined, 1, 9, 11)
	insert(c, rel, plan.Pipelined, 1, 11, 9)
	if got := len(c.Get(rel)); got != 3 {
		t.Fatalf("private frontier %d plans, want 3", got)
	}
	if got := syncs[0].Publish(c); got != 1 {
		t.Fatalf("published %d plans into α=2 store, want 1", got)
	}
	other := caches[1]
	if got := syncs[1].Pull(other); got != 1 {
		t.Fatalf("pulled %d plans, want 1", got)
	}
}

// TestSharedSteadyStateSyncAllocs is the 0-alloc guard of the
// shared-cache read probes: once warm and unchanged, a full sync (the
// per-iteration check every worker runs) must not allocate.
func TestSharedSteadyStateSyncAllocs(t *testing.T) {
	_, caches, syncs := sharedFixture(t, 2, 1)
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 64; i++ {
		rel := tableset.Single(i % 24).Add(24 + i%13)
		insert(caches[0], rel, plan.Pipelined, 1, 1+rng.Float64()*9, 1+rng.Float64()*9)
	}
	syncs[0].Sync(caches[0])
	syncs[1].Sync(caches[1]) // imports everything; now both are warm
	syncs[0].Sync(caches[0])
	for i, st := range syncs {
		st := st
		c := caches[i]
		if avg := testing.AllocsPerRun(100, func() { st.Sync(c) }); avg != 0 {
			t.Errorf("steady-state sync of worker %d allocates %v/op", i, avg)
		}
	}
}

// TestSharedConcurrentStress exchanges randomized frontiers between
// goroutine-owned private caches through one store (run under -race).
// Afterwards, a fresh pull must see, for every table set, a frontier
// that is consistent: no plan strictly dominated by another same-output
// plan survives.
func TestSharedConcurrentStress(t *testing.T) {
	const workers = 8
	const steps = 400
	sh, caches, syncs := sharedFixture(t, workers, 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			c, st := caches[w], syncs[w]
			for i := 0; i < steps; i++ {
				rel := tableset.Single(rng.IntN(20)).Add(20 + rng.IntN(11))
				out := plan.OutputProp(rng.IntN(plan.NumOutputProps))
				insert(c, rel, out, 1, 1+rng.Float64()*20, 1+rng.Float64()*20)
				st.Sync(c)
			}
		}(w)
	}
	wg.Wait()

	final := New(sh.Interner())
	final.TrackDirty()
	sh.NewSync().Pull(final)
	checked := 0
	for t1 := 0; t1 < 20; t1++ {
		for t2 := 20; t2 < 31; t2++ {
			rel := tableset.Single(t1).Add(t2)
			plans := final.Get(rel)
			for i, p := range plans {
				for j, q := range plans {
					if i != j && better(p, q) {
						t.Fatalf("store frontier of %v holds dominated plan: %v", rel, costsOf(plans))
					}
				}
			}
			checked += len(plans)
		}
	}
	if checked == 0 {
		t.Fatal("stress run published nothing")
	}
}

// TestPullConvergesWhileBucketsAreCreated runs publishers that create
// buckets across several mirror chunks while pullers scan the store.
// After the publishers stop, one more Pull must bring every puller, and
// a fresh handle, to the store's frontier: every store bucket's plans
// in the private cache, nothing else, and every mark at the bucket's
// epoch — no change lost to a scan that raced a chunk's creation.
func TestPullConvergesWhileBucketsAreCreated(t *testing.T) {
	const publishers, pullers, rounds = 3, 3, 3
	sets := 4*sharedBucketsPerSlab + 17
	sh := NewShared(tableset.NewInterner(), 1)
	rels := make([]tableset.Set, sets)
	for i := range rels {
		rels[i] = tableset.FromWords(uint64(i+1), 0)
	}

	var pubs, pulls sync.WaitGroup
	done := make(chan struct{})
	caches := make([]*Cache, pullers)
	syncs := make([]*SyncState, pullers)
	for k := range caches {
		caches[k], syncs[k] = New(sh.Interner()), sh.NewSync()
		caches[k].TrackDirty()
		pulls.Add(1)
		go func(c *Cache, st *SyncState) {
			defer pulls.Done()
			for {
				select {
				case <-done:
					return
				default:
					st.Pull(c)
				}
			}
		}(caches[k], syncs[k])
	}
	for w := 0; w < publishers; w++ {
		pubs.Add(1)
		go func(w int) {
			defer pubs.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 17))
			c, st := New(sh.Interner()), sh.NewSync()
			c.TrackDirty()
			for r := 0; r < rounds; r++ {
				// Each publisher walks every set from its own offset, so
				// the workers create buckets in different orders and
				// contend on the ones they share.
				for k := range rels {
					rel := rels[(k+w*sets/publishers)%sets]
					insert(c, rel, plan.OutputProp(rng.IntN(2)), 1, float64(1+rng.IntN(50)), float64(1+rng.IntN(50)))
					if k%7 == 0 {
						st.Publish(c)
					}
				}
				st.Publish(c)
			}
		}(w)
	}
	pubs.Wait()
	close(done)
	pulls.Wait()

	fresh := New(sh.Interner())
	fresh.TrackDirty()
	caches = append(caches, fresh)
	syncs = append(syncs, sh.NewSync())
	buckets := storeBuckets(sh)
	if len(buckets) != sets {
		t.Fatalf("store holds %d buckets, want %d", len(buckets), sets)
	}
	for k, c := range caches {
		syncs[k].Pull(c)
		for slot, sb := range buckets {
			want := make(map[*plan.Plan]bool, len(sb.b.plans))
			for _, p := range sb.b.plans {
				want[p] = true
			}
			got := c.GetID(sb.b.id)
			same := len(got) == len(want)
			for _, p := range got {
				same = same && want[p]
			}
			if !same {
				t.Fatalf("handle %d, bucket %v: private frontier %v, store frontier %v",
					k, sh.in.SetOf(sb.b.id), costsOf(got), costsOf(sb.b.plans))
			}
			if mark := syncs[k].pulled[slot]; mark != sb.b.epoch {
				t.Fatalf("handle %d, bucket %v: mark %d, store epoch %d", k, sh.in.SetOf(sb.b.id), mark, sb.b.epoch)
			}
		}
	}
}

// TestAdoptedWindowsDropEvictedPlans checks the rule that makes carving
// adopted buckets' arrays from shared chunks safe: a bucket that
// outgrows its window, or compacts it on eviction, leaves no plan
// behind in the chunk, so no window keeps an evicted plan reachable
// while its neighbours keep the chunk alive.
func TestAdoptedWindowsDropEvictedPlans(t *testing.T) {
	sh, caches, syncs := sharedFixture(t, 1, 1)
	r0, r1, r2 := tableset.Single(0), tableset.Single(1), tableset.Single(2)
	insert(caches[0], r0, plan.Pipelined, 1, 4, 4)
	insert(caches[0], r1, plan.Pipelined, 1, 1, 9)
	insert(caches[0], r1, plan.Pipelined, 1, 5, 5)
	insert(caches[0], r1, plan.Pipelined, 1, 6, 4)
	insert(caches[0], r2, plan.Pipelined, 1, 1, 1)
	syncs[0].Publish(caches[0])
	c := New(sh.Interner())
	c.TrackDirty()
	if got := sh.NewSync().Pull(c); got != 5 {
		t.Fatalf("warm start imported %d plans, want 5", got)
	}
	b0, b1 := c.Bucket(r0), c.Bucket(r1)
	grown, compacted := b0.plans, b1.plans
	if cap(grown) != 1 || cap(compacted) != 3 {
		t.Fatalf("adopted windows have cap %d and %d, want 1 and 3", cap(grown), cap(compacted))
	}
	// {0} admits an incomparable plan, outgrowing its window; {1} admits
	// one that evicts its last two plans in place.
	insert(c, r0, plan.Pipelined, 1, 8, 2)
	insert(c, r1, plan.Pipelined, 1, 4, 4)
	if grown[0] != nil {
		t.Errorf("the outgrown window still holds %v", grown[0].Cost)
	}
	if got := costsOf(b1.plans); len(got) != 2 || compacted[1] != b1.plans[1] || compacted[2] != nil {
		t.Errorf("compacted window holds %v, bucket %v", costsOf(compacted[:2]), got)
	}
}
