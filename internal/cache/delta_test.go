package cache

import (
	"math/rand/v2"
	"sync"
	"testing"

	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// collectDelta drains an Export since a cursor into a slice.
func collectDelta(t *testing.T, sh *Shared, since uint64) (uint64, []BucketSnapshot) {
	t.Helper()
	var out []BucketSnapshot
	_, cursor, err := sh.Export(since, func(bs BucketSnapshot) error {
		out = append(out, bs)
		return nil
	})
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	return cursor, out
}

// TestExportSinceCursorIncremental pins the cursor contract: a pull at the
// returned cursor ships only buckets changed afterwards, and an
// unchanged store ships nothing.
func TestExportSinceCursorIncremental(t *testing.T) {
	sh, caches, syncs := sharedFixture(t, 1, 1)
	c, st := caches[0], syncs[0]
	relA := tableset.FromSlice([]int{0, 1})
	relB := tableset.FromSlice([]int{1, 2})
	insert(c, relA, plan.Pipelined, 1, 4, 1)
	insert(c, relB, plan.Pipelined, 1, 2, 2)
	st.Publish(c)

	cursor, got := collectDelta(t, sh, 0)
	if len(got) != 2 {
		t.Fatalf("initial delta shipped %d buckets, want 2", len(got))
	}
	if _, again := collectDelta(t, sh, cursor); len(again) != 0 {
		t.Fatalf("unchanged store shipped %d buckets", len(again))
	}

	// One more admission into relA: the next delta ships exactly relA's
	// bucket — with its whole frontier, not just the new plan.
	insert(c, relA, plan.Pipelined, 1, 1, 4)
	st.Publish(c)
	cursor2, got2 := collectDelta(t, sh, cursor)
	if len(got2) != 1 || got2[0].Set != relA {
		t.Fatalf("incremental delta = %+v, want just %v", got2, relA)
	}
	if len(got2[0].Plans) != 2 {
		t.Fatalf("changed bucket shipped %d plans, want full frontier of 2", len(got2[0].Plans))
	}
	if cursor2 <= cursor {
		t.Fatalf("cursor did not advance: %d then %d", cursor, cursor2)
	}
}

// TestMergeBucketIntoWarmStore pins the replica apply path: merging into
// a populated bucket admits only what the frontier doesn't already hold,
// is idempotent, and keeps dominance intact.
func TestMergeBucketIntoWarmStore(t *testing.T) {
	primary, pcaches, psyncs := sharedFixture(t, 1, 1)
	replica, rcaches, rsyncs := sharedFixture(t, 1, 1)
	rel := tableset.FromSlice([]int{0, 1})

	insert(pcaches[0], rel, plan.Pipelined, 1, 4, 1)
	insert(pcaches[0], rel, plan.Pipelined, 1, 1, 4)
	psyncs[0].Publish(pcaches[0])
	// The replica already found one of the two trade-offs itself.
	insert(rcaches[0], rel, plan.Pipelined, 1, 4, 1)
	rsyncs[0].Publish(rcaches[0])

	_, delta := collectDelta(t, primary, 0)
	if len(delta) != 1 {
		t.Fatalf("delta shipped %d buckets, want 1", len(delta))
	}
	// Rebuild the shipped plans against the replica's interner, the way
	// the wire decoder does.
	merge := remap(replica, delta[0])
	admitted, err := replica.MergeBucket(merge)
	if err != nil {
		t.Fatalf("MergeBucket: %v", err)
	}
	if admitted != 1 {
		t.Fatalf("merge admitted %d plans, want 1 (the missing trade-off)", admitted)
	}
	if admitted, err = replica.MergeBucket(merge); err != nil || admitted != 0 {
		t.Fatalf("replayed merge admitted %d plans, err %v; want 0, nil", admitted, err)
	}
	if _, plans := replica.Stats(); plans != 2 {
		t.Fatalf("replica holds %d plans, want 2", plans)
	}

	// A local puller attached before the merge observes the merged plans.
	warm := New(replica.Interner())
	warm.TrackDirty()
	replica.NewSync().Pull(warm)
	if f := warm.Get(rel); len(f) != 2 {
		t.Fatalf("post-merge frontier %v", costsOf(f))
	}
}

// remap clones a shipped bucket's plans with the receiving store's
// interned id, mimicking the wire decoder.
func remap(sh *Shared, bs BucketSnapshot) BucketSnapshot {
	id := sh.Interner().Intern(bs.Set)
	plans := make([]*plan.Plan, len(bs.Plans))
	for i, p := range bs.Plans {
		q := *p
		q.RelID = id
		plans[i] = &q
	}
	return BucketSnapshot{Set: bs.Set, Epoch: bs.Epoch, Plans: plans, Epochs: bs.Epochs}
}

// TestMergeStateAdoptsAheadIterations pins that a replica's α schedule
// catches up to the primary's cumulative iterations but never rewinds.
func TestMergeStateAdoptsAheadIterations(t *testing.T) {
	sh, _, _ := sharedFixture(t, 1, 1)
	sh.MergeState(StoreState{Iterations: 100})
	if got := sh.Iterations(); got != 100 {
		t.Fatalf("Iterations = %d after merge of 100", got)
	}
	sh.MergeState(StoreState{Iterations: 40})
	if got := sh.Iterations(); got != 100 {
		t.Fatalf("Iterations rewound to %d by a behind peer", got)
	}
}

// TestExportSinceCursorConcurrentNoLostChanges races publishers against a
// delta puller and checks the cursor contract under contention: chasing
// deltas from cursor to cursor until the publishers stop must leave the
// puller's mirror holding every plan the store holds (run under -race).
func TestExportSinceCursorConcurrentNoLostChanges(t *testing.T) {
	const workers = 4
	const steps = 300
	sh, caches, syncs := sharedFixture(t, workers, 1)
	mirror, _, _ := sharedFixture(t, 1, 1)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 3))
			c, st := caches[w], syncs[w]
			for i := 0; i < steps; i++ {
				rel := tableset.Single(rng.IntN(10)).Add(10 + rng.IntN(7))
				insert(c, rel, plan.Pipelined, 1, 1+rng.Float64()*20, 1+rng.Float64()*20)
				st.Publish(c)
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var since uint64
	pull := func() {
		cursor, delta := collectDelta(t, sh, since)
		for _, bs := range delta {
			if _, err := mirror.MergeBucket(remap(mirror, bs)); err != nil {
				t.Errorf("MergeBucket: %v", err)
			}
		}
		since = cursor
	}
	for {
		select {
		case <-done:
			pull() // one final pull past the last publish
			pull() // and one at the final cursor: must be steady
			// Every frontier plan in the store must be in the mirror: the
			// source frontier plan, offered to the mirror, is a duplicate.
			_, _, err := sh.Export(0, func(bs BucketSnapshot) error {
				admitted, err := mirror.MergeBucket(remap(mirror, bs))
				if err == nil && admitted != 0 {
					t.Errorf("mirror missed %d plans of %v", admitted, bs.Set)
				}
				return err
			})
			if err != nil {
				t.Fatalf("final sweep: %v", err)
			}
			return
		default:
			pull()
		}
	}
}
