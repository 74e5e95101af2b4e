package snapshot_test

import (
	"testing"

	"rmq/internal/cache"
	"rmq/internal/catalog"
	"rmq/internal/costmodel"
	"rmq/internal/plan"
	"rmq/internal/snapshot"
)

// decodeShape counts what a restore of sh must allocate one of each,
// plan nodes (every distinct node reachable from a bucket), and the
// buckets.
func decodeShape(tb testing.TB, sh *cache.Shared) (buckets, nodes int) {
	tb.Helper()
	seen := make(map[*plan.Plan]bool)
	var walk func(p *plan.Plan)
	walk = func(p *plan.Plan) {
		if seen[p] {
			return
		}
		seen[p] = true
		if p.IsJoin() {
			walk(p.Outer)
			walk(p.Inner)
		}
	}
	if _, _, err := sh.Export(0, func(bs cache.BucketSnapshot) error {
		buckets++
		for _, p := range bs.Plans {
			walk(p)
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return buckets, len(seen)
}

// TestDecodeAllocsPerBucket restores a small and a large store and
// checks that, beyond one allocation per plan node, Decode's
// allocations do not grow with the number of buckets: the bucket
// chunks, the class cost-block chunks, tables and interner grow
// geometrically, so the remainder may rise by a few allocations, never
// by one per bucket.
func TestDecodeAllocsPerBucket(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations per bucket")
	}
	two := []costmodel.Metric{costmodel.Time, costmodel.Buffer}
	residual := func(tables, iters int) (buckets int, rest float64) {
		sh, _ := runStore(t, tables, catalog.Chain, two, 1, 1, iters)
		buckets, nodes := decodeShape(t, sh)
		data := encode(t, snapshot.TaggedStore{Tag: "s", Store: sh})
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := snapshot.Decode(data, openFresh(map[string]*cache.Shared{})); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d tables: %d buckets, %d nodes, %.0f allocations", tables, buckets, nodes, allocs)
		return buckets, allocs - float64(nodes)
	}
	smallB, smallRest := residual(8, 40)
	largeB, largeRest := residual(16, 250)
	if largeB < smallB+500 {
		t.Fatalf("stores too close in size to tell: %d vs %d buckets", smallB, largeB)
	}
	if grew := largeRest - smallRest; grew > float64(largeB-smallB)/16 {
		t.Errorf("Decode allocates %.0f more beyond plan nodes for %d more buckets; want no per-bucket allocation",
			grew, largeB-smallB)
	}
}

// TestWarmStartAllocsPerBucket restores a small and a large store and
// checks that a fresh handle's first Pull, the warm start that adopts
// every bucket of the store into a new private cache, does not allocate
// per bucket: the private buckets, their plan and epoch arrays and
// their class cost blocks are all carved from chunks.
func TestWarmStartAllocsPerBucket(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations per bucket")
	}
	two := []costmodel.Metric{costmodel.Time, costmodel.Buffer}
	warmStart := func(tables, iters int) (buckets int, allocs float64) {
		src, _ := runStore(t, tables, catalog.Chain, two, 1, 1, iters)
		stores := map[string]*cache.Shared{}
		if _, err := snapshot.Decode(encode(t, snapshot.TaggedStore{Tag: "s", Store: src}), openFresh(stores)); err != nil {
			t.Fatal(err)
		}
		sh := stores["s"]
		buckets, _ = decodeShape(t, sh)
		_, plans := sh.Stats()
		allocs = testing.AllocsPerRun(3, func() {
			c := cache.New(sh.Interner())
			c.TrackDirty()
			if got := sh.NewSync().Pull(c); got != plans {
				t.Fatalf("warm start imported %d of %d plans", got, plans)
			}
		})
		t.Logf("%d tables: %d buckets, %d plans, %.0f allocations", tables, buckets, plans, allocs)
		return buckets, allocs
	}
	smallB, smallA := warmStart(8, 40)
	largeB, largeA := warmStart(16, 250)
	if largeB < smallB+500 {
		t.Fatalf("stores too close in size to tell: %d vs %d buckets", smallB, largeB)
	}
	if grew := largeA - smallA; grew > float64(largeB-smallB)/16 {
		t.Errorf("the warm start allocates %.0f more for %d more buckets; want no per-bucket allocation",
			grew, largeB-smallB)
	}
}
