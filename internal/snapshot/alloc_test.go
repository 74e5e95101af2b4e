package snapshot_test

import (
	"testing"

	"rmq/internal/cache"
	"rmq/internal/catalog"
	"rmq/internal/costmodel"
	"rmq/internal/plan"
	"rmq/internal/snapshot"
)

// decodeShape counts what a restore of sh must allocate one of each:
// plan nodes (every distinct node reachable from a bucket) and cost-
// column blocks (one per non-empty output class of each bucket). It
// also returns the number of buckets.
func decodeShape(tb testing.TB, sh *cache.Shared) (buckets, nodes, blocks int) {
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
		var classes [plan.NumOutputProps]bool
		for _, p := range bs.Plans {
			classes[p.Output] = true
			walk(p)
		}
		for _, c := range classes {
			if c {
				blocks++
			}
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return buckets, len(seen), blocks
}

// TestDecodeAllocsPerBucket restores a small and a large store and
// checks that, beyond one allocation per plan node and per cost-column
// block, Decode's allocations do not grow with the number of buckets:
// the bucket slabs, tables and interner grow geometrically, so the
// remainder may rise by a few allocations, never by one per bucket.
func TestDecodeAllocsPerBucket(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations per bucket")
	}
	two := []costmodel.Metric{costmodel.Time, costmodel.Buffer}
	residual := func(tables, iters int) (buckets int, rest float64) {
		sh, _ := runStore(t, tables, catalog.Chain, two, 1, 1, iters)
		buckets, nodes, blocks := decodeShape(t, sh)
		data := encode(t, snapshot.TaggedStore{Tag: "s", Store: sh})
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := snapshot.Decode(data, openFresh(map[string]*cache.Shared{})); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d tables: %d buckets, %d nodes, %d column blocks, %.0f allocations", tables, buckets, nodes, blocks, allocs)
		return buckets, allocs - float64(nodes+blocks)
	}
	smallB, smallRest := residual(8, 40)
	largeB, largeRest := residual(16, 250)
	if largeB < smallB+500 {
		t.Fatalf("stores too close in size to tell: %d vs %d buckets", smallB, largeB)
	}
	if grew := largeRest - smallRest; grew > float64(largeB-smallB)/16 {
		t.Errorf("Decode allocates %.0f more beyond nodes and column blocks for %d more buckets; want no per-bucket allocation",
			grew, largeB-smallB)
	}
}
