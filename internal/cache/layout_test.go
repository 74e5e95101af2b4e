package cache

import (
	"testing"
	"unsafe"

	"rmq/internal/cost"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// TestBucketHeaderSize pins the bucket header: a store or pooled cache
// holds one per table set, and serve-warm sets average under five
// plans, so the header is a large share of the cache's memory. Each
// output class's costs take one block header.
func TestBucketHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Bucket{}); got > 192 {
		t.Errorf("unsafe.Sizeof(Bucket{}) = %d bytes, want ≤ 192", got)
	}
	t.Logf("Bucket %d B, sharedBucket %d B, bytesPerSet %d B", unsafe.Sizeof(Bucket{}), unsafe.Sizeof(sharedBucket{}), bytesPerSet)
}

// TestBytesPerPlanChargesSizeClass pins that Shared.Bytes charges a
// plan node its allocation, not its struct size: the node must fall in
// planAllocBytes' size class (above the 80-byte class below it), or
// the estimate drifts from what the heap pays.
func TestBytesPerPlanChargesSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(plan.Plan{}); got <= 80 || got > planAllocBytes {
		t.Errorf("unsafe.Sizeof(plan.Plan{}) = %d bytes, outside the (80, %d] size class Shared.Bytes charges", got, planAllocBytes)
	}
}

// antichainPlans returns n plans over the set with id, spread
// round-robin over the first classes output classes, whose costs
// form an antichain of dimension dim ≥ 2: the first two metrics trade
// off, so inserting them in order at α = 1 admits every plan and
// evicts none.
func antichainPlans(set tableset.Set, id tableset.ID, n, dim, classes int) []*plan.Plan {
	plans := make([]*plan.Plan, n)
	for i := range plans {
		comps := make([]float64, dim)
		comps[0], comps[1] = float64(1+i), float64(1+n-i)
		for d := 2; d < dim; d++ {
			comps[d] = float64(1 + (i*7+d)%5)
		}
		plans[i] = &plan.Plan{Rel: set, RelID: id, Cost: cost.New(comps...), Output: plan.OutputProp(i % classes)}
	}
	return plans
}

// TestBucketFillAllocsIndependentOfDim fills one output class of a
// fresh bucket to n plans and checks the fill allocates as often at
// every dimension: a class's costs grow as one block, not one column
// per metric. A one-metric class holds a single plan (its costs are
// totally ordered), so dimension 1 is pinned at the block level by
// cost's TestColumnsGrowthAllocsIndependentOfDim.
func TestBucketFillAllocsIndependentOfDim(t *testing.T) {
	in := tableset.NewInterner()
	id := in.Intern(rel)
	for _, n := range []int{1, 2, 3, 5, 17, 100} {
		fill := func(dim int) float64 {
			plans := antichainPlans(rel, id, n, dim, 1)
			return testing.AllocsPerRun(20, func() {
				c := New(in)
				for _, p := range plans {
					if !c.Insert(p, 1) {
						t.Fatalf("antichain plan %v rejected", p.Cost)
					}
				}
			})
		}
		want := fill(2)
		for dim := 3; dim <= cost.MaxMetrics; dim++ {
			if got := fill(dim); got != want {
				t.Errorf("n=%d: filling a class costs %v allocations at dim %d, %v at dim 2", n, got, dim, want)
			}
		}
	}
}
