package cache

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rmq/internal/cost"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// mkPlan builds a minimal plan with the given cost and output for
// pruning tests (structure does not matter here).
func mkPlan(rel tableset.Set, out plan.OutputProp, costs ...float64) *plan.Plan {
	return &plan.Plan{Rel: rel, Cost: cost.New(costs...), Output: out}
}

var rel = tableset.FromSlice([]int{0, 1})

// better is the plan comparison of Algorithm 2: p1 is better than p2 if
// it produces the same output data representation and its cost strictly
// dominates. The tests use it to check that a frontier is an antichain.
func better(p1, p2 *plan.Plan) bool {
	return plan.SameOutput(p1, p2) && p1.Cost.StrictlyDominates(p2.Cost)
}

func TestBetterRequiresSameOutput(t *testing.T) {
	a := mkPlan(rel, plan.Pipelined, 1, 1)
	b := mkPlan(rel, plan.Materialized, 2, 2)
	if better(a, b) {
		t.Error("plans with different outputs compared")
	}
	c := mkPlan(rel, plan.Materialized, 1, 1)
	if !better(c, b) {
		t.Error("same-output dominating plan not better")
	}
	if better(b, c) {
		t.Error("dominated plan reported better")
	}
}

func TestBetterRequiresStrictDominance(t *testing.T) {
	a := mkPlan(rel, plan.Pipelined, 1, 1)
	b := mkPlan(rel, plan.Pipelined, 1, 1)
	if better(a, b) || better(b, a) {
		t.Error("equal plans reported better")
	}
}

func TestSigBetterUsesAlpha(t *testing.T) {
	a := mkPlan(rel, plan.Pipelined, 10, 10)
	b := mkPlan(rel, plan.Pipelined, 6, 6)
	if SigBetter(a, b, 1) {
		t.Error("α=1 should be weak dominance")
	}
	if !SigBetter(a, b, 2) {
		t.Error("α=2 should approximate")
	}
	if SigBetter(a, mkPlan(rel, plan.Materialized, 6, 6), 100) {
		t.Error("different output formats compared")
	}
}

func TestPruneApproxAdmission(t *testing.T) {
	var set []*plan.Plan
	var admitted bool
	set, admitted = PruneApprox(set, mkPlan(rel, plan.Pipelined, 10, 10), 2)
	if !admitted || len(set) != 1 {
		t.Fatal("first plan rejected")
	}
	// 12,12 is approximately dominated by 10,10 under α=2: rejected.
	set, admitted = PruneApprox(set, mkPlan(rel, plan.Pipelined, 12, 12), 2)
	if admitted || len(set) != 1 {
		t.Fatal("approximately dominated plan admitted")
	}
	// 30,1 is not approximately dominated (10 > 2·1 in metric 1): admitted.
	set, admitted = PruneApprox(set, mkPlan(rel, plan.Pipelined, 30, 1), 2)
	if !admitted || len(set) != 2 {
		t.Fatal("non-dominated tradeoff rejected")
	}
}

func TestPruneApproxEvictsWeaklyDominated(t *testing.T) {
	var set []*plan.Plan
	set, _ = PruneApprox(set, mkPlan(rel, plan.Pipelined, 10, 10), 1)
	set, _ = PruneApprox(set, mkPlan(rel, plan.Pipelined, 5, 5), 1)
	if len(set) != 1 || set[0].Cost.At(0) != 5 {
		t.Fatalf("eviction failed: %v", set)
	}
	// Equal-cost plan: rejected (weak dominance admission).
	set, admitted := PruneApprox(set, mkPlan(rel, plan.Pipelined, 5, 5), 1)
	if admitted || len(set) != 1 {
		t.Fatal("duplicate cost vector admitted")
	}
}

func TestPruneApproxInfinityKeepsOnePerFormat(t *testing.T) {
	var set []*plan.Plan
	inf := math.Inf(1)
	set, _ = PruneApprox(set, mkPlan(rel, plan.Pipelined, 10, 10), inf)
	set, admitted := PruneApprox(set, mkPlan(rel, plan.Pipelined, 1, 1), inf)
	if admitted || len(set) != 1 {
		t.Fatal("α=∞ should keep the first plan per format")
	}
	set, admitted = PruneApprox(set, mkPlan(rel, plan.Materialized, 1, 1), inf)
	if !admitted || len(set) != 2 {
		t.Fatal("other format rejected under α=∞")
	}
}

func TestWouldAdmitMatchesPruneApprox(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 42))
	var set []*plan.Plan
	for i := 0; i < 200; i++ {
		out := plan.Pipelined
		if rng.IntN(2) == 0 {
			out = plan.Materialized
		}
		np := mkPlan(rel, out, math.Exp(rng.Float64()*6), math.Exp(rng.Float64()*6))
		alpha := 1 + rng.Float64()*3
		predicted := WouldAdmit(set, np.Cost, np.Output, alpha)
		var admitted bool
		set, admitted = PruneApprox(set, np, alpha)
		if predicted != admitted {
			t.Fatalf("WouldAdmit=%v but PruneApprox admitted=%v", predicted, admitted)
		}
	}
}

func TestCacheBasics(t *testing.T) {
	c := New(tableset.NewInterner())
	if c.NumSets() != 0 || c.NumPlans() != 0 {
		t.Fatal("new cache not empty")
	}
	if got := c.Get(rel); got != nil {
		t.Fatal("Get on empty cache")
	}
	if !insert(c, rel, plan.Pipelined, 2, 1, 1) {
		t.Fatal("insert rejected")
	}
	if c.NumSets() != 1 || c.NumPlans() != 1 {
		t.Fatalf("sets=%d plans=%d", c.NumSets(), c.NumPlans())
	}
	if got := c.Get(rel); len(got) != 1 || got[0].Cost != cost.New(1, 1) {
		t.Fatalf("Get = %v", got)
	}
}

func TestCachePlanCountTracksEviction(t *testing.T) {
	c := New(tableset.NewInterner())
	other := tableset.FromSlice([]int{2, 3})
	insert(c, rel, plan.Pipelined, 1, 10, 1)
	insert(c, rel, plan.Pipelined, 1, 1, 10)
	insert(c, other, plan.Pipelined, 1, 5, 5)
	if c.NumPlans() != 3 {
		t.Fatalf("plans = %d, want 3", c.NumPlans())
	}
	// Dominates both plans of rel: net count 1 + 1 (other set).
	insert(c, rel, plan.Pipelined, 1, 0.5, 0.5)
	if c.NumPlans() != 2 {
		t.Fatalf("plans = %d, want 2 after eviction", c.NumPlans())
	}
	if c.NumSets() != 2 {
		t.Fatalf("sets = %d", c.NumSets())
	}
}

func TestBucketSharedWithCache(t *testing.T) {
	c := New(tableset.NewInterner())
	b := c.Bucket(rel)
	b.Insert(mkPlan(rel, plan.Pipelined, 1, 1), 1)
	if got := c.Get(rel); len(got) != 1 {
		t.Fatal("bucket insert not visible through cache")
	}
	if c.NumPlans() != 1 {
		t.Fatalf("NumPlans = %d", c.NumPlans())
	}
	if !b.Admits(cost.New(0.5, 0.5), plan.Pipelined, 1) {
		t.Error("dominating vector not admitted")
	}
	if b.Admits(cost.New(2, 2), plan.Pipelined, 1) {
		t.Error("dominated vector admitted")
	}
}

// TestQuickPruneApproxInvariants: after any insertion sequence, (a) no
// plan in the set approximately dominates another same-output plan under
// α=1 (they are mutually non-dominated per format), and (b) every
// rejected plan was approximately dominated at rejection time.
func TestQuickPruneApproxInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 55))
		alpha := 1 + rng.Float64()*4
		var set []*plan.Plan
		for i := 0; i < 60; i++ {
			out := plan.OutputProp(rng.IntN(2))
			np := mkPlan(rel, out, math.Exp(rng.Float64()*8), math.Exp(rng.Float64()*8), math.Exp(rng.Float64()*8))
			set, _ = PruneApprox(set, np, alpha)
		}
		for i, a := range set {
			for j, b := range set {
				if i != j && SigBetter(a, b, 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCacheProbeAllocFree asserts the steady-state cache probes of the
// frontier-approximation inner loop — id-indexed frontier reads, bucket
// lookups and failed admission tests — allocate nothing.
func TestCacheProbeAllocFree(t *testing.T) {
	in := tableset.NewInterner()
	c := New(in)
	p := mkPlan(rel, plan.Pipelined, 1, 1)
	p.RelID = in.Intern(p.Rel)
	c.Insert(p, 1)
	b := c.Bucket(rel)
	allocs := testing.AllocsPerRun(200, func() {
		if c.Get(rel) == nil || c.GetID(p.RelID) == nil {
			t.Fatal("probe lost the cached plan")
		}
		if c.BucketFor(p) != b {
			t.Fatal("bucket moved")
		}
		if b.Admits(cost.New(2, 2), plan.Pipelined, 1) {
			t.Fatal("dominated vector admitted")
		}
	})
	if allocs != 0 {
		t.Errorf("cache probe allocates: %v allocs/run, want 0", allocs)
	}
}
