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

// randVec draws a cost vector with log-scaled components, salted with
// exact duplicates and zeros so the differential tests exercise ties
// and zero components in the admission and eviction sweeps.
func randVec(rng *rand.Rand, dim int) cost.Vector {
	comps := make([]float64, dim)
	for i := range comps {
		switch rng.IntN(10) {
		case 0:
			comps[i] = 0 // pipelined plans have exactly zero disc cost
		case 1:
			comps[i] = 100 // frequent exact collisions
		default:
			comps[i] = math.Exp(rng.Float64() * 12)
		}
	}
	return cost.New(comps...)
}

// runDifferential streams n random plans through a bucket and the
// PruneApprox reference loop side by side, checking every admission
// decision and the full surviving frontier (same plans, same order)
// after every insertion. alphaFor picks the precision per step.
func runDifferential(t *testing.T, seed uint64, n, dim int, alphaFor func(rng *rand.Rand) float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 77))
	c := New(tableset.NewInterner())
	b := c.Bucket(rel)
	var ref []*plan.Plan
	for i := 0; i < n; i++ {
		alpha := alphaFor(rng)
		vec := randVec(rng, dim)
		np := mkPlan(rel, plan.OutputProp(rng.IntN(2)), vec.V[:dim]...)
		// Probe first: Admits must predict the insertion outcome.
		probe := b.Admits(np.Cost, np.Output, alpha)
		want := WouldAdmit(ref, np.Cost, np.Output, alpha)
		if probe != want {
			t.Fatalf("step %d (dim=%d α=%g): Admits=%v, reference WouldAdmit=%v", i, dim, alpha, probe, want)
		}
		var admitted bool
		ref, admitted = PruneApprox(ref, np, alpha)
		got := b.Insert(np, alpha)
		if got != admitted {
			t.Fatalf("step %d (dim=%d α=%g): Insert=%v, reference PruneApprox=%v", i, dim, alpha, got, admitted)
		}
		if len(b.Plans()) != len(ref) {
			t.Fatalf("step %d: frontier sizes diverged: %d vs %d", i, len(b.Plans()), len(ref))
		}
		for j, p := range b.Plans() {
			if p != ref[j] {
				t.Fatalf("step %d: frontier order diverged at %d: %v vs %v", i, j, p.Cost, ref[j].Cost)
			}
		}
	}
	if c.NumPlans() != len(ref) {
		t.Fatalf("NumPlans = %d, want %d", c.NumPlans(), len(ref))
	}
}

// TestIndexedBucketMatchesReference is the differential test of the
// columnar bucket: random plan streams pruned through the bucket must
// reproduce the PruneApprox reference loop exactly — identical
// admission decisions and identical surviving frontiers — across the α
// schedule's extremes and every supported metric count.
func TestIndexedBucketMatchesReference(t *testing.T) {
	for _, alpha := range []float64{1, 2, 25} {
		for dim := 1; dim <= cost.MaxMetrics; dim++ {
			runDifferential(t, uint64(dim)*1000+uint64(alpha), 400, dim,
				func(*rand.Rand) float64 { return alpha })
		}
	}
}

// TestIndexedBucketMatchesReferenceVaryingAlpha repeats the
// differential test with a per-insert random α (including α = +Inf) —
// the bucket may not depend on a stable precision.
func TestIndexedBucketMatchesReferenceVaryingAlpha(t *testing.T) {
	alphas := []float64{1, 1.1, 2, 5, 25, math.Inf(1)}
	for dim := 1; dim <= cost.MaxMetrics; dim++ {
		runDifferential(t, uint64(dim), 300, dim,
			func(rng *rand.Rand) float64 { return alphas[rng.IntN(len(alphas))] })
	}
}

// TestQuickIndexedBucketMatchesReference drives the differential
// property from random seeds.
func TestQuickIndexedBucketMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		alpha := 1 + rng.Float64()*10
		dim := 1 + int(seed%uint64(cost.MaxMetrics))
		runDifferential(t, seed, 120, dim, func(*rand.Rand) float64 { return alpha })
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBucketEpochAndSince(t *testing.T) {
	c := New(tableset.NewInterner())
	b := c.Bucket(rel)
	if b.Epoch() != 0 || len(b.Since(0)) != 0 {
		t.Fatal("fresh bucket not at mark 0")
	}
	p1 := mkPlan(rel, plan.Pipelined, 10, 1)
	p2 := mkPlan(rel, plan.Pipelined, 1, 10)
	b.Insert(p1, 1)
	mark := b.Epoch()
	if mark != 1 {
		t.Fatalf("epoch = %d after one admission", mark)
	}
	b.Insert(p2, 1)
	if got := b.Since(mark); len(got) != 1 || got[0] != p2 {
		t.Fatalf("Since(%d) = %v", mark, got)
	}
	if got := b.Since(0); len(got) != 2 {
		t.Fatalf("Since(0) = %d plans, want 2", len(got))
	}
	// An eviction removes the old plan but keeps the epoch monotone: the
	// dominating newcomer is the only plan after the old mark.
	p3 := mkPlan(rel, plan.Pipelined, 0.5, 0.5)
	b.Insert(p3, 1)
	if b.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3 (evictions never decrease it)", b.Epoch())
	}
	if got := b.Since(mark); len(got) != 1 || got[0] != p3 {
		t.Fatalf("Since(%d) after eviction = %v", mark, got)
	}
	if got := b.Since(b.Epoch()); len(got) != 0 {
		t.Fatalf("Since(current) = %v, want empty", got)
	}
}

// TestBucketTableGrowth covers the geometric bucket-table growth: plans
// inserted before a growth burst must stay retrievable, countable and
// prunable afterwards.
func TestBucketTableGrowth(t *testing.T) {
	in := tableset.NewInterner()
	c := New(in)
	early := tableset.Single(0)
	earlyPlan := mkPlan(early, plan.Pipelined, 5, 5)
	earlyPlan.RelID = in.Intern(early)
	c.Insert(earlyPlan, 1)
	earlyBucket := c.BucketFor(earlyPlan)

	// Force several growth rounds by interning a long stream of sets.
	for i := 1; i < 600; i++ {
		rel := tableset.FromSlice([]int{i % 64, (i + 7) % 64, 64 + i%60})
		p := mkPlan(rel, plan.Pipelined, float64(i), float64(600-i))
		p.RelID = in.Intern(rel)
		c.Insert(p, 1)
	}

	if got := c.BucketFor(earlyPlan); got != earlyBucket {
		t.Fatal("growth moved an existing bucket")
	}
	if got := c.Get(early); len(got) != 1 || got[0] != earlyPlan {
		t.Fatalf("early plan lost after growth: %v", got)
	}
	// The early id-addressed bucket still prunes correctly after growth.
	if !insert(c, early, plan.Pipelined, 1, 1, 1) {
		t.Fatal("dominating insert rejected after growth")
	}
	if got := c.Get(early); len(got) != 1 || got[0].Cost.At(0) != 1 {
		t.Fatalf("post-growth eviction failed: %v", got)
	}
}
