package cache

import (
	"math/rand/v2"
	"testing"

	"rmq/internal/cost"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// benchBucket populates an exact-retention bucket with a dense frontier
// of n plans (two output classes, realistic tie-heavy vectors) and
// returns it with a probe stream drawn from the same distribution.
func benchBucket(n, dim int) (*Bucket, []cost.Vector) {
	rng := rand.New(rand.NewPCG(uint64(n)*uint64(dim), 41))
	c := New(tableset.NewInterner())
	b := c.Bucket(rel)
	for i := 0; i < n; i++ {
		vec := randVec(rng, dim)
		b.Insert(mkPlan(rel, plan.OutputProp(rng.IntN(2)), vec.V[:dim]...), 1)
	}
	probes := make([]cost.Vector, 128)
	for i := range probes {
		probes[i] = randVec(rng, dim)
	}
	return b, probes
}

// BenchmarkAdmissionProbe measures one α-admission probe against a
// 256-plan frontier — the dominant operation of recombination — through
// the columnar bucket path: one batch sweep over the probe's output
// class. The reference arm runs the per-plan scan (WouldAdmit) over the
// same frontier and probes.
func BenchmarkAdmissionProbe(b *testing.B) {
	b.Run("3d", func(b *testing.B) {
		bk, probes := benchBucket(256, 3)
		b.ReportAllocs()
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			if bk.Admits(probes[i%len(probes)], plan.OutputProp(i%2), 1) {
				hits++
			}
		}
		benchSink = hits
	})
}

// BenchmarkAdmissionProbeReference is the AoS arm of
// BenchmarkAdmissionProbe: the per-plan reference scan over the
// identical frontier and probe stream.
func BenchmarkAdmissionProbeReference(b *testing.B) {
	b.Run("3d", func(b *testing.B) {
		bk, probes := benchBucket(256, 3)
		plans := bk.Plans()
		b.ReportAllocs()
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			if WouldAdmit(plans, probes[i%len(probes)], plan.OutputProp(i%2), 1) {
				hits++
			}
		}
		benchSink = hits
	})
}

// BenchmarkBucketFill fills the 256 buckets of a fresh cache with
// Lemma-6-sized frontiers (1–8 plans over two output classes, 4.5 on
// average, near serve-warm's 4.6 plans per set) and reports what one
// whole fill allocates: bucket chunks, plan and epoch arrays, and each
// class's cost-column block.
func BenchmarkBucketFill(b *testing.B) {
	const sets = 256
	for _, bc := range []struct {
		name string
		dim  int
	}{{"2d", 2}, {"3d", 3}} {
		b.Run(bc.name, func(b *testing.B) {
			in := tableset.NewInterner()
			frontiers := make([][]*plan.Plan, sets)
			for i := range frontiers {
				set := tableset.FromWords(uint64(i+1), 0)
				frontiers[i] = antichainPlans(set, in.Intern(set), 1+i%8, bc.dim, 2)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := New(in)
				for _, f := range frontiers {
					for _, p := range f {
						c.Insert(p, 1)
					}
				}
				benchSink = c.NumPlans()
			}
		})
	}
}

// BenchmarkSyncPull measures one round of a parallel run's sync on a
// warm store of 20k buckets: one handle publishes a plan into one
// bucket, and the other handle's Pull finds and imports it. The pull
// scans every bucket's epoch mirror to find the changed one, so the op
// is dominated by what that scan touches per unchanged bucket.
func BenchmarkSyncPull(b *testing.B) {
	const sets = 20000
	sh, caches, syncs := sharedFixture(b, 2, 1)
	pub, sub := caches[0], caches[1]
	for i := 0; i < sets; i++ {
		insert(pub, tableset.FromWords(uint64(i+1), 0), plan.Pipelined, 1, 1e9, 1e9)
	}
	syncs[0].Publish(pub)
	if got := syncs[1].Pull(sub); got != sets {
		b.Fatalf("warm start imported %d plans, want %d", got, sets)
	}
	// Each op's plan strictly dominates the one before it, so every
	// publish and every pull admits one plan and evicts one.
	rel := tableset.FromWords(sets/2, 0)
	id := sh.Interner().Intern(rel)
	plans := make([]*plan.Plan, b.N)
	for i := range plans {
		plans[i] = &plan.Plan{Rel: rel, RelID: id, Cost: cost.New(float64(b.N-i), 1), Output: plan.Pipelined}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, p := range plans {
		pub.Insert(p, 1)
		syncs[0].Publish(pub)
		if syncs[1].Pull(sub) != 1 {
			b.Fatal("the pull missed the published plan")
		}
	}
	b.ReportMetric(sets, "buckets")
}

var benchSink int
