package cache

import (
	"math"
	"math/rand/v2"
	"testing"

	"rmq/internal/cost"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// checkMirrors verifies the struct-of-arrays invariant of a bucket: each
// output class's cost columns hold exactly the costs of that class's
// subsequence of the admission-ordered frontier, entry for entry.
func checkMirrors(t *testing.T, b *Bucket) {
	t.Helper()
	var seen [plan.NumOutputProps]int
	for i, p := range b.plans {
		cols := &b.cols[p.Output]
		j := seen[p.Output]
		if j >= cols.Len() || cols.At(j) != p.Cost {
			t.Fatalf("plan %d (out %d): class columns diverge at class slot %d", i, p.Output, j)
		}
		seen[p.Output]++
	}
	for out := range b.cols {
		if n := b.cols[out].Len(); n != seen[out] {
			t.Fatalf("class %d columns hold %d entries, frontier has %d", out, n, seen[out])
		}
	}
}

// TestBucketMirrorConsistency streams random admissions (with the
// evictions they trigger) through buckets across every dimension and
// the α extremes, re-verifying the full mirror invariants throughout,
// then again after a shed pass.
func TestBucketMirrorConsistency(t *testing.T) {
	for dim := 1; dim <= cost.MaxMetrics; dim++ {
		for _, alpha := range []float64{1, 2, 25} {
			rng := rand.New(rand.NewPCG(uint64(dim)*31+uint64(alpha), 8))
			c := New(tableset.NewInterner())
			b := c.Bucket(rel)
			for i := 0; i < 300; i++ {
				vec := randVec(rng, dim)
				b.Insert(mkPlan(rel, plan.OutputProp(rng.IntN(2)), vec.V[:dim]...), alpha)
				if i%16 == 0 {
					checkMirrors(t, b)
				}
			}
			checkMirrors(t, b)
			before := len(b.plans)
			removed := b.shed(alpha * 2)
			if got := len(b.plans); got != before-removed {
				t.Fatalf("shed removed %d of %d but %d remain", removed, before, got)
			}
			checkMirrors(t, b)
			// The shed bucket keeps admitting correctly against the rebuilt
			// mirrors.
			for i := 0; i < 50; i++ {
				vec := randVec(rng, dim)
				np := mkPlan(rel, plan.OutputProp(rng.IntN(2)), vec.V[:dim]...)
				want := WouldAdmit(b.plans, np.Cost, np.Output, alpha)
				if got := b.Admits(np.Cost, np.Output, alpha); got != want {
					t.Fatalf("post-shed Admits=%v, reference=%v", got, want)
				}
				b.Insert(np, alpha)
			}
			checkMirrors(t, b)
		}
	}
}

// TestImportBucketRebuildsMirrors round-trips a populated store through
// Export/ImportBucket and verifies the restored buckets carry fully
// rebuilt column mirrors that answer admission probes identically to
// the WouldAdmit reference.
func TestImportBucketRebuildsMirrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 4))
	src := NewShared(tableset.NewInterner(), 0)
	c := New(src.Interner())
	c.TrackDirty()
	sync := src.NewSync()
	rels := []tableset.Set{
		tableset.Single(0),
		tableset.FromSlice([]int{0, 1}),
		tableset.FromSlice([]int{0, 1, 2}),
	}
	for i := 0; i < 200; i++ {
		rel := rels[rng.IntN(len(rels))]
		vec := randVec(rng, 3)
		p := mkPlan(rel, plan.OutputProp(rng.IntN(2)), vec.V[:3]...)
		p.RelID = src.Interner().Intern(rel)
		c.Insert(p, 1.5)
	}
	sync.Publish(c)

	dst := NewShared(tableset.NewInterner(), 0)
	var snaps []BucketSnapshot
	if _, _, err := src.Export(0, func(bs BucketSnapshot) error {
		snaps = append(snaps, bs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, bs := range snaps {
		// Re-home the plans the way the snapshot codec does: RelID must
		// match the destination interner.
		id := dst.Interner().Intern(bs.Set)
		for _, p := range bs.Plans {
			p.RelID = id
		}
		if err := dst.ImportBucket(bs); err != nil {
			t.Fatal(err)
		}
	}
	restored := 0
	for _, sb := range storeBuckets(dst) {
		if len(sb.b.plans) == 0 {
			continue
		}
		restored++
		checkMirrors(t, &sb.b)
		for i := 0; i < 100; i++ {
			vec := randVec(rng, 3)
			out := plan.OutputProp(rng.IntN(2))
			for _, alpha := range []float64{1, 2, 25, math.Inf(1)} {
				want := WouldAdmit(sb.b.plans, vec, out, alpha)
				if got := sb.b.Admits(vec, out, alpha); got != want {
					t.Fatalf("restored bucket: Admits=%v, reference=%v (α=%g)", got, want, alpha)
				}
			}
		}
	}
	if restored != len(rels) {
		t.Fatalf("restored %d buckets, want %d", restored, len(rels))
	}
}
