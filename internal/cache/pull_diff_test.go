package cache_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"rmq/internal/cache"
	"rmq/internal/catalog"
	"rmq/internal/core"
	"rmq/internal/costmodel"
	"rmq/internal/opt"
	"rmq/internal/plan"
	"rmq/internal/snapshot"
	"rmq/internal/tableset"
)

// workload is a catalog and metric subset for real optimizer runs.
type workload struct {
	cat     *catalog.Catalog
	metrics []costmodel.Metric
}

func newWorkload(tables int, graph catalog.GraphKind, metrics []costmodel.Metric) workload {
	rng := rand.New(rand.NewPCG(uint64(tables), uint64(graph)))
	return workload{catalog.Generate(catalog.GenSpec{Tables: tables, Graph: graph}, rng), metrics}
}

// run attaches one fresh RMQ run to the store, warm-starting from it,
// and steps it iters times — what one Session.Optimize worker does.
func (w workload) run(sh *cache.Shared, seed uint64, iters int) *core.RMQ {
	r := core.New(core.Config{Shared: sh})
	r.Init(opt.NewProblemWithInterner(w.cat, w.metrics, sh.Interner()), seed)
	for i := 0; i < iters; i++ {
		r.Step()
	}
	r.Frontier() // ends the run as opt.Run's final merge does: every stage B applied
	return r
}

// warmStore builds a store through runs at the given retention.
func (w workload) warmStore(retain float64, seeds ...uint64) *cache.Shared {
	sh := cache.NewShared(tableset.NewInterner(), retain)
	for _, s := range seeds {
		w.run(sh, s, 250)
	}
	return sh
}

// restore round-trips a store through the snapshot codec into a fresh
// store, as a restarted session does.
func restore(tb testing.TB, sh *cache.Shared) *cache.Shared {
	tb.Helper()
	data, err := snapshot.Encode(1, []snapshot.TaggedStore{{Tag: "\x00", Store: sh}})
	if err != nil {
		tb.Fatal(err)
	}
	var out *cache.Shared
	if _, err := snapshot.Decode(data, func(_ string, st cache.StoreState) (*cache.Shared, error) {
		out = cache.NewShared(tableset.NewInterner(), st.Retention)
		return out, nil
	}); err != nil {
		tb.Fatal(err)
	}
	return out
}

// bucketSets lists the table sets of a store's non-empty buckets.
func bucketSets(tb testing.TB, sh *cache.Shared) []tableset.Set {
	tb.Helper()
	var sets []tableset.Set
	if _, _, err := sh.Export(0, func(bs cache.BucketSnapshot) error {
		sets = append(sets, bs.Set)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return sets
}

// TestPullAdoptionMatchesReference is the differential test of the bulk
// warm start: on stores built by real runs — at retention 1 and 2, after
// Shed raised α, after a snapshot restore, and on a replica fed by
// MergeBucket — a Pull into a fresh private cache must leave every
// private bucket field, the dirty list, the counters and the sync marks
// exactly as the per-plan reference Pull does. A second round then
// mixes in what adoption must leave to the per-plan path: private
// admissions not yet published, and new plans published into buckets
// the handles already hold.
func TestPullAdoptionMatchesReference(t *testing.T) {
	two := []costmodel.Metric{costmodel.Time, costmodel.Buffer}
	chain := newWorkload(16, catalog.Chain, two)
	star := newWorkload(12, catalog.Star, costmodel.AllMetrics())
	cases := []struct {
		name  string
		w     workload
		store func(t *testing.T) *cache.Shared
	}{
		{"retain=1", chain, func(t *testing.T) *cache.Shared { return chain.warmStore(1, 1, 2) }},
		{"retain=2", star, func(t *testing.T) *cache.Shared { return star.warmStore(2, 1, 2) }},
		{"shed", chain, func(t *testing.T) *cache.Shared {
			sh := chain.warmStore(1, 1, 2)
			if sh.Shed(64) == 0 {
				t.Fatal("shed removed nothing")
			}
			chain.run(sh, 3, 100) // admissions under the raised α
			return sh
		}},
		{"restored", chain, func(t *testing.T) *cache.Shared { return restore(t, chain.warmStore(1, 1, 2)) }},
		{"merged", chain, func(t *testing.T) *cache.Shared {
			primary := chain.warmStore(1, 1, 2)
			replica := chain.warmStore(1, 5) // warm on its own first
			data, _, err := snapshot.EncodeDeltas(1, 1, []snapshot.TaggedStore{{Tag: "\x00", Store: primary}})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := snapshot.DecodeDeltas(data, func(string, cache.StoreState) (*cache.Shared, error) {
				return replica, nil
			}); err != nil {
				t.Fatal(err)
			}
			return replica
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := tc.store(t)
			sets := bucketSets(t, sh)
			newCache := func() *cache.Cache {
				c := cache.New(sh.Interner())
				c.TrackDirty()
				// Some buckets exist but never admitted: adoption must
				// treat them like absent ones.
				for i := 0; i < len(sets); i += 7 {
					c.Bucket(sets[i])
				}
				return c
			}
			got, want := newCache(), newCache()
			gst, wst := sh.NewSync(), sh.NewSync()
			compare := func(round string, n, ref int) {
				t.Helper()
				if n != ref {
					t.Fatalf("%s: Pull imported %d plans, reference %d", round, n, ref)
				}
				if err := cache.DiffPrivate(got, want); err != nil {
					t.Fatalf("%s: private caches differ: %v", round, err)
				}
				if err := cache.DiffSync(gst, wst); err != nil {
					t.Fatalf("%s: sync handles differ: %v", round, err)
				}
				if got.NumPlans() != want.NumPlans() || got.NumSets() != want.NumSets() {
					t.Fatalf("%s: NumPlans/NumSets %d/%d vs %d/%d", round, got.NumPlans(), got.NumSets(), want.NumPlans(), want.NumSets())
				}
			}
			n := gst.Pull(got)
			compare("warm start", n, cache.ReferencePull(wst, want))
			if n == 0 {
				t.Fatal("warm start imported nothing")
			}

			// Round two: identical private admissions (dominating copies of
			// stored plans, left unpublished), then more work published to
			// the store, then a second pull.
			for i, s := range sets {
				if i%5 != 0 {
					continue
				}
				p := got.Get(s)[0]
				better := &plan.Plan{Rel: p.Rel, RelID: p.RelID, Output: p.Output, Cost: p.Cost.Scale(0.5)}
				if got.Insert(better, 1) != want.Insert(better, 1) {
					t.Fatal("private admissions diverged")
				}
			}
			tc.w.run(sh, 9, 100)
			// Sets the store gained since the first pull are unpulled; give
			// every other one a private admission first, so adoption must
			// leave those buckets to the per-plan path.
			known := make(map[tableset.Set]bool, len(sets))
			for _, s := range sets {
				known[s] = true
			}
			fresh := 0
			if _, _, err := sh.Export(0, func(bs cache.BucketSnapshot) error {
				if known[bs.Set] {
					return nil
				}
				if fresh++; fresh%2 == 0 {
					return nil
				}
				p := bs.Plans[0]
				worse := &plan.Plan{Rel: p.Rel, RelID: p.RelID, Output: p.Output, Cost: p.Cost.Scale(2)}
				if !got.Insert(worse, 1) || !want.Insert(worse, 1) {
					return fmt.Errorf("private admission into unpulled %v refused", bs.Set)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if fresh < 2 {
				t.Fatalf("the extra run added %d table sets; the case needs some", fresh)
			}
			compare("second pull", gst.Pull(got), cache.ReferencePull(wst, want))
		})
	}
}

// TestWarmStartRunMatchesReference is the run-level check: the private
// cache a fresh problem's Init builds against a restored store —
// through Pull, adopting buckets — equals the cache the per-plan
// reference pull builds from the same store, field for field. The rest
// of the run depends only on that cache, the store and the seed, so the
// runs' frontiers and Stats cannot differ either; the run steps on to
// show the adopted cache keeps working.
func TestWarmStartRunMatchesReference(t *testing.T) {
	w := newWorkload(16, catalog.Chain, []costmodel.Metric{costmodel.Time, costmodel.Buffer})
	sh := restore(t, w.warmStore(1, 1, 2, 3))
	a := w.run(sh, 7, 0)
	want := cache.New(sh.Interner())
	want.TrackDirty()
	if cache.ReferencePull(sh.NewSync(), want) == 0 {
		t.Fatal("reference warm start imported nothing")
	}
	if err := cache.DiffPrivate(a.Cache(), want); err != nil {
		t.Fatalf("after Init: %v", err)
	}
	for i := 0; i < 40; i++ {
		a.Step()
	}
	if len(a.Frontier()) == 0 || a.Stats().Iterations != 40 {
		t.Fatalf("run after the warm start: %d plans, %+v", len(a.Frontier()), a.Stats())
	}
}
