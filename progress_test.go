package rmq_test

import (
	"context"
	"testing"

	"rmq"
)

// TestParallelProgressNeverGetsWorse checks the anytime contract at the
// merge layer with parallel workers: each snapshot streamed to
// OnImprovement or WithProgress is weakly dominated, plan by plan, by
// every later snapshot and by the final frontier, and the reported
// iteration count never decreases. Weak dominance is transitive, so
// comparing each snapshot with the next one covers every later one.
// Run calls the observer serialized, so the callbacks share their state
// without a lock; under -race an unserialized call would be reported.
func TestParallelProgressNeverGetsWorse(t *testing.T) {
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 12, Graph: rmq.Chain}, 21)
	type snap struct {
		iterations int
		plans      []*rmq.Plan
	}
	var snaps []snap
	record := func(p rmq.Progress) { snaps = append(snaps, snap{p.Iterations, p.Plans}) }
	f, err := rmq.Optimize(context.Background(), cat,
		rmq.WithParallelism(4),
		rmq.WithMaxIterations(40),
		rmq.WithSeed(3),
		rmq.OnImprovement(record),
		rmq.WithProgress(1, record))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 || len(f.Plans) == 0 {
		t.Fatalf("%d snapshots, %d final plans", len(snaps), len(f.Plans))
	}
	snaps = append(snaps, snap{f.Iterations, f.Plans})
	for i := 1; i < len(snaps); i++ {
		prev, next := snaps[i-1], snaps[i]
		if next.iterations < prev.iterations {
			t.Fatalf("snapshot %d: iterations fell from %d to %d", i, prev.iterations, next.iterations)
		}
		for _, p := range prev.plans {
			covered := false
			for _, q := range next.plans {
				if q.Cost.Dominates(p.Cost) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("snapshot %d (of %d, the last is the final frontier): plan %v of the previous snapshot is no longer weakly dominated",
					i, len(snaps)-1, p.Cost)
			}
		}
	}
}
