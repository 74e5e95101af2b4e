// Quickstart: optimize a generated 20-table query under two cost metrics
// and pick plans by preference — the minimal end-to-end use of the rmq
// library. A Session carries the catalog and default options for
// further queries against the same database; with WithSharedCache it
// also keeps warmed cost-model state and the plan cache across runs.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rmq"
)

func main() {
	// A random 20-table chain query, as used throughout the paper's
	// evaluation. Real applications build a catalog from their schema
	// with rmq.NewCatalog instead.
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{
		Tables: 20,
		Graph:  rmq.Chain,
	}, 42)

	// A session binds the catalog and per-database defaults once.
	sess, err := rmq.NewSession(cat,
		rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer))
	if err != nil {
		log.Fatal(err)
	}

	// Approximate the Pareto frontier of execution-time vs. buffer-space
	// trade-offs with half a second of optimization. The context bounds
	// the anytime loop; cancelling it early would return the frontier
	// found so far.
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	frontier, err := sess.Optimize(ctx, rmq.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(frontier)

	// Automatic selection from the frontier, as in the paper's
	// introduction: either weights expressing relative importance ...
	fast := frontier.Best(map[rmq.Metric]float64{rmq.MetricTime: 10, rmq.MetricBuffer: 1})
	lean := frontier.Best(map[rmq.Metric]float64{rmq.MetricTime: 1, rmq.MetricBuffer: 10})
	fmt.Printf("\ntime-leaning choice:   %v\n", fast.Cost)
	fmt.Printf("buffer-leaning choice: %v\n", lean.Cost)

	// ... or hard cost bounds.
	within := frontier.WithinBounds(map[rmq.Metric]float64{rmq.MetricBuffer: 1000})
	fmt.Printf("\nplans fitting a 1000-page buffer budget: %d\n", len(within))
	if len(within) > 0 {
		fmt.Printf("best of those: %v\n  %s\n", within[0].Cost, within[0])
	}

	// A second query against the same session (here: a different seed
	// and metric subset) reuses the catalog and the session defaults.
	// This session does not share its plan cache, so the run builds its
	// cost model afresh and drops it when it ends.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel2()
	again, err := sess.Optimize(ctx2,
		rmq.WithMetrics(rmq.MetricTime, rmq.MetricDisc),
		rmq.WithSeed(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsecond session query (time/disc): %d plans after %d iterations\n",
		len(again.Plans), again.Iterations)
}
