// Benchmarks regenerating every figure of the paper's evaluation
// (Section 6 and appendix). Each BenchmarkFigureN runs the corresponding
// scenario grid — graph shapes × query sizes × algorithms — at the
// bench-scale tuning (see harness.BenchTuning; override with the
// RMQ_BENCH_BUDGET_MS / RMQ_BENCH_LONG_MS / RMQ_BENCH_CASES environment
// variables) and prints one summary line per scenario with the final
// median approximation error α per algorithm: the same series the
// paper's plots show, at the final checkpoint. Set RMQ_BENCH_VERBOSE=1
// for the full per-checkpoint tables.
//
// Each benchmark iteration is a complete figure regeneration, so these
// run meaningfully with the default -benchtime (b.N stays 1) or with
// -benchtime=1x. For higher-fidelity runs, use cmd/experiments.
//
// The per-table ablation benches of the design choices called out in
// DESIGN.md (climbing step, plan cache, α schedule) live next to the
// core package: see BenchmarkAblationClimb, BenchmarkAblationCache and
// BenchmarkAblationAlpha in internal/core.
package rmq_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"

	"rmq"
	"rmq/internal/cache"
	"rmq/internal/catalog"
	"rmq/internal/harness"
	"rmq/internal/snapshot"
	"rmq/internal/tableset"
)

// runFigure executes every scenario of one figure and reports the final
// median α of RMQ (geometric mean across scenarios) as a custom metric.
// Result reporting is I/O and must not pollute the measured time, so all
// printing happens with the benchmark timer stopped.
func runFigure(b *testing.B, scenarios []harness.Scenario, label string) {
	verbose := os.Getenv("RMQ_BENCH_VERBOSE") == "1"
	for i := 0; i < b.N; i++ {
		logSum, count := 0.0, 0
		for _, s := range scenarios {
			res := harness.Run(context.Background(), s)
			b.StopTimer()
			if verbose {
				fmt.Println(res.Table())
			} else {
				fmt.Printf("  [%s] %s\n", label, res.Summary())
			}
			for _, series := range res.Series {
				if series.Algorithm != "RMQ" {
					continue
				}
				a := series.Alpha[len(series.Alpha)-1]
				if !math.IsInf(a, 1) && !math.IsNaN(a) {
					logSum += math.Log10(a)
					count++
				}
			}
			b.StartTimer()
		}
		if count > 0 {
			b.ReportMetric(math.Pow(10, logSum/float64(count)), "rmq-final-alpha-gm")
		}
	}
}

// BenchmarkFigure1 reproduces Figure 1: median α over time, two cost
// metrics, chain/cycle/star × {10,25,50,75,100} tables, all algorithms.
func BenchmarkFigure1(b *testing.B) {
	runFigure(b, harness.Figure1(harness.BenchTuning()), "fig1")
}

// BenchmarkFigure2 reproduces Figure 2: as Figure 1 with three metrics.
func BenchmarkFigure2(b *testing.B) {
	runFigure(b, harness.Figure2(harness.BenchTuning()), "fig2")
}

// BenchmarkFigure3 reproduces Figure 3: median climbing path length and
// number of Pareto plans found by RMQ versus query size.
func BenchmarkFigure3(b *testing.B) {
	scenarios := harness.Figure3(harness.BenchTuning())
	for i := 0; i < b.N; i++ {
		for _, s := range scenarios {
			res := harness.Run(context.Background(), s)
			b.StopTimer()
			fmt.Printf("  [fig3] %-30s path=%5.1f pareto=%5.0f\n",
				s.Name, res.MedianPathLength, res.MedianParetoPlans)
			b.StartTimer()
		}
	}
}

// BenchmarkFigure4 reproduces Figure 4: two metrics, MinMax
// selectivities, {25,50,75,100} tables.
func BenchmarkFigure4(b *testing.B) {
	runFigure(b, harness.Figure4(harness.BenchTuning()), "fig4")
}

// BenchmarkFigure5 reproduces Figure 5: as Figure 4 with three metrics.
func BenchmarkFigure5(b *testing.B) {
	runFigure(b, harness.Figure5(harness.BenchTuning()), "fig5")
}

// BenchmarkFigure6 reproduces Figure 6: the long-budget (paper: 30 s)
// comparison, two metrics, {50,100} tables.
func BenchmarkFigure6(b *testing.B) {
	runFigure(b, harness.Figure6(harness.BenchTuning()), "fig6")
}

// BenchmarkFigure7 reproduces Figure 7: as Figure 6 with three metrics.
func BenchmarkFigure7(b *testing.B) {
	runFigure(b, harness.Figure7(harness.BenchTuning()), "fig7")
}

// BenchmarkFigure8 reproduces Figure 8: precise error against a DP(1.01)
// reference on small ({4,8}-table) queries, two metrics.
func BenchmarkFigure8(b *testing.B) {
	runFigure(b, harness.Figure8(harness.BenchTuning()), "fig8")
}

// BenchmarkFigure9 reproduces Figure 9: as Figure 8 with three metrics.
func BenchmarkFigure9(b *testing.B) {
	runFigure(b, harness.Figure9(harness.BenchTuning()), "fig9")
}

// BenchmarkParallelScaling measures multi-start throughput: one op is a
// complete session run of a fixed total iteration budget split evenly
// across the workers, so with perfect scaling the wall time per op (and
// ns/op) drops linearly in the worker count and the reported iters/sec
// throughput rises linearly. Without an observer workers merge once, at
// the end, so the shared archive lock stays out of the scaling path
// (BenchmarkObservedMerge measures the merge-every-step case). On a
// single-CPU machine the variants coincide; the gate
// only fails on regressions, so extra cores can only improve the
// numbers.
func BenchmarkParallelScaling(b *testing.B) {
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 20, Graph: rmq.Chain}, 1)
	const totalIters = 240
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprint(workers), func(b *testing.B) {
			sess, err := rmq.NewSession(cat,
				rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer))
			if err != nil {
				b.Fatal(err)
			}
			// One untimed warm-up run. Private runs park no problem
			// instances, so every timed op builds its workers' cost
			// models, as a fresh query does.
			if _, err := sess.Optimize(context.Background(),
				rmq.WithParallelism(workers), rmq.WithMaxIterations(2)); err != nil {
				b.Fatal(err)
			}
			iters := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := sess.Optimize(context.Background(),
					rmq.WithParallelism(workers),
					rmq.WithMaxIterations(totalIters/workers),
					rmq.WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				iters += f.Iterations
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(iters)/secs, "iters/sec")
			}
		})
	}
}

// BenchmarkObservedMerge measures opt.Run's merge path under an
// observer: OnImprovement makes every worker merge its frontier delta
// into the shared archive after every step, under the archive's one
// lock. One op is a complete Optimize call on a 20-table chain with a
// fixed total iteration budget split across the workers, so the 1- and
// 4-worker variants do the same search work and differ in how many
// workers contend for the lock.
func BenchmarkObservedMerge(b *testing.B) {
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 20, Graph: rmq.Chain}, 1)
	const totalIters = 120
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprint(workers), func(b *testing.B) {
			improvements := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := rmq.Optimize(context.Background(), cat,
					rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer),
					rmq.WithParallelism(workers),
					rmq.WithMaxIterations(totalIters/workers),
					rmq.WithSeed(uint64(i)),
					rmq.OnImprovement(func(rmq.Progress) { improvements++ }))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(improvements)/float64(b.N), "improvements/op")
		})
	}
}

// BenchmarkWorkloadThroughput measures per-query latency (and
// queries/sec) over a repeated-query stream of a 24-table join — the
// session-caching headline scenario. One op is one complete Optimize
// call:
//
//   - cold: every query runs on a fresh session without cache sharing,
//     at the budget a cold run needs (coldIters) — the baseline every
//     query pays when nothing is retained.
//   - warm: queries stream through one long-lived session with
//     WithSharedCache at a tenth of the budget. The warm budget is not
//     a fudge: TestSharedCacheWarmStartQuality pins that repeat runs at
//     coldIters/10 return frontiers whose ε-indicator against the cold
//     result is exactly 1 (every cold trade-off matched or dominated),
//     because the session store hands each run the accumulated
//     sub-plan frontiers before its first iteration.
//
// The warm/cold ns/op ratio is the PR's ≥3x warm-start acceptance
// criterion; the committed bench reports carry both series.
func BenchmarkWorkloadThroughput(b *testing.B) {
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 24, Graph: rmq.Chain}, 3)
	metrics := rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer)
	const coldIters = 400
	const warmIters = coldIters / 10
	reportQPS := func(b *testing.B) {
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "queries/sec")
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sess, err := rmq.NewSession(cat, metrics)
			if err != nil {
				b.Fatal(err)
			}
			f, err := sess.Optimize(context.Background(),
				rmq.WithSeed(uint64(i)+1), rmq.WithMaxIterations(coldIters))
			if err != nil {
				b.Fatal(err)
			}
			if len(f.Plans) == 0 {
				b.Fatal("empty frontier")
			}
		}
		reportQPS(b)
	})
	b.Run("warm", func(b *testing.B) {
		// Warm calls keep refining the session's precision schedule, so a
		// very long stream slowly gets more expensive per call (it buys
		// quality). To keep ns/op stationary regardless of b.N — the CI
		// gate compares runs at a ±20% threshold — the session is rebuilt
		// (cold call untimed) every streamLen measured calls: each timed
		// op is one of the first streamLen warm repeats after a cold
		// start, the regime the ≥3x warm-start claim is about.
		const streamLen = 25
		var sess *rmq.Session
		calls := streamLen
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if calls == streamLen {
				b.StopTimer()
				var err error
				sess, err = rmq.NewSession(cat, metrics, rmq.WithSharedCache(true))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.Optimize(context.Background(),
					rmq.WithSeed(1), rmq.WithMaxIterations(coldIters)); err != nil {
					b.Fatal(err)
				}
				calls = 0
				b.StartTimer()
			}
			f, err := sess.Optimize(context.Background(),
				rmq.WithSeed(uint64(i)+2), rmq.WithMaxIterations(warmIters))
			if err != nil {
				b.Fatal(err)
			}
			if len(f.Plans) == 0 {
				b.Fatal("empty frontier")
			}
			calls++
		}
		reportQPS(b)
	})
	b.Run("restored", func(b *testing.B) {
		// The restart path: sessions warm-started from a snapshot instead
		// of a live cold call. Same streamLen discipline as warm — each
		// timed op is an early warm repeat, now after a restore — so the
		// two sub-benchmarks are directly comparable: restored ≈ warm is
		// the "no cold-start cliff after restart" claim, against cold's
		// ~an-order-of-magnitude-slower ns/op.
		const streamLen = 25
		seed, err := rmq.NewSession(cat, metrics, rmq.WithSharedCache(true))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := seed.Optimize(context.Background(),
			rmq.WithSeed(1), rmq.WithMaxIterations(coldIters)); err != nil {
			b.Fatal(err)
		}
		snap, err := seed.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		var sess *rmq.Session
		calls := streamLen
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if calls == streamLen {
				b.StopTimer()
				sess, err = rmq.NewSession(cat, metrics, rmq.WithSharedCache(true))
				if err != nil {
					b.Fatal(err)
				}
				if err := sess.Restore(snap); err != nil {
					b.Fatal(err)
				}
				calls = 0
				b.StartTimer()
			}
			f, err := sess.Optimize(context.Background(),
				rmq.WithSeed(uint64(i)+2), rmq.WithMaxIterations(warmIters))
			if err != nil {
				b.Fatal(err)
			}
			if len(f.Plans) == 0 {
				b.Fatal("empty frontier")
			}
			calls++
		}
		reportQPS(b)
	})
}

// snapshotBenchSession builds a warmed shared-cache session at the
// given retention α, deep enough into the schedule's fine-α regime
// that retention has teeth. Retention is the store-size dial: α = 2
// retains a fraction of exact retention's plans (see the
// retained-plans metric), which is what exposes the O(retained plans)
// scaling of encode and restore — the two settings differ in store
// size, nothing else.
func snapshotBenchSession(b *testing.B, retain float64) (*rmq.Session, []byte) {
	b.Helper()
	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 16, Graph: rmq.Chain}, 3)
	sess, err := rmq.NewSession(cat,
		rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer),
		rmq.WithSharedCache(true),
		rmq.WithCacheRetention(retain))
	if err != nil {
		b.Fatal(err)
	}
	// Enough cumulative work to reach the schedule's fine-α regime,
	// where exact retention's store balloons past what α = 2 keeps —
	// otherwise the two settings retain identical stores and the
	// scaling comparison is vacuous.
	for run := 0; run < 2; run++ {
		if _, err := sess.Optimize(context.Background(),
			rmq.WithSeed(uint64(run)+1), rmq.WithMaxIterations(1500),
			rmq.WithParallelism(4)); err != nil {
			b.Fatal(err)
		}
	}
	snap, err := sess.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	return sess, snap
}

// BenchmarkSnapshotEncode measures serializing a warmed session's plan
// caches. Cost must track retained plans (compare the two retention
// settings via the retained-plans metric), not total plans ever seen.
func BenchmarkSnapshotEncode(b *testing.B) {
	for _, retain := range []float64{1, 2} {
		b.Run(fmt.Sprintf("retain=%g", retain), func(b *testing.B) {
			sess, snap := snapshotBenchSession(b, retain)
			cs := sess.CacheStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := sess.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				if len(data) != len(snap) {
					b.Fatalf("snapshot size changed: %d vs %d", len(data), len(snap))
				}
			}
			b.ReportMetric(float64(cs.Plans), "retained-plans")
			b.ReportMetric(float64(len(snap)), "snapshot-bytes")
		})
	}
}

// BenchmarkSnapshotRestore measures materializing a snapshot into a
// fresh session — the startup cost a warm restart pays before serving.
// Like encode it must scale with retained plans: restoring the α = 2
// snapshot is proportionally cheaper than the exact-retention one.
func BenchmarkSnapshotRestore(b *testing.B) {
	for _, retain := range []float64{1, 2} {
		b.Run(fmt.Sprintf("retain=%g", retain), func(b *testing.B) {
			sess, snap := snapshotBenchSession(b, retain)
			cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 16, Graph: rmq.Chain}, 3)
			cs := sess.CacheStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh, err := rmq.NewSession(cat,
					rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer),
					rmq.WithSharedCache(true),
					rmq.WithCacheRetention(retain))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := fresh.Restore(snap); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cs.Plans), "retained-plans")
			b.ReportMetric(float64(len(snap)), "snapshot-bytes")
		})
	}
}

// BenchmarkWarmStartPull measures the warm start of a fresh problem
// against a restored 16-table store: the first Pull of a new private
// cache, which Init runs before the first iteration and which imports
// the whole store. It is the first-query share of a restart, after
// BenchmarkSnapshotEncode and BenchmarkSnapshotRestore.
func BenchmarkWarmStartPull(b *testing.B) {
	for _, retain := range []float64{1, 2} {
		b.Run(fmt.Sprintf("retain=%g", retain), func(b *testing.B) {
			_, snap := snapshotBenchSession(b, retain)
			var sh *cache.Shared
			if _, err := snapshot.Decode(snap, func(_ string, st cache.StoreState) (*cache.Shared, error) {
				sh = cache.NewShared(tableset.NewInterner(), st.Retention)
				return sh, nil
			}); err != nil {
				b.Fatal(err)
			}
			_, plans := sh.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cache.New(sh.Interner())
				c.TrackDirty()
				if got := sh.NewSync().Pull(c); got != plans {
					b.Fatalf("warm start imported %d of %d plans", got, plans)
				}
			}
			b.ReportMetric(float64(plans), "retained-plans")
		})
	}
}

// BenchmarkExtensionWeightedSum quantifies the related-work remark that
// scalarizing with varying weight vectors recovers at most the convex
// hull of the Pareto frontier: it runs the WS baseline alongside RMQ on
// one mid-size scenario. WS's α stays above RMQ's because non-convex
// trade-offs minimize no weighted sum.
func BenchmarkExtensionWeightedSum(b *testing.B) {
	tn := harness.BenchTuning()
	s := harness.Scenario{
		Name:        "extension: WS vs RMQ, star, 50 tables, 3 metrics",
		Graph:       catalog.Star,
		Tables:      50,
		Metrics:     3,
		Selectivity: catalog.Steinbrunn,
		Budget:      tn.Budget * 4,
		Checkpoints: tn.Checkpoints,
		Cases:       tn.Cases,
		BaseSeed:    tn.BaseSeed,
		Algorithms:  []harness.Algorithm{{Name: "ws"}, {Name: "rmq"}},
		Parallel:    tn.Parallel,
	}
	for i := 0; i < b.N; i++ {
		res := harness.Run(context.Background(), s)
		b.StopTimer()
		fmt.Printf("  [ext-ws] %s\n", res.Summary())
		b.StartTimer()
	}
}
