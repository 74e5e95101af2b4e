package harness

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"rmq/internal/catalog"
	"rmq/internal/opt"

	// Register the competitors AllAlgorithms names; dp and core register
	// through harness.go's imports.
	_ "rmq/internal/baselines/anneal"
	_ "rmq/internal/baselines/iterimp"
	_ "rmq/internal/baselines/nsga2"
	_ "rmq/internal/baselines/twophase"
)

// Tuning scales the paper's experiments to the machine at hand. The
// paper gives every algorithm 3 s (30 s in the appendix) and uses 20 test
// cases per data point — roughly eight hours of optimization time. The
// defaults here preserve every workload dimension (graph shapes, query
// sizes, metric counts, algorithm set) while shrinking budget and case
// count so a full regeneration takes minutes; raise them via the
// cmd/experiments flags (or the RMQ_BENCH_* environment variables for
// `go test -bench`) to approach the paper's setting.
type Tuning struct {
	// Budget is the per-algorithm optimization time for the 3 s
	// experiments (Figures 1, 2, 4, 5); LongBudget replaces the 30 s
	// experiments (Figures 6–9).
	Budget     time.Duration
	LongBudget time.Duration
	// Cases and CasesSmall are the test cases per data point for the
	// large-query and the small-query (Figures 8/9) experiments.
	Cases      int
	CasesSmall int
	// Checkpoints is the number of measurement instants per run.
	Checkpoints int
	// RefBudget caps the DP(1.01) reference computation of Figures 8/9.
	RefBudget time.Duration
	// BaseSeed derives all per-case seeds.
	BaseSeed uint64
	// Parallel bounds concurrent test cases (0 = GOMAXPROCS).
	Parallel int
}

// DefaultTuning is the minutes-scale configuration used by
// cmd/experiments unless overridden by flags.
func DefaultTuning() Tuning {
	return Tuning{
		Budget:      500 * time.Millisecond,
		LongBudget:  2 * time.Second,
		Cases:       5,
		CasesSmall:  3,
		Checkpoints: 12,
		RefBudget:   30 * time.Second,
		BaseSeed:    20160626, // SIGMOD'16 opening day
		Parallel:    0,
	}
}

// BenchTuning is the seconds-scale configuration used by the bench
// harness (bench_test.go); the RMQ_BENCH_BUDGET_MS, RMQ_BENCH_LONG_MS and
// RMQ_BENCH_CASES environment variables override it.
func BenchTuning() Tuning {
	t := DefaultTuning()
	t.Budget = 80 * time.Millisecond
	t.LongBudget = 320 * time.Millisecond
	t.Cases = 3
	t.CasesSmall = 2
	t.Checkpoints = 8
	t.RefBudget = 20 * time.Second
	if ms := envInt("RMQ_BENCH_BUDGET_MS"); ms > 0 {
		t.Budget = time.Duration(ms) * time.Millisecond
	}
	if ms := envInt("RMQ_BENCH_LONG_MS"); ms > 0 {
		t.LongBudget = time.Duration(ms) * time.Millisecond
	}
	if n := envInt("RMQ_BENCH_CASES"); n > 0 {
		t.Cases = n
		t.CasesSmall = n
	}
	return t
}

func envInt(name string) int {
	v, err := strconv.Atoi(os.Getenv(name))
	if err != nil {
		return 0
	}
	return v
}

// AllAlgorithms returns the full competitor set of the paper's
// evaluation in its legend order: DP(∞), DP(1000), DP(2), SA, 2P,
// NSGA-II, II, RMQ.
func AllAlgorithms() []Algorithm {
	return []Algorithm{
		{"dp", opt.Spec{DPAlpha: math.Inf(1)}},
		{"dp", opt.Spec{DPAlpha: 1000}},
		{"dp", opt.Spec{DPAlpha: 2}},
		{Name: "sa"},
		{Name: "2p"},
		{Name: "nsga2"},
		{Name: "ii"},
		{Name: "rmq"},
	}
}

var allGraphs = []catalog.GraphKind{catalog.Chain, catalog.Cycle, catalog.Star}

// scenarioName renders the conventional panel label.
func scenarioName(g catalog.GraphKind, tables, metrics int) string {
	return fmt.Sprintf("%s, %d tables, %d metrics", g, tables, metrics)
}

// grid builds one scenario per (graph, size) combination.
func grid(t Tuning, sizes []int, metrics int, sel catalog.SelectivityModel, budget time.Duration, cases int, refAlpha float64, algos []Algorithm) []Scenario {
	var out []Scenario
	for _, g := range allGraphs {
		for _, n := range sizes {
			out = append(out, Scenario{
				Name:        scenarioName(g, n, metrics),
				Graph:       g,
				Tables:      n,
				Metrics:     metrics,
				Selectivity: sel,
				Budget:      budget,
				Checkpoints: t.Checkpoints,
				Cases:       cases,
				BaseSeed:    t.BaseSeed + uint64(n)*131 + uint64(g)*7919 + uint64(metrics)*104729,
				Algorithms:  algos,
				RefAlpha:    refAlpha,
				RefBudget:   t.RefBudget,
				Parallel:    t.Parallel,
			})
		}
	}
	return out
}

// Figure1 reproduces Figure 1: median approximation error over time for
// two cost metrics, chain/cycle/star × {10,25,50,75,100} tables.
func Figure1(t Tuning) []Scenario {
	return grid(t, []int{10, 25, 50, 75, 100}, 2, catalog.Steinbrunn, t.Budget, t.Cases, 0, AllAlgorithms())
}

// Figure2 reproduces Figure 2: as Figure 1 with three cost metrics.
func Figure2(t Tuning) []Scenario {
	return grid(t, []int{10, 25, 50, 75, 100}, 3, catalog.Steinbrunn, t.Budget, t.Cases, 0, AllAlgorithms())
}

// Figure3 reproduces Figure 3: median climbing path length and median
// number of Pareto plans found by RMQ, three cost metrics, per graph and
// query size. Only RMQ runs.
func Figure3(t Tuning) []Scenario {
	return grid(t, []int{10, 25, 50, 75, 100}, 3, catalog.Steinbrunn, t.Budget, t.Cases, 0,
		[]Algorithm{{Name: "rmq"}})
}

// Figure4 reproduces Figure 4: two cost metrics with Bruno's MinMax
// selectivities, {25,50,75,100} tables.
func Figure4(t Tuning) []Scenario {
	return grid(t, []int{25, 50, 75, 100}, 2, catalog.MinMax, t.Budget, t.Cases, 0, AllAlgorithms())
}

// Figure5 reproduces Figure 5: as Figure 4 with three cost metrics.
func Figure5(t Tuning) []Scenario {
	return grid(t, []int{25, 50, 75, 100}, 3, catalog.MinMax, t.Budget, t.Cases, 0, AllAlgorithms())
}

// Figure6 reproduces Figure 6: the long-budget comparison (30 s in the
// paper) for two cost metrics and {50,100} tables.
func Figure6(t Tuning) []Scenario {
	return grid(t, []int{50, 100}, 2, catalog.Steinbrunn, t.LongBudget, t.Cases, 0, AllAlgorithms())
}

// Figure7 reproduces Figure 7: as Figure 6 with three cost metrics.
func Figure7(t Tuning) []Scenario {
	return grid(t, []int{50, 100}, 3, catalog.Steinbrunn, t.LongBudget, t.Cases, 0, AllAlgorithms())
}

// Figure8 reproduces Figure 8: precise approximation error for small
// queries ({4,8} tables, two metrics) against a DP(1.01) reference.
func Figure8(t Tuning) []Scenario {
	return grid(t, []int{4, 8}, 2, catalog.Steinbrunn, t.LongBudget, t.CasesSmall, 1.01, AllAlgorithms())
}

// Figure9 reproduces Figure 9: as Figure 8 with three cost metrics.
func Figure9(t Tuning) []Scenario {
	return grid(t, []int{4, 8}, 3, catalog.Steinbrunn, t.LongBudget, t.CasesSmall, 1.01, AllAlgorithms())
}

// Figures maps figure ids to scenario builders; cmd/experiments and the
// bench harness iterate it.
func Figures(t Tuning) map[int][]Scenario {
	return map[int][]Scenario{
		1: Figure1(t),
		2: Figure2(t),
		3: Figure3(t),
		4: Figure4(t),
		5: Figure5(t),
		6: Figure6(t),
		7: Figure7(t),
		8: Figure8(t),
		9: Figure9(t),
	}
}
