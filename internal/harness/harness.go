// Package harness drives the paper's experimental methodology
// (Section 6.1): it generates seeded random test cases, runs every
// algorithm with a wall-clock budget while snapshotting its result plan
// set at regular checkpoints, builds a reference Pareto frontier (the
// union of all algorithms' final results, optionally strengthened by a
// near-exact DP run for small queries), and reports the median
// approximation error α per algorithm and checkpoint across the test
// cases.
package harness

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"rmq/internal/baselines/dp"
	"rmq/internal/catalog"
	"rmq/internal/core"
	"rmq/internal/cost"
	"rmq/internal/costmodel"
	"rmq/internal/opt"
	"rmq/internal/quality"
)

// Scenario is one experiment cell (one panel/curve family of a figure):
// a workload family plus measurement parameters.
type Scenario struct {
	// Name labels the scenario in reports, e.g. "chain, 50 tables".
	Name string
	// Graph, Tables, Metrics and Selectivity parameterize the random
	// query generator.
	Graph       catalog.GraphKind
	Tables      int
	Metrics     int
	Selectivity catalog.SelectivityModel
	// Budget is the optimization time per algorithm and test case;
	// Checkpoints is the number of equally spaced measurement points.
	Budget      time.Duration
	Checkpoints int
	// Cases is the number of random test cases; the reported α values
	// are medians across them.
	Cases int
	// BaseSeed makes the whole scenario deterministic up to wall-clock
	// variation in how many steps fit into the budget.
	BaseSeed uint64
	// Algorithms lists the optimizers to compare.
	Algorithms []Algorithm
	// RefAlpha, when > 0, additionally runs DP(RefAlpha) to completion
	// per test case and merges its result into the reference frontier —
	// the precise-error methodology of Figures 8 and 9 (α = 1.01).
	// RefBudget caps that run (0 means 30 s); if DP does not finish, the
	// union reference is used alone.
	RefAlpha  float64
	RefBudget time.Duration
	// Parallel bounds the number of test cases run concurrently;
	// 0 means GOMAXPROCS. Algorithms within a test case always run
	// sequentially, so within-case comparisons stay fair under load.
	Parallel int
}

// Algorithm names one optimizer of a scenario: its registry name (see
// opt.Names) and the Spec it is built with, e.g.
// {"dp", opt.Spec{DPAlpha: math.Inf(1)}}.
type Algorithm struct {
	Name string
	Spec opt.Spec
}

// build returns a fresh, uninitialized instance of the algorithm.
// Scenarios are built in code, so a name the registry does not know is
// a programming error and panics.
func (a Algorithm) build() opt.Optimizer {
	o, err := opt.NewNamed(a.Name, a.Spec)
	if err != nil {
		panic("harness: " + err.Error())
	}
	return o
}

// label returns the algorithm's display name in figures, the Name of
// the optimizer it builds (e.g. "DP(Infinity)").
func (a Algorithm) label() string { return a.build().Name() }

// Series is the measured α curve of one algorithm in one scenario.
type Series struct {
	Algorithm string
	// Alpha[k] is the median approximation error at checkpoint k.
	Alpha []float64
}

// Result is the outcome of running one scenario.
type Result struct {
	Scenario Scenario
	// Times are the checkpoint instants (relative to optimization start).
	Times []time.Duration
	// Series holds one α curve per algorithm, in Scenario.Algorithms
	// order.
	Series []Series
	// MedianPathLength and MedianParetoPlans are the Figure 3 statistics,
	// filled when RMQ is among the algorithms: the median climbing path
	// length and the median number of Pareto plans in RMQ's final
	// frontier across test cases.
	MedianPathLength  float64
	MedianParetoPlans float64
}

// caseOutcome carries the per-test-case measurements back to Run.
type caseOutcome struct {
	alphas      [][]float64 // [algorithm][checkpoint]
	pathLength  float64     // median RMQ climb path length (NaN if no RMQ)
	paretoPlans float64     // RMQ final frontier size (NaN if no RMQ)
}

// Run executes the scenario and aggregates medians across test cases.
// Cancelling the context aborts the remaining work; the result then
// aggregates whatever measurements the interrupted runs produced up to
// that point (curves may be truncated), so callers should check
// ctx.Err() before interpreting a cancelled run's numbers.
func Run(ctx context.Context, s Scenario) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.Checkpoints <= 0 {
		s.Checkpoints = 12
	}
	parallel := s.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > s.Cases {
		parallel = s.Cases
	}
	outcomes := make([]caseOutcome, s.Cases)
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallel)
	for c := 0; c < s.Cases; c++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(c int) {
			defer wg.Done()
			defer func() { <-sem }()
			outcomes[c] = runCase(ctx, s, c)
		}(c)
	}
	wg.Wait()

	res := Result{Scenario: s, Times: checkpointTimes(s)}
	for ai, f := range s.Algorithms {
		series := Series{Algorithm: f.label(), Alpha: make([]float64, s.Checkpoints)}
		for k := 0; k < s.Checkpoints; k++ {
			vals := make([]float64, 0, s.Cases)
			for c := 0; c < s.Cases; c++ {
				vals = append(vals, outcomes[c].alphas[ai][k])
			}
			series.Alpha[k] = median(vals)
		}
		res.Series = append(res.Series, series)
	}
	var paths, plans []float64
	for c := 0; c < s.Cases; c++ {
		if !math.IsNaN(outcomes[c].pathLength) {
			paths = append(paths, outcomes[c].pathLength)
			plans = append(plans, outcomes[c].paretoPlans)
		}
	}
	res.MedianPathLength = median(paths)
	res.MedianParetoPlans = median(plans)
	return res
}

// checkpointTimes returns the measurement grid t_k = (k+1)·Budget/K.
func checkpointTimes(s Scenario) []time.Duration {
	out := make([]time.Duration, s.Checkpoints)
	for k := range out {
		out[k] = time.Duration(k+1) * s.Budget / time.Duration(s.Checkpoints)
	}
	return out
}

// runCase generates test case c of the scenario and measures every
// algorithm on it. On a cancelled context it skips the (expensive)
// workload generation and algorithm setup and reports +Inf errors, the
// same encoding as "produced nothing".
func runCase(ctx context.Context, s Scenario, c int) caseOutcome {
	if ctx.Err() != nil {
		return cancelledOutcome(s)
	}
	rng := rand.New(rand.NewPCG(s.BaseSeed+uint64(c)*1_000_003, 0x7465737463617365))
	cat := catalog.Generate(catalog.GenSpec{
		Tables:      s.Tables,
		Graph:       s.Graph,
		Selectivity: s.Selectivity,
	}, rng)
	metrics := costmodel.ChooseMetrics(s.Metrics, rng)
	problem := opt.NewProblem(cat, metrics)

	out := caseOutcome{
		alphas:      make([][]float64, len(s.Algorithms)),
		pathLength:  math.NaN(),
		paretoPlans: math.NaN(),
	}
	snapshots := make([][][]cost.Vector, len(s.Algorithms))
	finals := make([][]cost.Vector, 0, len(s.Algorithms)+1)
	for ai, f := range s.Algorithms {
		if ctx.Err() != nil {
			// Init alone can be expensive (NSGA-II builds a whole
			// population); an empty snapshot row reads as +Inf error.
			snapshots[ai] = make([][]cost.Vector, s.Checkpoints)
			finals = append(finals, nil)
			continue
		}
		o := f.build()
		o.Init(problem, s.BaseSeed^(uint64(c)*2654435761+uint64(ai)*40503+17))
		snapshots[ai] = runTimed(ctx, o, s.Budget, s.Checkpoints)
		finals = append(finals, snapshots[ai][s.Checkpoints-1])
		if r, ok := o.(*core.RMQ); ok {
			st := r.Stats()
			out.pathLength = medianInts(st.PathLengths)
			out.paretoPlans = float64(len(o.Frontier()))
		}
	}
	if s.RefAlpha > 0 {
		if ref := referenceFrontier(ctx, problem, s.RefAlpha, s.RefBudget); ref != nil {
			finals = append(finals, ref)
		}
	}
	reference := quality.Union(finals...)
	for ai := range s.Algorithms {
		out.alphas[ai] = make([]float64, s.Checkpoints)
		for k := 0; k < s.Checkpoints; k++ {
			out.alphas[ai][k] = quality.Epsilon(snapshots[ai][k], reference)
		}
	}
	return out
}

// cancelledOutcome is the well-shaped outcome of a test case skipped by
// cancellation: +Inf error everywhere, no RMQ statistics.
func cancelledOutcome(s Scenario) caseOutcome {
	out := caseOutcome{
		alphas:      make([][]float64, len(s.Algorithms)),
		pathLength:  math.NaN(),
		paretoPlans: math.NaN(),
	}
	for ai := range out.alphas {
		out.alphas[ai] = make([]float64, s.Checkpoints)
		for k := range out.alphas[ai] {
			out.alphas[ai][k] = math.Inf(1)
		}
	}
	return out
}

// runTimed steps the optimizer through the shared driver loop until the
// budget expires (or it finishes), snapshotting the frontier's cost
// vectors at each checkpoint.
func runTimed(ctx context.Context, o opt.Optimizer, budget time.Duration, checkpoints int) [][]cost.Vector {
	start := time.Now()
	snaps := make([][]cost.Vector, 0, checkpoints)
	interval := budget / time.Duration(checkpoints)
	opt.Drive(ctx, o, 0, func(int) bool {
		elapsed := time.Since(start)
		for len(snaps) < checkpoints && elapsed >= time.Duration(len(snaps)+1)*interval {
			snaps = append(snaps, opt.Costs(o.Frontier()))
		}
		return elapsed < budget && len(snaps) < checkpoints
	})
	final := opt.Costs(o.Frontier())
	for len(snaps) < checkpoints {
		snaps = append(snaps, final)
	}
	return snaps
}

// referenceFrontier runs DP(alpha) to completion (within refBudget) and
// returns its frontier's cost vectors, or nil if it could not finish.
func referenceFrontier(ctx context.Context, problem *opt.Problem, alpha float64, refBudget time.Duration) []cost.Vector {
	if refBudget <= 0 {
		refBudget = 30 * time.Second
	}
	o := dp.New(alpha)
	o.Init(problem, 0)
	start := time.Now()
	opt.Drive(ctx, o, 0, func(int) bool {
		return time.Since(start) <= refBudget
	})
	if !o.Done() {
		return nil
	}
	return opt.Costs(o.Frontier())
}

// median returns the median of vals (NaN for empty input). +Inf values
// participate normally: if most runs produced nothing, the median is
// +Inf, exactly like the paper's off-scale curves.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	mid := len(v) / 2
	if len(v)%2 == 1 {
		return v[mid]
	}
	lo, hi := v[mid-1], v[mid]
	if math.IsInf(hi, 1) {
		// Avoid Inf-Inf artifacts: the median of {x, +Inf} is reported
		// as +Inf only if both halves are infinite.
		if math.IsInf(lo, 1) {
			return hi
		}
		return lo
	}
	return (lo + hi) / 2
}

func medianInts(vals []int) float64 {
	f := make([]float64, len(vals))
	for i, v := range vals {
		f[i] = float64(v)
	}
	return median(f)
}
