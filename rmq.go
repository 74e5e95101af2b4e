// Package rmq is a multi-objective query optimization library. It
// implements RMQ, the randomized multi-objective query optimizer of
// Trummer and Koch ("A Fast Randomized Algorithm for Multi-Objective
// Query Optimization", SIGMOD 2016) — the first algorithm for the problem
// with polynomial time complexity per iteration — together with the full
// competitor field of the paper's evaluation: dynamic-programming
// approximation schemes (DP(α)) and multi-objective generalizations of
// iterative improvement, simulated annealing, two-phase optimization and
// NSGA-II.
//
// Multi-objective query optimization compares query plans under several
// cost metrics at once (here: execution time, buffer space and disc
// space) and computes the plans realizing Pareto-optimal cost trade-offs,
// from which a caller picks by preference — e.g. with cost weights or
// bounds.
//
// # Quick start
//
// Optimization is context-driven: the context's deadline or cancellation
// ends the anytime refinement loop, and whatever frontier has been found
// by then is returned.
//
//	cat := rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 20, Graph: rmq.Chain}, 1)
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	frontier, err := rmq.Optimize(ctx, cat)
//	...
//	best := frontier.Best(map[rmq.Metric]float64{rmq.MetricTime: 1})
//
// Runs are configured with functional options:
//
//	frontier, err := rmq.Optimize(ctx, cat,
//		rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer),
//		rmq.WithSeed(7),
//		rmq.WithParallelism(4),                  // 4 multi-start workers
//		rmq.OnImprovement(func(p rmq.Progress) { // stream anytime results
//			log.Printf("iter %d: %d plans", p.Iterations, len(p.Plans))
//		}))
//
// Applications issuing many queries against the same database should
// create a Session once and call its Optimize method per query: sessions
// hold the catalog and default options and are safe for concurrent use.
//
//	sess, err := rmq.NewSession(cat, rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer))
//	...
//	frontier, err := sess.Optimize(ctx, rmq.WithSeed(1))
//
// Sessions serving sustained traffic should additionally enable
// WithSharedCache: the session then retains the plan cache — the
// sub-plan Pareto frontiers nearly all iteration work is answered from
// once warm — and the workers' warmed cost-model state across Optimize
// calls, and shares the cache among the parallel workers of each run,
// so repeated and overlapping queries warm-start at a fraction of the
// cold cost (WithCacheRetention bounds the retained memory).
//
// To serve optimization over the network, cmd/rmqd wraps sessions in an
// HTTP/JSON service with per-request deadlines, admission control, and
// streamed anytime snapshots (see internal/server).
//
// Algorithms beyond the built-in seven can be plugged in through
// RegisterAlgorithm. See the examples directory for complete programs and
// internal/harness for the reproduction of the paper's experiments.
package rmq

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"time"

	"rmq/internal/cache"
	"rmq/internal/catalog"
	"rmq/internal/cost"
	"rmq/internal/costmodel"
	"rmq/internal/opt"
	"rmq/internal/plan"
)

// Re-exported building blocks of the public API. The aliases keep a
// single authoritative definition in the internal packages while giving
// library users stable top-level names.
type (
	// Catalog is a database instance: base tables plus a join graph with
	// predicate selectivities.
	Catalog = catalog.Catalog
	// Table describes one base table (name and cardinality in rows).
	Table = catalog.Table
	// Edge is a join-graph edge with its predicate selectivity.
	Edge = catalog.Edge
	// Plan is a physical query plan node.
	Plan = plan.Plan
	// CostVector is a plan's cost under the chosen metrics.
	CostVector = cost.Vector
	// Metric identifies one cost metric.
	Metric = costmodel.Metric
	// GraphKind selects a join graph shape for generated workloads.
	GraphKind = catalog.GraphKind
	// SelectivityModel selects how generated workloads draw predicate
	// selectivities.
	SelectivityModel = catalog.SelectivityModel
)

// Cost metrics.
const (
	// MetricTime is estimated execution time.
	MetricTime = costmodel.Time
	// MetricBuffer is peak buffer space in pages.
	MetricBuffer = costmodel.Buffer
	// MetricDisc is temporary disc space in pages.
	MetricDisc = costmodel.Disc
)

// Join graph shapes for generated workloads.
const (
	Chain = catalog.Chain
	Cycle = catalog.Cycle
	Star  = catalog.Star
)

// Selectivity models for generated workloads.
const (
	// Steinbrunn draws log-uniform selectivities (the paper's default
	// generator).
	Steinbrunn = catalog.Steinbrunn
	// MinMax draws join output cardinalities between the input
	// cardinalities (Bruno's method, used in the paper's appendix).
	MinMax = catalog.MinMax
)

// NewCatalog builds a catalog from tables and join edges; table indices
// in edges refer to positions in the tables slice. Unconnected table
// pairs join as cross products.
func NewCatalog(tables []Table, edges []Edge) (*Catalog, error) {
	return catalog.New(tables, edges)
}

// WorkloadSpec parameterizes random workload generation, mirroring the
// paper's test case generator.
type WorkloadSpec struct {
	// Tables is the number of base tables (the query joins all of them).
	Tables int
	// Graph is the join graph shape; default Chain.
	Graph GraphKind
	// Selectivity is the selectivity model; default Steinbrunn.
	Selectivity SelectivityModel
}

// ParseGraph maps a join-graph shape name ("chain", "cycle", "star",
// case-insensitive) to its GraphKind; the empty string selects the
// default, Chain. Both the rmqopt CLI and the rmqd service accept graph
// shapes by these names.
func ParseGraph(name string) (GraphKind, error) {
	switch strings.ToLower(name) {
	case "", "chain":
		return Chain, nil
	case "cycle":
		return Cycle, nil
	case "star":
		return Star, nil
	default:
		return Chain, fmt.Errorf("rmq: unknown graph %q (want chain, cycle or star)", name)
	}
}

// ParseSelectivity maps a selectivity-model name ("steinbrunn",
// "minmax", case-insensitive) to its SelectivityModel; the empty string
// selects the default, Steinbrunn.
func ParseSelectivity(name string) (SelectivityModel, error) {
	switch strings.ToLower(name) {
	case "", "steinbrunn":
		return Steinbrunn, nil
	case "minmax":
		return MinMax, nil
	default:
		return Steinbrunn, fmt.Errorf("rmq: unknown selectivity model %q (want steinbrunn or minmax)", name)
	}
}

// GenerateCatalog builds a random catalog: stratified cardinalities and
// the requested join graph, deterministic in the seed.
func GenerateCatalog(spec WorkloadSpec, seed uint64) *Catalog {
	rng := rand.New(rand.NewPCG(seed, 0x524d51c7))
	return catalog.Generate(catalog.GenSpec{
		Tables:      spec.Tables,
		Graph:       spec.Graph,
		Selectivity: spec.Selectivity,
	}, rng)
}

// Frontier is the result of an optimization run: the plans approximating
// the Pareto frontier of the query, plus run statistics.
type Frontier struct {
	// Plans are the mutually non-dominated result plans, sorted by cost
	// (lexicographically over the metric components).
	Plans []*Plan
	// Metrics is the metric subset the costs refer to.
	Metrics []Metric
	// Iterations is the number of optimizer steps performed, summed
	// across parallel workers.
	Iterations int
	// Elapsed is the wall-clock optimization time.
	Elapsed time.Duration
}

// Optimize computes an approximation of the Pareto plan set for joining
// all tables of the catalog.
//
// The run ends when the context is cancelled or its deadline expires,
// when WithTimeout or WithMaxIterations bounds are hit, or when the
// algorithm finishes (only the exhaustive ones do). Cancellation is not
// an error: the frontier found so far is returned — the anytime
// semantics of the paper. If neither the context nor an option bounds
// the run, a default timeout of one second applies.
//
// For repeated queries against the same catalog, create a Session once
// and call its Optimize method instead.
func Optimize(ctx context.Context, cat *Catalog, opts ...Option) (*Frontier, error) {
	s, err := NewSession(cat)
	if err != nil {
		return nil, err
	}
	return s.Optimize(ctx, opts...)
}

// newOptimizer constructs a fresh optimizer instance for one worker of a
// run from the resolved configuration, via the algorithm registry.
// shared, when non-nil, is the session's concurrent plan cache the
// worker should publish into and warm-start from (see WithSharedCache).
func newOptimizer(cfg config, shared *cache.Shared) (opt.Optimizer, error) {
	name := cfg.algorithm
	if name == "" {
		name = AlgoRMQ
	}
	o, err := opt.NewNamed(string(name), opt.Spec{DPAlpha: cfg.dpAlpha, SharedCache: shared})
	if err != nil {
		return nil, fmt.Errorf("rmq: %w", err)
	}
	return o, nil
}

// sortPlans orders plans by cost, lexicographically over the metric
// components, so result order is deterministic regardless of merge
// interleaving in parallel runs.
func sortPlans(plans []*Plan) {
	slices.SortFunc(plans, func(a, b *Plan) int {
		n := min(a.Cost.Dim(), b.Cost.Dim())
		for i := 0; i < n; i++ {
			if c := cmp.Compare(a.Cost.At(i), b.Cost.At(i)); c != 0 {
				return c
			}
		}
		return 0
	})
}

// Best selects the frontier plan minimizing the weighted sum of
// log-normalized costs: each metric contributes w · log(cost / min),
// where min is the frontier's best value for that metric. The log scale
// makes weights express relative importance across the many orders of
// magnitude that plan costs span (this is the cost-weight preference
// model referenced in the paper's introduction). Metrics missing from
// weights get weight 0; if weights is nil, all metrics weigh equally.
// It returns nil on an empty frontier.
func (f *Frontier) Best(weights map[Metric]float64) *Plan {
	if len(f.Plans) == 0 {
		return nil
	}
	l := len(f.Metrics)
	mins := make([]float64, l)
	for i := range mins {
		mins[i] = math.Inf(1)
		for _, p := range f.Plans {
			if c := p.Cost.At(i); c < mins[i] {
				mins[i] = c
			}
		}
		if mins[i] <= 0 {
			mins[i] = 1
		}
	}
	var best *Plan
	bestScore := math.Inf(1)
	for _, p := range f.Plans {
		score := 0.0
		for i, m := range f.Metrics {
			w := 1.0
			if weights != nil {
				w = weights[m]
			}
			score += w * math.Log(math.Max(p.Cost.At(i), 1e-9)/mins[i])
		}
		if score < bestScore {
			bestScore = score
			best = p
		}
	}
	return best
}

// WithinBounds returns the frontier plans whose cost does not exceed the
// given bound for any bounded metric (the cost-bound preference model of
// the paper's introduction). Metrics absent from bounds are unbounded.
func (f *Frontier) WithinBounds(bounds map[Metric]float64) []*Plan {
	var out []*Plan
	for _, p := range f.Plans {
		ok := true
		for i, m := range f.Metrics {
			if b, bounded := bounds[m]; bounded && p.Cost.At(i) > b {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, p)
		}
	}
	return out
}

// String renders the frontier as a table of cost trade-offs, one row per
// plan.
func (f *Frontier) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "frontier: %d plans after %d iterations in %v\n",
		len(f.Plans), f.Iterations, f.Elapsed.Round(time.Millisecond))
	for i, m := range f.Metrics {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%8s", m)
	}
	b.WriteByte('\n')
	for _, p := range f.Plans {
		for i := range f.Metrics {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%8.3g", p.Cost.At(i))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// validCatalog guards the public entry points against nil catalogs.
func validCatalog(cat *Catalog) error {
	if cat == nil {
		return errors.New("rmq: nil catalog")
	}
	return nil
}
