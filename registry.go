package rmq

import (
	"rmq/internal/opt"

	// The built-in algorithms register themselves with the algorithm
	// registry from their init functions.
	_ "rmq/internal/baselines/anneal"
	_ "rmq/internal/baselines/dp"
	_ "rmq/internal/baselines/iterimp"
	_ "rmq/internal/baselines/nsga2"
	_ "rmq/internal/baselines/twophase"
	_ "rmq/internal/baselines/weighted"
	_ "rmq/internal/core"
)

// Algorithm selects the optimization algorithm by registry name.
type Algorithm string

// Built-in algorithms. All seven are pre-registered; Algorithms lists
// the full set including externally registered ones.
const (
	// AlgoRMQ is the paper's randomized multi-objective optimizer
	// (default).
	AlgoRMQ Algorithm = "rmq"
	// AlgoII is multi-objective iterative improvement.
	AlgoII Algorithm = "ii"
	// AlgoSA is multi-objective simulated annealing.
	AlgoSA Algorithm = "sa"
	// Algo2P is two-phase optimization.
	Algo2P Algorithm = "2p"
	// AlgoNSGA2 is the NSGA-II genetic algorithm.
	AlgoNSGA2 Algorithm = "nsga2"
	// AlgoDP is the dynamic-programming approximation scheme; set
	// WithDPAlpha (default 2). Exponential in the table count — use
	// for small queries only.
	AlgoDP Algorithm = "dp"
	// AlgoWS is the weighted-sum scalarization baseline. It can recover
	// at most the convex hull of the Pareto frontier (see the paper's
	// related-work discussion); provided for comparison.
	AlgoWS Algorithm = "ws"
)

// Optimizer is the anytime optimizer contract an algorithm implements to
// participate in optimization runs: Init once per run, Step until
// stopped, Frontier for the current result plan set. Implementations
// need not be concurrency-safe; parallel runs give every worker its own
// instance.
type Optimizer = opt.Optimizer

// Problem is one optimization instance handed to Optimizer.Init: the
// query (all catalog tables) plus the cost model to build and evaluate
// plans with. The cost model is safe for concurrent use; the problem's
// retained optimizer state is not, so one optimizer at a time runs on
// it.
type Problem = opt.Problem

// AlgorithmSpec carries the per-run knobs an algorithm factory may
// consult, e.g. the DP approximation factor.
type AlgorithmSpec = opt.Spec

// AlgorithmFactory constructs a fresh, uninitialized optimizer instance
// for one run (or one worker of a parallel run). Factories must be safe
// for concurrent use and may reject a spec with an error.
type AlgorithmFactory = opt.AlgorithmFactory

// RegisterAlgorithm makes an external algorithm selectable via
// WithAlgorithm(name), exactly like the seven built-ins. It panics if
// the name is empty or already registered — registration is an
// init-time act, like sql.Register. Typical use:
//
//	rmq.RegisterAlgorithm("greedy", func(rmq.AlgorithmSpec) (rmq.Optimizer, error) {
//		return newGreedy(), nil
//	})
func RegisterAlgorithm(name Algorithm, factory AlgorithmFactory) {
	opt.Register(string(name), factory)
}

// Algorithms returns the names of all registered algorithms, sorted.
func Algorithms() []Algorithm {
	names := opt.Names()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}
