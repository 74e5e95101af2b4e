// Package weighted implements the weighted-sum (WS) baseline the paper's
// related-work section warns about: mapping multi-objective optimization
// onto single-objective optimization by scalarizing the cost vector with
// varying weight vectors. Every run draws a random weight vector, hill
// climbs the scalar objective from a random plan, and archives the
// result.
//
// As the paper notes, this approach "will not yield the Pareto frontier
// but at most a subset of it (the convex hull)": plans realizing
// non-convex trade-offs minimize no weighted sum and are structurally
// unreachable, no matter how many weight vectors are tried. The package
// exists to make that limitation measurable against RMQ (see
// BenchmarkExtensionWeightedSum at the repository root).
package weighted

import (
	"math"
	"math/rand/v2"

	"rmq/internal/mutate"
	"rmq/internal/opt"
	"rmq/internal/plan"
	"rmq/internal/randplan"
)

// Config tunes the weighted-sum baseline. The zero value uses the
// defaults documented on the fields.
type Config struct {
	// Patience is the number of consecutive non-improving random
	// neighbors after which a descent stops; 0 means 8·n for an n-table
	// query.
	Patience int
}

// WS is the weighted-sum optimizer; it implements opt.Optimizer.
type WS struct {
	cfg     Config
	problem *opt.Problem
	rng     *rand.Rand
	archive opt.Archive
}

// New returns an uninitialized weighted-sum optimizer.
func New(cfg Config) *WS { return &WS{cfg: cfg} }

func init() {
	opt.Register("ws", func(opt.Spec) (opt.Optimizer, error) {
		return New(Config{}), nil
	})
}

// Name implements opt.Optimizer.
func (o *WS) Name() string { return "WS" }

// Init implements opt.Optimizer.
func (o *WS) Init(p *opt.Problem, seed uint64) {
	o.problem = p
	o.rng = rand.New(rand.NewPCG(seed, 0x5753)) // "WS"
	o.archive.Reset()
}

// Step draws a random weight vector, descends the scalarized objective
// from a random plan by first-improvement local search, and archives the
// local optimum. WS never finishes on its own.
func (o *WS) Step() bool {
	m := o.problem.Model
	w := o.randomWeights(o.problem.Dim())
	p := randplan.Random(m, o.problem.Query, o.rng)
	patience := o.cfg.Patience
	if patience <= 0 {
		patience = 8 * o.problem.Query.Count()
	}
	fails := 0
	cur := score(p, w)
	for fails < patience {
		nb := mutate.RandomNeighbor(m, p, o.rng)
		if s := score(nb, w); s < cur {
			p, cur = nb, s
			fails = 0
		} else {
			fails++
		}
	}
	o.archive.Add(p)
	return true
}

// randomWeights draws a weight vector uniformly from the probability
// simplex (exponential spacings).
func (o *WS) randomWeights(l int) []float64 {
	w := make([]float64, l)
	sum := 0.0
	for i := range w {
		w[i] = o.rng.ExpFloat64()
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// score is the scalarized objective: the weighted sum of log-scaled cost
// components. The log keeps wildly different metric magnitudes
// commensurable; it is strictly monotone per component, so every scalar
// minimizer is still Pareto-optimal — but only convex (in log space)
// trade-offs are ever minimizers.
func score(p *plan.Plan, w []float64) float64 {
	s := 0.0
	for i := range w {
		s += w[i] * math.Log1p(p.Cost.At(i))
	}
	return s
}

// Frontier implements opt.Optimizer.
func (o *WS) Frontier() []*plan.Plan { return o.archive.Plans() }
