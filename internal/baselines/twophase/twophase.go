// Package twophase implements the 2P baseline: two-phase optimization
// after Steinbrunn et al., generalized to multiple cost metrics. Phase
// one runs iterative improvement from random plans for a fixed number of
// iterations (ten, as in the paper); phase two continues with simulated
// annealing from the most promising plan found, using a reduced initial
// temperature (a tenth of the II start temperature, mirroring 2PO's
// "0.1 times the cost of the best plan").
package twophase

import (
	"math"

	"rmq/internal/baselines/anneal"
	"rmq/internal/baselines/iterimp"
	"rmq/internal/opt"
	"rmq/internal/plan"
)

// iiIterations is the number of phase-one iterative improvement starts.
const iiIterations = 10

// TwoPhase is the 2P optimizer; it implements opt.Optimizer.
type TwoPhase struct {
	problem *opt.Problem
	seed    uint64
	ii      *iterimp.II
	sa      *anneal.SA
	iiSteps int
	archive opt.Archive
}

// New returns an uninitialized 2P optimizer.
func New() *TwoPhase { return &TwoPhase{} }

func init() {
	opt.Register("2p", func(opt.Spec) (opt.Optimizer, error) {
		return New(), nil
	})
}

// Name implements opt.Optimizer.
func (o *TwoPhase) Name() string { return "2P" }

// Init implements opt.Optimizer.
func (o *TwoPhase) Init(p *opt.Problem, seed uint64) {
	o.problem = p
	o.seed = seed
	o.ii = iterimp.New()
	o.ii.Init(p, seed)
	o.sa = nil
	o.iiSteps = 0
	o.archive.Reset()
}

// Step runs one phase-one iteration or, once phase one completes, one
// annealing move. It returns false when the annealing phase freezes.
func (o *TwoPhase) Step() bool {
	if o.iiSteps < iiIterations {
		o.ii.Step()
		o.iiSteps++
		if o.iiSteps == iiIterations {
			o.startPhaseTwo()
		}
		return true
	}
	return o.sa.Step()
}

// startPhaseTwo seeds simulated annealing with the most promising
// phase-one plan. With multiple cost metrics there is no single best
// plan; we pick the archived plan minimizing the mean log cost over the
// metrics, a scale-free scalarization.
func (o *TwoPhase) startPhaseTwo() {
	for _, p := range o.ii.Frontier() {
		o.archive.Add(p)
	}
	o.sa = anneal.New(anneal.Config{
		StartTemp: 0.2, // a tenth of the SA default start temperature of 2
		Start:     bestByMeanLogCost(o.ii.Frontier()),
	})
	o.sa.Init(o.problem, o.seed+1)
}

func bestByMeanLogCost(plans []*plan.Plan) *plan.Plan {
	var best *plan.Plan
	bestScore := math.Inf(1)
	for _, p := range plans {
		score := 0.0
		for i := 0; i < p.Cost.Dim(); i++ {
			score += math.Log(math.Max(p.Cost.At(i), 1e-9))
		}
		if score < bestScore {
			bestScore = score
			best = p
		}
	}
	return best
}

// Frontier implements opt.Optimizer: the union of phase-one results and
// the annealing archive.
func (o *TwoPhase) Frontier() []*plan.Plan {
	if o.sa == nil {
		return o.ii.Frontier()
	}
	for _, p := range o.sa.Frontier() {
		o.archive.Add(p)
	}
	return o.archive.Plans()
}
