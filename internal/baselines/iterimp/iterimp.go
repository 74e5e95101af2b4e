// Package iterimp implements the II baseline of the paper's evaluation: a
// multi-objective generalization of iterative improvement (Steinbrunn et
// al.). Each iteration starts from a fresh random bushy plan and walks to
// a local Pareto optimum; all local optima found so far form the result
// set.
//
// As in the paper, II uses the same efficient climbing function
// (Algorithm 2) as RMQ itself — the difference to RMQ is that II neither
// approximates frontiers around local optima nor shares partial plans
// across iterations through a plan cache. Comparing the two isolates the
// value of the frontier-approximation and caching machinery.
package iterimp

import (
	"math/rand/v2"

	"rmq/internal/core"
	"rmq/internal/opt"
	"rmq/internal/plan"
	"rmq/internal/randplan"
)

// II is the iterative improvement optimizer; it implements
// opt.Optimizer.
type II struct {
	problem *opt.Problem
	rng     *rand.Rand
	climber *core.Climber
	archive opt.Archive
}

// New returns an uninitialized II optimizer.
func New() *II { return &II{} }

func init() {
	opt.Register("ii", func(opt.Spec) (opt.Optimizer, error) {
		return New(), nil
	})
}

// Name implements opt.Optimizer.
func (o *II) Name() string { return "II" }

// Init implements opt.Optimizer.
func (o *II) Init(p *opt.Problem, seed uint64) {
	o.problem = p
	o.rng = rand.New(rand.NewPCG(seed, 0x4949)) // "II"
	o.climber = core.NewClimber(p.Model, core.ClimbConfig{})
	o.archive.Reset()
}

// Step runs one iteration: random plan, climb, archive the local optimum.
func (o *II) Step() bool {
	p := randplan.Random(o.problem.Model, o.problem.Query, o.rng)
	optPlan, _ := o.climber.Climb(p)
	o.archive.Add(optPlan)
	return true
}

// Frontier implements opt.Optimizer.
func (o *II) Frontier() []*plan.Plan { return o.archive.Plans() }
