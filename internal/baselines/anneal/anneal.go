// Package anneal implements the SA baseline: a multi-objective
// generalization of the SAIO simulated annealing variant described by
// Steinbrunn et al. The original algorithm decides whether to move to a
// randomly selected neighbor based on the scalar cost difference and the
// current temperature; the generalization (paper, Section 6.1) uses the
// cost difference averaged over all cost metrics.
//
// Because cost magnitudes differ wildly between metrics and queries, the
// averaged difference is computed on *relative* costs (difference divided
// by the current plan's cost per metric), making the temperature scale
// dimensionless. The cooling schedule follows SAIO: a number of moves
// proportional to the plan size per temperature stage, geometric cooling,
// and freezing at a minimum temperature — after which the algorithm has
// finished (SA, like 2P, "spends most of its time improving one single
// query plan", which is exactly why the paper finds it ill-suited for
// frontier approximation).
package anneal

import (
	"math"
	"math/rand/v2"

	"rmq/internal/mutate"
	"rmq/internal/opt"
	"rmq/internal/plan"
	"rmq/internal/randplan"
)

// Config tunes the annealing schedule. The zero value selects the
// defaults used in the experiments.
type Config struct {
	// StartTemp is the initial dimensionless temperature; 0 means the
	// SAIO-style default of 2 (with relative cost deltas, a temperature
	// of 2 initially accepts almost every uphill move, mirroring SAIO's
	// "twice the cost of the start plan").
	StartTemp float64
	// CoolRate is the geometric cooling factor per stage; 0 means 0.95.
	CoolRate float64
	// FreezeTemp stops the annealing; 0 means 1e-4.
	FreezeTemp float64
	// MovesPerStageFactor scales the stage length 16·n; 0 means 1.
	MovesPerStageFactor float64
	// Start forces the initial plan (used by two-phase optimization);
	// nil draws a random plan.
	Start *plan.Plan
}

func (c Config) startTemp() float64 {
	if c.StartTemp <= 0 {
		return 2
	}
	return c.StartTemp
}

func (c Config) coolRate() float64 {
	if c.CoolRate <= 0 {
		return 0.95
	}
	return c.CoolRate
}

func (c Config) freezeTemp() float64 {
	if c.FreezeTemp <= 0 {
		return 1e-4
	}
	return c.FreezeTemp
}

// SA is the simulated annealing optimizer; it implements opt.Optimizer.
type SA struct {
	cfg     Config
	problem *opt.Problem
	rng     *rand.Rand
	archive opt.Archive

	current    *plan.Plan
	temp       float64
	stageLen   int
	stageMoves int
	frozen     bool
}

// New returns an uninitialized SA optimizer with the given
// configuration.
func New(cfg Config) *SA { return &SA{cfg: cfg} }

func init() {
	opt.Register("sa", func(opt.Spec) (opt.Optimizer, error) {
		return New(Config{}), nil
	})
}

// Name implements opt.Optimizer.
func (o *SA) Name() string { return "SA" }

// Init implements opt.Optimizer.
func (o *SA) Init(p *opt.Problem, seed uint64) {
	o.problem = p
	o.rng = rand.New(rand.NewPCG(seed, 0x5341)) // "SA"
	o.archive.Reset()
	if o.cfg.Start != nil {
		o.current = o.cfg.Start
	} else {
		o.current = randplan.Random(p.Model, p.Query, o.rng)
	}
	o.archive.Add(o.current)
	o.temp = o.cfg.startTemp()
	n := p.Query.Count()
	factor := o.cfg.MovesPerStageFactor
	if factor <= 0 {
		factor = 1
	}
	o.stageLen = int(math.Max(1, factor*16*float64(n)))
	o.stageMoves = 0
	o.frozen = false
}

// relativeDelta is the mean over all cost metrics of the relative cost
// difference between the neighbor and the current plan. Negative values
// mean the neighbor is better on average.
func relativeDelta(cur, nb *plan.Plan) float64 {
	const floor = 1e-9
	sum := 0.0
	l := cur.Cost.Dim()
	for i := 0; i < l; i++ {
		c := math.Max(cur.Cost.At(i), floor)
		sum += (nb.Cost.At(i) - cur.Cost.At(i)) / c
	}
	return sum / float64(l)
}

// Step proposes one random neighbor and applies the Metropolis
// acceptance rule; it returns false once the system is frozen.
func (o *SA) Step() bool {
	if o.frozen {
		return false
	}
	nb := mutate.RandomNeighbor(o.problem.Model, o.current, o.rng)
	delta := relativeDelta(o.current, nb)
	if delta <= 0 || o.rng.Float64() < math.Exp(-delta/o.temp) {
		o.current = nb
		o.archive.Add(nb)
	}
	o.stageMoves++
	if o.stageMoves >= o.stageLen {
		o.stageMoves = 0
		o.temp *= o.cfg.coolRate()
		if o.temp < o.cfg.freezeTemp() {
			o.frozen = true
		}
	}
	return !o.frozen
}

// Frontier implements opt.Optimizer.
func (o *SA) Frontier() []*plan.Plan { return o.archive.Plans() }

// Current exposes the current plan (used by tests).
func (o *SA) Current() *plan.Plan { return o.current }

// Temperature exposes the current temperature (used by tests).
func (o *SA) Temperature() float64 { return o.temp }
