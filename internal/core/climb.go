// Package core implements RMQ, the paper's primary contribution: the
// first polynomial-time randomized algorithm for multi-objective query
// optimization (Algorithms 1–3).
//
// This file implements the fast multi-objective hill climbing of
// Algorithm 2. Compared to naive hill climbing it incorporates both
// efficiency techniques of Section 4.2:
//
//  1. Local pruning by sub-plan cost (multi-objective principle of
//     optimality): mutations are evaluated at the node they apply to,
//     never by re-costing the complete plan, reducing per-step complexity
//     from quadratic to linear in the number of tables.
//  2. Simultaneous mutations in independent sub-trees: ParetoStep
//     recursively improves the outer and inner sub-plans before mutating
//     the node itself, so one climbing step can apply many beneficial
//     transformations across the tree at once, shortening the path to a
//     local optimum.
//
//rmq:deterministic
//rmq:cancelable
package core

import (
	"rmq/internal/cost"
	"rmq/internal/costmodel"
	"rmq/internal/mutate"
	"rmq/internal/plan"
)

// ClimbConfig configures Pareto climbing. The zero value is the paper's
// climb over the bushy space: Algorithm 2's single-incumbent ParetoStep,
// which returns one non-dominated plan per node pruned on cost alone
// (the mode Lemma 2's complexity analysis assumes).
type ClimbConfig struct {
	// Space selects the join order space whose transformation rules the
	// climb applies (Section 4.1: the algorithm adapts to e.g. left-deep
	// spaces by exchanging the transformation set). Default Bushy.
	Space mutate.Space
}

// maxClimbSteps bounds the number of climbing moves on an n-table plan
// as a defensive limit. The expected path length is O(n) (Theorem 2), so
// the bound is never hit in practice.
func maxClimbSteps(n int) int { return 16*n + 64 }

// Climber performs multi-objective hill climbing over plans of one cost
// model. Bushy plans climb in place on a scratch arena (climbinplace.go);
// left-deep plans climb through genericParetoStep over the space's
// transformation rules. It reuses internal buffers (a candidate buffer
// and a scratch plan arena) and is not safe for concurrent use.
type Climber struct {
	model   *costmodel.Model
	space   mutate.Space
	buf     []*plan.Plan
	scratch *plan.Scratch
	// undoLog journals the in-place changes of the current speculative
	// climbing pass so a pass failing the strict-improvement gate can be
	// reverted (see climbInPlace).
	undoLog []mutate.Undo
	// evNode, evChild, evRootA and evRootB are reusable evaluator
	// buffers for the move search; keeping them out of the recursion
	// frames avoids re-zeroing them on every node visit.
	evNode, evChild  costmodel.JoinEval
	evRootA, evRootB costmodel.OpEval
	// vecBuf receives batch-priced candidate cost vectors (OpCostAll).
	vecBuf [16]cost.Vector
	// cards caches candidate-join cardinalities for the current climb.
	cards cardCache
}

// NewClimber returns a climber over the model with the given
// configuration.
func NewClimber(m *costmodel.Model, cfg ClimbConfig) *Climber {
	return &Climber{model: m, space: cfg.Space, scratch: plan.NewScratch()}
}

// Climb is the ParetoClimb function of Algorithm 2: it repeatedly applies
// climbing steps until no step yields a plan strictly dominating the
// current one, returning the locally Pareto-optimal plan and the path
// length (number of improving moves) — the statistic of Figure 3.
//
// Over the bushy space the whole climb runs in place on a scratch copy
// of p and only the final plan is materialized; the input plan and the
// result are immutable as ever.
func (c *Climber) Climb(p *plan.Plan) (*plan.Plan, int) {
	if c.space == mutate.Bushy {
		return c.climbInPlace(p)
	}
	limit := maxClimbSteps(p.Rel.Count())
	steps := 0
	//rmq:allow-loop(bounded by maxClimbSteps; steps increments every iteration)
	for steps < limit {
		next := c.Step(p)
		if next == nil {
			break
		}
		p = next
		steps++
	}
	return p, steps
}

// Step performs one climbing move, returning a plan that strictly
// dominates p, or nil when p is a local Pareto optimum for the step
// function. The returned plan is immutable; over the bushy space the
// move search runs allocation-free on a scratch copy and only an
// improved result is materialized.
func (c *Climber) Step(p *plan.Plan) *plan.Plan {
	if c.space == mutate.Bushy {
		return c.stepInPlace(p)
	}
	if pm := c.genericParetoStep(p); pm.Cost.StrictlyDominates(p.Cost) {
		return pm
	}
	return nil
}

// genericParetoStep is the single-incumbent ParetoStep over an arbitrary
// transformation set (used for the left-deep space): children are
// improved recursively, then every mutation of the rebuilt node is tried
// and the incumbent replaced by strict dominators.
func (c *Climber) genericParetoStep(p *plan.Plan) *plan.Plan {
	if !p.IsJoin() {
		best := p
		for _, op := range plan.AllScanOps() {
			if op == p.Scan {
				continue
			}
			if cand := c.model.NewScan(p.Table, op); cand.Cost.StrictlyDominates(best.Cost) {
				best = cand
			}
		}
		return best
	}
	outer := c.genericParetoStep(p.Outer)
	inner := c.genericParetoStep(p.Inner)
	rebuilt := p
	if outer != p.Outer || inner != p.Inner {
		rebuilt = c.model.NewJoinForSet(mutate.PickRootOp(p.Join, inner.Output), outer, inner, p.Card, p.Rel, p.RelID)
	}
	best := rebuilt
	c.buf = mutate.AppendIn(c.space, c.model, rebuilt, c.buf[:0])
	for _, mu := range c.buf {
		if mu.Cost.StrictlyDominates(best.Cost) {
			best = mu
		}
	}
	return best
}
