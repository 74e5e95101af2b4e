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

// ClimbConfig configures Pareto climbing. It has no fields: the one
// climb is the paper's, over the bushy space — Algorithm 2's
// single-incumbent ParetoStep, which returns one non-dominated plan per
// node pruned on cost alone (the mode Lemma 2's complexity analysis
// assumes). It stays NewClimber's parameter so existing callers, the
// rmqbench module among them, keep compiling.
type ClimbConfig struct{}

// maxClimbSteps bounds the number of climbing moves on an n-table plan
// as a defensive limit. The expected path length is O(n) (Theorem 2), so
// the bound is never hit in practice.
func maxClimbSteps(n int) int { return 16*n + 64 }

// Climber performs multi-objective hill climbing over bushy plans of one
// cost model, in place on a scratch plan arena (climbinplace.go). It
// reuses internal buffers and is not safe for concurrent use.
type Climber struct {
	model   *costmodel.Model
	scratch *plan.Scratch
	// undoLog journals the in-place changes of the current speculative
	// climbing pass so a pass failing the strict-improvement gate can be
	// reverted (see Climb).
	undoLog []mutate.Undo
	// ev, evRootA and evRootB are reusable evaluator buffers for the
	// move search; keeping them out of the recursion frames avoids
	// re-zeroing them on every node visit.
	ev               costmodel.JoinEval
	evRootA, evRootB costmodel.OpEval
	// vecBuf receives batch-priced candidate cost vectors (RuleCostAll).
	vecBuf [16]cost.Vector
	// prepared and priced count the move search's work since the
	// climber was built: evaluator preparations (PrepareJoin calls) and
	// candidate operators priced. Benchmarks report them.
	prepared, priced uint64
}

// NewClimber returns a climber over the model.
func NewClimber(m *costmodel.Model, _ ClimbConfig) *Climber {
	return &Climber{model: m, scratch: plan.NewScratch()}
}
