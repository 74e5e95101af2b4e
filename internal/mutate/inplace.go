package mutate

// In-place application of the local transformation rules on mutable
// (plan.Scratch-owned) nodes. The climbing hot path evaluates candidate
// mutations by cost alone (see core's move search), then applies the
// selected move here without constructing plan nodes: every rule rewrites
// at most two nodes — the mutated node itself and, for the structural
// rules, the child node the rule detaches, which is recycled in place as
// the rule's new intermediate join. Apply returns an Undo snapshot so
// speculative callers can revert a move at the same cost.
//
// Apply must only be used on trees the caller owns exclusively (Scratch
// trees are strict trees); applying a move to a shared immutable plan
// corrupts every plan aliasing the rewritten nodes.

import (
	"rmq/internal/cost"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// MoveKind identifies one local transformation rule.
type MoveKind uint8

const (
	// NoMove is the zero MoveKind; applying it panics.
	NoMove MoveKind = iota
	// ScanSwap exchanges the scan operator of a scan node.
	ScanSwap
	// OpExchange replaces the join operator of a join node.
	OpExchange
	// Commute swaps outer and inner of a join node, installing operator
	// Op (enumerated over the operators applicable to the swapped
	// inputs).
	Commute
	// AssocLeft reassociates (A⋈B)⋈C into A⋈(B⋈C).
	AssocLeft
	// ExchangeLeft rewrites (A⋈B)⋈C into (A⋈C)⋈B.
	ExchangeLeft
	// AssocRight reassociates A⋈(B⋈C) into (A⋈B)⋈C.
	AssocRight
	// ExchangeRight rewrites A⋈(B⋈C) into B⋈(A⋈C).
	ExchangeRight
)

// Move describes one evaluated local transformation of a node, carrying
// every derived quantity the in-place application needs (costs and child
// cardinality come from the move search's evaluation, so Apply performs
// no cost model work).
type Move struct {
	Kind MoveKind
	// Scan is the new scan operator (ScanSwap only).
	Scan plan.ScanOp
	// Op is the new join operator of the mutated node.
	Op plan.JoinOp
	// Cost is the mutated node's new cost vector.
	Cost cost.Vector
	// ChildOp, ChildCost, ChildCard and ChildRel describe the
	// intermediate join node a structural rule creates.
	ChildOp   plan.JoinOp
	ChildCost cost.Vector
	ChildCard float64
	ChildRel  tableset.Set
}

// Undo snapshots the nodes a Move rewrote; Revert restores them.
type Undo struct {
	node       *plan.Plan
	saved      plan.Plan
	child      *plan.Plan
	childSaved plan.Plan
}

// Revert restores the rewritten nodes to their pre-Apply state.
//
//rmq:hotpath
func (u *Undo) Revert() {
	if u.child != nil {
		*u.child = u.childSaved
	}
	if u.node != nil {
		*u.node = u.saved
	}
}

// Snapshot returns an Undo that restores n to its current state. Callers
// that rewrite nodes outside Apply (e.g. re-costing an ancestor after a
// child mutation) journal a Snapshot first so a speculative sequence of
// in-place changes can be reverted as a unit (in reverse order).
//
//rmq:hotpath
func Snapshot(n *plan.Plan) Undo { return Undo{node: n, saved: *n} }

// setChildJoin recycles the detached node r as the structural rule's new
// intermediate join (outer ⋈ inner) with the given operator and derived
// quantities. Aux and RelID are cleared: the node is a fresh
// combination, and the climber interns the plan it returns.
func setChildJoin(r *plan.Plan, mv *Move, outer, inner *plan.Plan) {
	r.Outer, r.Inner = outer, inner
	r.Join = mv.ChildOp
	r.Output = mv.ChildOp.Output()
	r.Rel = mv.ChildRel
	r.RelID = 0
	r.Card = mv.ChildCard
	r.Cost = mv.ChildCost
	r.Aux = 0
}

// Apply performs the move on node n in place, returning an Undo snapshot.
// n must be a mutable node of a tree the caller owns exclusively. The
// node's table set and cardinality are preserved by every rule; only the
// structural rules touch a second node (the recycled child).
//
//rmq:hotpath
func Apply(n *plan.Plan, mv *Move) Undo {
	u := Undo{node: n, saved: *n}
	switch mv.Kind {
	case ScanSwap:
		n.Scan = mv.Scan
		n.Cost = mv.Cost
		// Scan output is Materialized for every operator; no change.
	case OpExchange:
		n.Join = mv.Op
		n.Output = mv.Op.Output()
		n.Cost = mv.Cost
	case Commute:
		n.Outer, n.Inner = n.Inner, n.Outer
		n.Join = mv.Op
		n.Output = mv.Op.Output()
		n.Cost = mv.Cost
	case AssocLeft: // (A⋈B)⋈C → A⋈(B⋈C), recycling the old outer as B⋈C
		r := n.Outer
		u.child, u.childSaved = r, *r
		a, b, c := r.Outer, r.Inner, n.Inner
		setChildJoin(r, mv, b, c)
		n.Outer, n.Inner = a, r
	case ExchangeLeft: // (A⋈B)⋈C → (A⋈C)⋈B, recycling the old outer as A⋈C
		r := n.Outer
		u.child, u.childSaved = r, *r
		a, b, c := r.Outer, r.Inner, n.Inner
		setChildJoin(r, mv, a, c)
		n.Outer, n.Inner = r, b
	case AssocRight: // A⋈(B⋈C) → (A⋈B)⋈C, recycling the old inner as A⋈B
		r := n.Inner
		u.child, u.childSaved = r, *r
		a, b, c := n.Outer, r.Outer, r.Inner
		setChildJoin(r, mv, a, b)
		n.Outer, n.Inner = r, c
	case ExchangeRight: // A⋈(B⋈C) → B⋈(A⋈C), recycling the old inner as A⋈C
		r := n.Inner
		u.child, u.childSaved = r, *r
		a, b, c := n.Outer, r.Outer, r.Inner
		setChildJoin(r, mv, a, c)
		n.Outer, n.Inner = b, r
	default:
		panic("mutate: Apply of NoMove")
	}
	if mv.Kind != ScanSwap && mv.Kind != OpExchange && mv.Kind != Commute {
		n.Join = mv.Op
		n.Output = mv.Op.Output()
		n.Cost = mv.Cost
	}
	return u
}
