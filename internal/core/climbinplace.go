package core

import (
	"rmq/internal/cost"

	"rmq/internal/mutate"
	"rmq/internal/plan"
)

// This file implements the allocation-free in-place climb over the
// bushy space.
//
// The climber imports the plan into a private scratch arena once per
// climb (plan.Scratch), then every climbing step runs as one recursive
// pass over the mutable tree: candidate mutations are priced with the
// hoisted evaluator (costmodel.JoinEval) without constructing nodes, and
// the per-node winner is applied in place (mutate.Apply) — structural
// rules recycle the node they detach, so even improving moves allocate
// nothing. Only the final plan is copied back out into immutable nodes
// (Scratch.Freeze) before it escapes to callers and archives.
//
// Two further techniques keep steady-state work low:
//
//   - Clean-subtree skipping: a node whose mutation enumeration came up
//     empty while all its descendants are clean cannot improve until
//     something below it changes, so later passes skip the whole subtree
//     (the auxClean bit in plan.Plan.Aux). A pass over a locally optimal
//     tree touches each node once and allocates nothing.
//   - Candidate enumeration order is exactly that of mutate.Append
//     (identity, operator exchange, commutativity, the four structural
//     rules), and the incumbent is replaced only by strict dominators, so
//     the selected move matches the mutate.Append-based reference step
//     bit for bit; a test cross-checks this on random plans.

// Aux bits of scratch nodes during a climb.
const (
	// auxClean marks a node whose whole subtree is known to admit no
	// improving mutation (valid until a move rewrites one of its nodes);
	// passes skip clean subtrees without descending.
	auxClean = 1 << 0
	// auxEnumerated marks a node whose own mutation enumeration ran
	// against the current (node, children) state and found nothing; it is
	// invalidated whenever the node is rewritten or a child changes.
	// Without it, every pass would fully re-enumerate all ancestors of
	// the previous pass's moves even when nothing below them changed.
	auxEnumerated = 1 << 1
)

// climbInPlace is Climb specialized for the in-place fast path.
//
// A pass may change the tree without strictly improving the root: a
// locally dominating child mutation can alter the child's output
// representation and force a worse operator on an ancestor (PickRootOp
// fallback). The reference step discards such steps wholesale, so each
// pass here is speculative — in-place changes are journaled and reverted
// when the pass fails the strict-improvement gate, after which the climb
// is over.
func (c *Climber) climbInPlace(p *plan.Plan) (*plan.Plan, int) {
	limit := maxClimbSteps(p.Rel.Count())
	c.scratch.Reset()
	root := c.scratch.Import(p)
	steps := 0
	//rmq:allow-loop(bounded by maxClimbSteps; steps increments every iteration)
	for steps < limit {
		prev := root.Cost
		c.undoLog = c.undoLog[:0]
		if !c.passInPlace(root) {
			break
		}
		if !root.Cost.StrictlyDominates(prev) {
			for i := len(c.undoLog) - 1; i >= 0; i-- {
				c.undoLog[i].Revert()
			}
			break
		}
		steps++
	}
	if steps == 0 {
		return p, 0
	}
	return c.scratch.Freeze(root), steps
}

// stepInPlace is Step for the fast path: one pass over a fresh scratch
// copy; nil when p admits no strictly improving move. A failed pass needs
// no revert — the scratch copy is simply discarded.
//
//rmq:hotpath
func (c *Climber) stepInPlace(p *plan.Plan) *plan.Plan {
	c.scratch.Reset()
	root := c.scratch.Import(p)
	c.undoLog = c.undoLog[:0]
	if !c.passInPlace(root) || !root.Cost.StrictlyDominates(p.Cost) {
		return nil
	}
	return c.scratch.Freeze(root)
}

// passInPlace performs one climbing step on the mutable node n (the
// ParetoStep recursion of Algorithm 2 in single-incumbent mode):
// children are improved first, the node is re-costed if they changed,
// and the best strictly dominating mutation of the node is applied in
// place. It reports whether anything under n changed.
//
//rmq:hotpath
func (c *Climber) passInPlace(n *plan.Plan) bool {
	if n.Aux&auxClean != 0 {
		return false
	}
	m := c.model
	if !n.IsJoin() {
		changed := c.scanStepInPlace(n)
		// The applied operator was selected against every alternative, so
		// the node is at its scan optimum either way; scans have no
		// children to dirty it again.
		n.Aux |= auxClean
		return changed
	}
	co := c.passInPlace(n.Outer)
	ci := c.passInPlace(n.Inner)
	if co || ci {
		// A child mutation may have changed its output representation;
		// keep the node's operator when still applicable, and re-cost.
		c.undoLog = append(c.undoLog, mutate.Snapshot(n)) //rmq:allow-alloc(reused journal; grows to the per-pass high-water mark)
		op := mutate.PickRootOp(n.Join, n.Inner.Output)
		n.Join = op
		n.Output = op.Output()
		n.Cost = m.JoinCostParts(op, n.Outer.Cost, n.Outer.Card, n.Inner.Cost, n.Inner.Card, n.Card)
		n.Aux &^= auxEnumerated
	}
	if n.Aux&auxEnumerated == 0 {
		var mv mutate.Move
		if c.bestMove(n, &mv) {
			if mv.Kind >= mutate.AssocLeft {
				mv.ChildRelID = m.RelID(mv.ChildRel)
			}
			c.undoLog = append(c.undoLog, mutate.Apply(n, &mv)) //rmq:allow-alloc(reused journal; grows to the per-pass high-water mark)
			n.Aux = 0
			return true
		}
		n.Aux |= auxEnumerated
	}
	if n.Outer.Aux&n.Inner.Aux&auxClean != 0 {
		n.Aux |= auxClean
	}
	return co || ci
}

// scanStepInPlace applies the best strictly dominating scan operator
// exchange to scan node n, evaluating candidates by cost only.
//
//rmq:hotpath
func (c *Climber) scanStepInPlace(n *plan.Plan) bool {
	bestVec := n.Cost
	best := n.Scan
	found := false
	for _, op := range plan.AllScanOps() {
		if op == n.Scan {
			continue
		}
		if vec := c.model.ScanCost(n.Table, op); vec.StrictlyDominates(bestVec) {
			best, bestVec, found = op, vec, true
		}
	}
	if !found {
		return false
	}
	c.undoLog = append(c.undoLog, mutate.Apply(n, &mutate.Move{Kind: mutate.ScanSwap, Scan: best, Cost: bestVec})) //rmq:allow-alloc(reused journal; the Move does not escape Apply)
	return true
}

// bestMove searches every non-identity mutation of join node n in the
// canonical mutate.Append order and fills mv with the one that wins the
// successive strict-dominance selection, pricing candidates without
// constructing nodes. It reports whether any candidate strictly
// dominates n.
//
//rmq:hotpath
func (c *Climber) bestMove(n *plan.Plan, mv *mutate.Move) bool {
	m := c.model
	outer, inner := n.Outer, n.Inner
	bestVec := n.Cost
	found := false

	// Every candidate's cost is bounded below by the combination of its
	// (sub-)inputs: operator costs are non-negative and the composition
	// rules are monotone. A candidate group whose floor does not weakly
	// dominate the incumbent therefore cannot contain a strict dominator
	// and is skipped without pricing a single operator — including the
	// cardinality lookup and evaluator preparation of the structural
	// rules. The incumbent only shrinks, so pruning against the current
	// bestVec never discards a possible winner.
	ev := &c.evNode
	base := m.CombineChildren(outer.Cost, inner.Cost)
	if base.Dominates(bestVec) {
		// Operator exchange: same children, every other applicable
		// operator.
		m.PrepareJoin(ev, outer.Card, inner.Card, n.Card)
		ops := plan.JoinOpsFor(inner.Output)
		ev.OpCostAll(ops, base, &c.vecBuf)
		for k, op := range ops {
			if op == n.Join {
				continue
			}
			if vec := c.vecBuf[k]; vec.StrictlyDominates(bestVec) {
				bestVec, found = vec, true
				*mv = mutate.Move{Kind: mutate.OpExchange, Op: op, Cost: vec}
			}
		}
	}
	if base.Dominates(bestVec) {
		// Commutativity: swapped children over all applicable operators.
		m.PrepareJoin(ev, inner.Card, outer.Card, n.Card)
		ops := plan.JoinOpsFor(outer.Output)
		ev.OpCostAll(ops, base, &c.vecBuf)
		for k, op := range ops {
			if vec := c.vecBuf[k]; vec.StrictlyDominates(bestVec) {
				bestVec, found = vec, true
				*mv = mutate.Move{Kind: mutate.Commute, Op: op, Cost: vec}
			}
		}
	}

	// Structural rules, in mutate.Append order.
	if outer.IsJoin() {
		a, b := outer.Outer, outer.Inner
		c.structMoves(n, mutate.AssocLeft, b, inner, a, true, &bestVec, mv, &found)
		c.structMoves(n, mutate.ExchangeLeft, a, inner, b, false, &bestVec, mv, &found)
	}
	if inner.IsJoin() {
		b, cc := inner.Outer, inner.Inner
		c.structMoves(n, mutate.AssocRight, outer, b, cc, false, &bestVec, mv, &found)
		c.structMoves(n, mutate.ExchangeRight, outer, cc, b, true, &bestVec, mv, &found)
	}
	return found
}

// structMoves prices the candidates of one structural rule: the new
// intermediate join (childOuter ⋈ childInner) over every applicable
// operator, recombined with the untouched sub-plan fixed at the rebuilt
// root (as the inner child when childIsInner). Work independent of the
// child operator — page counts, child cardinality, root operator choice
// per output representation — is hoisted out of the loop.
//
//rmq:hotpath
func (c *Climber) structMoves(n *plan.Plan, kind mutate.MoveKind, childOuter, childInner, fixed *plan.Plan, childIsInner bool, bestVec *cost.Vector, mv *mutate.Move, found *bool) {
	m := c.model
	childBase := m.CombineChildren(childOuter.Cost, childInner.Cost)
	// Rule floor: the cheapest any candidate of this rule can be is the
	// cost combination of the three untouched sub-plans; if that does not
	// weakly dominate the incumbent, no candidate can strictly dominate
	// it and the whole rule is skipped (see bestMove).
	if !m.CombineChildren(fixed.Cost, childBase).Dominates(*bestVec) {
		return
	}
	childRel := childOuter.Rel.Union(childInner.Rel)
	childCard := c.candidateCard(childRel)
	childEv := &c.evChild
	m.PrepareJoin(childEv, childOuter.Card, childInner.Card, childCard)
	// The root operator depends only on the new inner representation, so
	// at most two distinct operators ever price the root; prepare one
	// single-operator evaluator each instead of a full JoinEval.
	var rootOpPipe, rootOpMat, rootOpFixed plan.JoinOp
	rootPipe, rootMat := &c.evRootA, &c.evRootB
	if childIsInner {
		rootOpPipe = mutate.PickRootOp(n.Join, plan.Pipelined)
		rootOpMat = mutate.PickRootOp(n.Join, plan.Materialized)
		m.PrepareOp(rootPipe, rootOpPipe, fixed.Card, childCard, n.Card)
		m.PrepareOp(rootMat, rootOpMat, fixed.Card, childCard, n.Card)
	} else {
		rootOpFixed = mutate.PickRootOp(n.Join, fixed.Output)
		m.PrepareOp(rootPipe, rootOpFixed, childCard, fixed.Card, n.Card)
	}
	cops := plan.JoinOpsFor(childInner.Output)
	childEv.OpCostAll(cops, childBase, &c.vecBuf)
	for k, cop := range cops {
		childVec := c.vecBuf[k]
		rootBase := m.CombineChildren(fixed.Cost, childVec)
		// Per-candidate floor: the complete cost is ≥ rootBase.
		if !rootBase.Dominates(*bestVec) {
			continue
		}
		var rop plan.JoinOp
		var vec cost.Vector
		if childIsInner {
			if cop.Materializes() {
				rop, vec = rootOpMat, rootMat.Cost(rootBase)
			} else {
				rop, vec = rootOpPipe, rootPipe.Cost(rootBase)
			}
		} else {
			rop, vec = rootOpFixed, rootPipe.Cost(rootBase)
		}
		if vec.StrictlyDominates(*bestVec) {
			*bestVec, *found = vec, true
			*mv = mutate.Move{
				Kind:      kind,
				Op:        rop,
				Cost:      vec,
				ChildOp:   cop,
				ChildCost: childVec,
				ChildCard: childCard,
				ChildRel:  childRel,
			}
		}
	}
}
