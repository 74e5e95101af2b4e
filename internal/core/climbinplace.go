package core

import (
	"math/bits"

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

// Climb is the ParetoClimb function of Algorithm 2: it repeatedly applies
// climbing steps until no step yields a plan strictly dominating the
// current one, returning the locally Pareto-optimal plan and the path
// length (number of improving moves) — the statistic of Figure 3. The
// whole climb runs in place on a scratch copy of p and only the final
// plan is materialized. The result is interned (see intern); apart from
// the ids filled in when no move applied and the result is p itself,
// the input plan and the result are immutable.
//
// A pass may change the tree without strictly improving the root: a
// locally dominating child mutation can alter the child's output
// representation and force a worse operator on an ancestor (PickRootOp
// fallback). The reference step discards such steps wholesale, so each
// pass here is speculative — in-place changes are journaled and reverted
// when the pass fails the strict-improvement gate, after which the climb
// is over.
func (c *Climber) Climb(p *plan.Plan) (*plan.Plan, int) {
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
		return c.intern(p), 0
	}
	return c.intern(c.scratch.Freeze(root)), steps
}

// intern gives every node of p that carries no id (random plans and
// nodes rewritten by moves) the interned id of its table set, and
// returns p. Only plans leaving the climber take ids, so the interner
// never sees the transient sets a climb starts from or passes through.
//
//rmq:hotpath
func (c *Climber) intern(p *plan.Plan) *plan.Plan {
	if p.IsJoin() {
		c.intern(p.Outer)
		c.intern(p.Inner)
	}
	if p.RelID == 0 {
		p.RelID = c.model.RelID(p.Rel)
	}
	return p
}

// Step performs one climbing move: one pass over a fresh scratch copy of
// p, returning the materialized, interned plan that strictly dominates
// p, or nil when p is a local Pareto optimum for the step function. A
// failed pass needs no revert — the scratch copy is simply discarded.
//
//rmq:hotpath
func (c *Climber) Step(p *plan.Plan) *plan.Plan {
	c.scratch.Reset()
	root := c.scratch.Import(p)
	c.undoLog = c.undoLog[:0]
	if !c.passInPlace(root) || !root.Cost.StrictlyDominates(p.Cost) {
		return nil
	}
	return c.intern(c.scratch.Freeze(root))
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
	//
	// Within a group, RuleCostAll prices every operator at once and masks
	// the candidates whose floor weakly dominates the incumbent the group
	// starts with; the successive strict-dominance selection then visits
	// only those. Operator exchange and commutativity keep the node's
	// children, so their floor is the candidate's own cost (a zero fixed
	// vector).
	base := m.CombineChildren(outer.Cost, inner.Cost)
	if base.Dominates(bestVec) {
		// Operator exchange: same children, every other applicable
		// operator.
		ops := plan.JoinOpsFor(inner.Output)
		for mask := c.priceRule(ops, outer.Card, inner.Card, n.Card, base, cost.Vector{}, bestVec); mask != 0; mask &= mask - 1 {
			k := bits.TrailingZeros16(mask)
			if op := ops[k]; op != n.Join && c.vecBuf[k].StrictlyDominates(bestVec) {
				bestVec, found = c.vecBuf[k], true
				*mv = mutate.Move{Kind: mutate.OpExchange, Op: op, Cost: bestVec}
			}
		}
	}
	if base.Dominates(bestVec) {
		// Commutativity: swapped children over all applicable operators.
		ops := plan.JoinOpsFor(outer.Output)
		for mask := c.priceRule(ops, inner.Card, outer.Card, n.Card, base, cost.Vector{}, bestVec); mask != 0; mask &= mask - 1 {
			k := bits.TrailingZeros16(mask)
			if c.vecBuf[k].StrictlyDominates(bestVec) {
				bestVec, found = c.vecBuf[k], true
				*mv = mutate.Move{Kind: mutate.Commute, Op: ops[k], Cost: bestVec}
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
	childCard := m.Card(childRel)
	// Price every child operator at once; the mask keeps the candidates
	// whose floor (the complete cost is ≥ CombineChildren(fixed,
	// childVec)) weakly dominates the incumbent this rule starts with.
	// The incumbent only shrinks, so no candidate outside the mask can
	// be the selection's pick.
	cops := plan.JoinOpsFor(childInner.Output)
	mask := c.priceRule(cops, childOuter.Card, childInner.Card, childCard, childBase, fixed.Cost, *bestVec)
	if mask == 0 {
		return
	}
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
	for ; mask != 0; mask &= mask - 1 {
		k := bits.TrailingZeros16(mask)
		cop, childVec := cops[k], c.vecBuf[k]
		rootBase := m.CombineChildren(fixed.Cost, childVec)
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

// priceRule prices the operators ops joining inputs of the given
// cardinalities over base into c.vecBuf and returns the mask of
// JoinEval.RuleCostAll: the candidates whose floor, base's cost
// combined with fixed, weakly dominates incumbent.
//
//rmq:hotpath
func (c *Climber) priceRule(ops []plan.JoinOp, outerCard, innerCard, outCard float64, base, fixed, incumbent cost.Vector) uint16 {
	c.prepared++
	c.priced += uint64(len(ops))
	c.model.PrepareJoin(&c.ev, outerCard, innerCard, outCard)
	return c.ev.RuleCostAll(ops, base, fixed, incumbent, &c.vecBuf)
}
