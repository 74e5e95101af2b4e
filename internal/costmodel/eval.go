package costmodel

import (
	"rmq/internal/cost"
	"rmq/internal/plan"
)

// This file implements the hoisted join cost evaluation used by the
// climbing and frontier-approximation hot paths. Evaluating one join
// operator costs a handful of float operations, but the naive per-call
// path (JoinCostParts) recomputes page counts, logarithms and square
// roots for every operator even though they depend only on the input
// cardinalities. PrepareJoin performs that work once per input pair; the
// resulting JoinEval then prices each of the NumJoinOps operators with a
// table lookup plus the per-metric composition. Loops over operator sets
// (a dozen operators per join node) get most of their arithmetic hoisted.
//
// The arithmetic is kept bit-for-bit identical to JoinCostParts: the same
// expressions in the same evaluation order (a test cross-checks every
// operator on random inputs).

// JoinEval holds the operator-independent part of costing all join
// operators over one (outer cardinality, inner cardinality, output
// cardinality) triple: the complete raw cost of every concrete operator
// (materialization adjustment included) plus the model's metric indices.
// The zero value is not usable; fill one with PrepareJoin. JoinEvals live
// on the caller's stack and are reused across the operator loop.
type JoinEval struct {
	// rawsByOp is indexed by plan.JoinOp; padded to a power of two so
	// the pricing hot path can mask the index instead of bounds-checking.
	rawsByOp [16]raw
	// minRaw, filled by PrepareFloors, holds per output representation
	// the component-wise minima over the matching operators' raw costs —
	// the ingredient of the FloorCost admission pre-filter.
	minRaw     [plan.NumOutputProps]raw
	ti, bi, di int32
}

// PrepareJoin fills e with the per-operator raw costs of joining inputs
// with the given cardinalities into an output of outCard rows. e is an
// out parameter (rather than a by-value result) so the prepared table is
// written in place into the caller's frame.
//
//rmq:hotpath
func (m *Model) PrepareJoin(e *JoinEval, outerCard, innerCard, outCard float64) {
	po, pi, pout := pages(outerCard), pages(innerCard), pages(outCard)
	e.ti, e.bi, e.di = int32(m.ti), int32(m.bi), int32(m.di)
	// Straight-line calls of the per-family formulas (see algRaw), so
	// they inline instead of dispatching once per family.
	e.setAlg(plan.BNL10, bnlRaw(plan.BNL10.BufferBudget(), po, pi), pout)
	e.setAlg(plan.BNL100, bnlRaw(plan.BNL100.BufferBudget(), po, pi), pout)
	e.setAlg(plan.BNL1000, bnlRaw(plan.BNL1000.BufferBudget(), po, pi), pout)
	e.setAlg(plan.Hash, hashRaw(po, pi), pout)
	e.setAlg(plan.GraceHash, graceRaw(po, pi), pout)
	e.setAlg(plan.SortMerge, sortMergeRaw(po, pi), pout)
}

// setAlg stores the pipelining and materializing operators of alg.
func (e *JoinEval) setAlg(alg plan.JoinAlg, r raw, pout float64) {
	e.rawsByOp[plan.MakeJoinOp(alg, false)] = r
	e.rawsByOp[plan.MakeJoinOp(alg, true)] = r.materialized(pout)
}

// CombineChildren merges two children cost vectors under the per-metric
// composition rules (time/disc additive, buffer max), without the
// operator's own cost. The result is the operator-independent base that
// OpCostAll and OpEval.Cost complete; it is symmetric in its arguments.
//
// Additive metrics saturate here as everywhere (sat(sat(a+b)+t) equals
// sat(a+b+t) for non-negative inputs, so this changes no final cost),
// which also makes the result a valid lower bound on any operator's
// complete cost — the climbing move search prunes candidate groups on
// exactly that property.
//
//rmq:hotpath
func (m *Model) CombineChildren(a, b cost.Vector) cost.Vector {
	// min(x, Saturation) is cost.Sat for the non-NaN inputs of this
	// domain; the builtin keeps the function within the inlining budget.
	if i := m.ti; i >= 0 {
		a.V[i] = min(a.V[i]+b.V[i], cost.Saturation)
	}
	if i := m.bi; i >= 0 {
		a.V[i] = max(a.V[i], b.V[i])
	}
	if i := m.di; i >= 0 {
		a.V[i] = min(a.V[i]+b.V[i], cost.Saturation)
	}
	return a
}

// PrepareFloors derives, from a prepared evaluator, the per-output
// component-wise minima over the operators' raw costs. Call it once
// after PrepareJoin when FloorCost will be used.
//
//rmq:hotpath
func (e *JoinEval) PrepareFloors() {
	for _, out := range [...]plan.OutputProp{plan.Pipelined, plan.Materialized} {
		m := raw{time: inf, buffer: inf, disc: inf}
		mat := out == plan.Materialized
		for alg := plan.JoinAlg(0); alg < plan.NumJoinAlgs; alg++ {
			r := &e.rawsByOp[plan.MakeJoinOp(alg, mat)&15]
			if r.time < m.time {
				m.time = r.time
			}
			if r.buffer < m.buffer {
				m.buffer = r.buffer
			}
			if r.disc < m.disc {
				m.disc = r.disc
			}
		}
		e.minRaw[out] = m
	}
}

// FloorCost returns a lower bound on the cost of every prepared join
// operator with the given output representation over base (the children
// combination from CombineChildren): base composed with the
// component-wise minimum of the matching operators' raw costs
// (PrepareFloors). Operator raw costs are non-negative and the
// composition rules are monotone, so OpCostAll's price of op over base ≥
// FloorCost(base, op.Output()) component-wise for every prepared op
// with that output — the admission pre-filter of the frontier
// recombination builds on exactly this. The bound covers all operators
// of the representation, so it is also valid for the restricted
// operator subsets of pipelined inner inputs.
//
//rmq:hotpath
func (e *JoinEval) FloorCost(base cost.Vector, out plan.OutputProp) cost.Vector {
	r := &e.minRaw[out]
	if i := e.ti; i >= 0 {
		base.V[i] = min(base.V[i]+r.time, cost.Saturation)
	}
	if i := e.bi; i >= 0 {
		base.V[i] = max(base.V[i], r.buffer)
	}
	if i := e.di; i >= 0 {
		base.V[i] = min(base.V[i]+r.disc, cost.Saturation)
	}
	return base
}

const inf = 1e308

// OpCostAll prices every operator of ops over base into out (one slot
// per ops index; len(ops) ≤ 16). Batching the loop into one call keeps
// the per-operator work free of call overhead regardless of inlining
// decisions at the call site.
//
//rmq:hotpath
func (e *JoinEval) OpCostAll(ops []plan.JoinOp, base cost.Vector, out *[16]cost.Vector) {
	ti, bi, di := e.ti, e.bi, e.di
	for k, op := range ops {
		r := &e.rawsByOp[op&15]
		v := base
		if ti >= 0 {
			v.V[ti] = min(v.V[ti]+r.time, cost.Saturation)
		}
		if bi >= 0 {
			v.V[bi] = max(v.V[bi], r.buffer)
		}
		if di >= 0 {
			v.V[di] = min(v.V[di]+r.disc, cost.Saturation)
		}
		out[k] = v
	}
}

// RuleCostAll prices the operators of one climbing move group (a
// structural rule's new child join, or a node's operator exchange or
// commutation): it fills out exactly as OpCostAll(ops, childBase, out)
// does and
// returns the bitmask of the indices k whose root floor
// CombineChildren(fixed, out[k]) weakly dominates incumbent. Every root
// operator's cost over that floor is at least the floor component-wise,
// so a candidate outside the mask cannot strictly dominate incumbent,
// nor any vector incumbent dominates: the mask is a superset of the
// candidates a strict-dominance selection that starts at incumbent can
// pick. Only the model's metric components of the vectors are read, so
// a zero fixed (cost.Vector{}) masks the candidates that themselves
// weakly dominate incumbent.
//
//rmq:hotpath
func (e *JoinEval) RuleCostAll(ops []plan.JoinOp, childBase, fixed, incumbent cost.Vector, out *[16]cost.Vector) uint16 {
	ti, bi, di := e.ti, e.bi, e.di
	var mask uint16
	for k, op := range ops {
		r := &e.rawsByOp[op&15]
		v := childBase
		floorOK := true
		if ti >= 0 {
			v.V[ti] = min(v.V[ti]+r.time, cost.Saturation)
			floorOK = !(min(fixed.V[ti]+v.V[ti], cost.Saturation) > incumbent.V[ti])
		}
		if bi >= 0 {
			v.V[bi] = max(v.V[bi], r.buffer)
			floorOK = floorOK && !(max(fixed.V[bi], v.V[bi]) > incumbent.V[bi])
		}
		if di >= 0 {
			v.V[di] = min(v.V[di]+r.disc, cost.Saturation)
			floorOK = floorOK && !(min(fixed.V[di]+v.V[di], cost.Saturation) > incumbent.V[di])
		}
		out[k] = v
		if floorOK {
			mask |= 1 << k
		}
	}
	return mask
}

// OpEval prices one fixed join operator over varying child-combination
// bases. Loops that evaluate many candidate pairs under the same (few)
// root operators — the structural climbing rules price up to twelve
// child operators under at most two distinct root operators — prepare
// one OpEval per root operator instead of a full JoinEval.
type OpEval struct {
	r          raw
	ti, bi, di int32
}

// PrepareOp precomputes the raw cost of applying exactly op to inputs
// with the given cardinalities.
//
//rmq:hotpath
func (m *Model) PrepareOp(e *OpEval, op plan.JoinOp, outerCard, innerCard, outCard float64) {
	e.r = joinRaw(op, pages(outerCard), pages(innerCard), pages(outCard))
	e.ti, e.bi, e.di = int32(m.ti), int32(m.bi), int32(m.di)
}

// Cost completes the prepared operator cost over base (the children
// combination from CombineChildren); it equals JoinCostParts of the
// prepared operator and inputs. Small enough to inline.
//
//rmq:hotpath
func (e *OpEval) Cost(base cost.Vector) cost.Vector {
	if i := e.ti; i >= 0 {
		base.V[i] = min(base.V[i]+e.r.time, cost.Saturation)
	}
	if i := e.bi; i >= 0 {
		base.V[i] = max(base.V[i], e.r.buffer)
	}
	if i := e.di; i >= 0 {
		base.V[i] = min(base.V[i]+e.r.disc, cost.Saturation)
	}
	return base
}
