package mutate

import (
	"rmq/internal/costmodel"
	"rmq/internal/plan"
)

// Space identifies a join order space. The paper evaluates the
// unconstrained bushy space and notes (Section 4.1) that the algorithm
// adapts to other spaces — e.g. left-deep plans — by exchanging the
// random plan generator and the local transformation set. This type
// selects the transformation set.
type Space int

const (
	// Bushy is the unconstrained bushy plan space (the paper's default).
	Bushy Space = iota
	// LeftDeep restricts plans to left-deep trees: the inner operand of
	// every join is a base table.
	LeftDeep
)

// String returns the conventional name of the plan space.
func (s Space) String() string {
	if s == LeftDeep {
		return "left-deep"
	}
	return "bushy"
}

// AppendIn is Append for a selectable plan space: mutations of p that
// stay inside the space (assuming p itself is inside it). The climber
// calls it for the left-deep space only; bushy climbs run in place and
// price Append's candidates in its order without materializing them.
func AppendIn(space Space, m *costmodel.Model, p *plan.Plan, dst []*plan.Plan) []*plan.Plan {
	if space == LeftDeep {
		return appendLeftDeep(m, p, dst)
	}
	return Append(m, p, dst)
}

// appendLeftDeep emits the left-deep-preserving transformation rules:
//
//	identity            p itself
//	scan exchange       at leaves
//	operator exchange   at joins (shape unchanged)
//	inner swap          ((A ⋈ B) ⋈ C) → ((A ⋈ C) ⋈ B): exchanging the
//	                    relations joined at adjacent levels (the classic
//	                    "swap" rule for left-deep permutations)
//	bottom commute      (A ⋈ B) → (B ⋈ A) when both operands are tables
func appendLeftDeep(m *costmodel.Model, p *plan.Plan, dst []*plan.Plan) []*plan.Plan {
	dst = append(dst, p)
	if !p.IsJoin() {
		for _, op := range plan.AllScanOps() {
			if op != p.Scan {
				dst = append(dst, m.NewScan(p.Table, op))
			}
		}
		return dst
	}
	outer, inner := p.Outer, p.Inner
	rootCard := p.Card
	// Operator exchange.
	for _, op := range plan.JoinOpsFor(inner.Output) {
		if op != p.Join {
			dst = append(dst, m.NewJoinWithCard(op, outer, inner, rootCard))
		}
	}
	if outer.IsJoin() {
		// Inner swap keeps the tree left-deep: the new child (A ⋈ C)
		// has a base-table inner, as does the new root.
		a, b := outer.Outer, outer.Inner
		dst = appendStruct(m, dst, p.Join, rootCard, a, inner, b, false)
	} else {
		// Bottom-most join: commuting two base tables stays left-deep.
		for _, op := range plan.JoinOpsFor(outer.Output) {
			dst = append(dst, m.NewJoinWithCard(op, inner, outer, rootCard))
		}
	}
	return dst
}

// IsLeftDeep reports whether every join in the plan has a base-table
// inner operand.
func IsLeftDeep(p *plan.Plan) bool {
	for p.IsJoin() {
		if p.Inner.IsJoin() {
			return false
		}
		p = p.Outer
	}
	return true
}
