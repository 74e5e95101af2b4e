// Package mutate implements the local plan transformations ("the standard
// mutations for bushy query plans", Steinbrunn et al.) used by Pareto
// climbing, simulated annealing and the other local-search optimizers.
//
// The rule set at a join node p = (O ⋈ I) is:
//
//	identity          p itself (so pruning can keep the unmutated plan)
//	operator exchange (O ⋈' I) for every other applicable join operator
//	commutativity     (I ⋈ O), over all applicable operators
//	associativity     ((A ⋈ B) ⋈ C) → (A ⋈ (B ⋈ C)) and its mirror
//	join exchange     ((A ⋈ B) ⋈ C) → ((A ⋈ C) ⋈ B) and its mirror
//
// and at a scan node: exchanging the scan operator. Structural rules
// create one new intermediate join node; we enumerate every applicable
// operator for that new node (different operators yield different cost
// trade-offs and output representations) while preferring to keep the
// original operator at the rebuilt root, falling back to the first
// applicable operator when the new inner representation makes the
// original inapplicable. This keeps the neighbor count per node bounded
// by a small constant times the number of operator implementations, as
// assumed by the complexity analysis (Lemma 2).
//
//rmq:deterministic
package mutate

import (
	"math/rand/v2"

	"rmq/internal/costmodel"
	"rmq/internal/plan"
)

// Append appends to dst all local mutations of the sub-plan p (with its
// current children), including p itself, and returns the extended slice.
// The caller owns dst; passing a reused buffer avoids allocation.
func Append(m *costmodel.Model, p *plan.Plan, dst []*plan.Plan) []*plan.Plan {
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
	// Every mutation of this node joins the same table set, so the
	// node's output cardinality p.Card applies to all rebuilt roots.
	rootCard := p.Card
	// Operator exchange.
	for _, op := range plan.JoinOpsFor(inner.Output) {
		if op != p.Join {
			dst = append(dst, m.NewJoinWithCard(op, outer, inner, rootCard))
		}
	}
	// Commutativity (over all applicable operators, which subsumes
	// commutativity composed with operator exchange).
	for _, op := range plan.JoinOpsFor(outer.Output) {
		dst = append(dst, m.NewJoinWithCard(op, inner, outer, rootCard))
	}
	// Structural rules. Let the current node be (A ⋈ B) ⋈ C or
	// A ⋈ (B ⋈ C); each rule reassociates one grandchild.
	if outer.IsJoin() {
		a, b := outer.Outer, outer.Inner
		c := inner
		// Associativity: (A ⋈ B) ⋈ C → A ⋈ (B ⋈ C).
		dst = appendStruct(m, dst, p.Join, rootCard, b, c, a, true)
		// Left join exchange: (A ⋈ B) ⋈ C → (A ⋈ C) ⋈ B.
		dst = appendStruct(m, dst, p.Join, rootCard, a, c, b, false)
	}
	if inner.IsJoin() {
		a := outer
		b, c := inner.Outer, inner.Inner
		// Associativity (mirror): A ⋈ (B ⋈ C) → (A ⋈ B) ⋈ C.
		dst = appendStruct(m, dst, p.Join, rootCard, a, b, c, false)
		// Right join exchange: A ⋈ (B ⋈ C) → B ⋈ (A ⋈ C).
		dst = appendStruct(m, dst, p.Join, rootCard, a, c, b, true)
	}
	return dst
}

// appendStruct emits the plans of one structural rule: a new child join
// (childOuter ⋈ childInner) over every applicable operator, combined with
// the untouched sub-plan `fixed` at a rebuilt root. If childIsInner, the
// root is (fixed ⋈ child); otherwise (child ⋈ fixed). The root keeps
// rootOp when applicable and falls back to the first applicable operator
// otherwise.
func appendStruct(m *costmodel.Model, dst []*plan.Plan, rootOp plan.JoinOp, rootCard float64, childOuter, childInner, fixed *plan.Plan, childIsInner bool) []*plan.Plan {
	childCard := m.JoinCard(childOuter, childInner)
	for _, cop := range plan.JoinOpsFor(childInner.Output) {
		child := m.NewJoinWithCard(cop, childOuter, childInner, childCard)
		var o, i *plan.Plan
		if childIsInner {
			o, i = fixed, child
		} else {
			o, i = child, fixed
		}
		dst = append(dst, m.NewJoinWithCard(PickRootOp(rootOp, i.Output), o, i, rootCard))
	}
	return dst
}

// PickRootOp keeps prefer if applicable for the given inner
// representation, else returns the first applicable operator. Callers
// rebuilding a join above replaced children use it to carry the original
// operator over whenever the new inner representation still allows it.
//
//rmq:hotpath
func PickRootOp(prefer plan.JoinOp, inner plan.OutputProp) plan.JoinOp {
	ops := plan.JoinOpsFor(inner)
	for _, op := range ops {
		if op == prefer {
			return op
		}
	}
	return ops[0]
}

// locator identifies one node of a plan by the root-to-node path of child
// directions (false = outer, true = inner).
type locator []bool

// collectLocators appends the locator of every node of p (pre-order).
func collectLocators(p *plan.Plan, prefix locator, out []locator) []locator {
	out = append(out, append(locator(nil), prefix...))
	if p.IsJoin() {
		out = collectLocators(p.Outer, append(prefix, false), out)
		out = collectLocators(p.Inner, append(prefix, true), out)
	}
	return out
}

// nodeAt resolves a locator to its sub-plan.
func nodeAt(p *plan.Plan, loc locator) *plan.Plan {
	for _, innerSide := range loc {
		if innerSide {
			p = p.Inner
		} else {
			p = p.Outer
		}
	}
	return p
}

// replaceAt rebuilds the complete plan with the sub-plan at loc replaced
// by sub. Ancestor operators are kept where applicable; when a changed
// output representation makes an ancestor's operator inapplicable, the
// first applicable operator is substituted.
func replaceAt(m *costmodel.Model, p *plan.Plan, loc locator, sub *plan.Plan) *plan.Plan {
	if len(loc) == 0 {
		return sub
	}
	var outer, inner *plan.Plan
	if loc[0] {
		outer = p.Outer
		inner = replaceAt(m, p.Inner, loc[1:], sub)
	} else {
		outer = replaceAt(m, p.Outer, loc[1:], sub)
		inner = p.Inner
	}
	return m.NewJoin(PickRootOp(p.Join, inner.Output), outer, inner)
}

// AllNeighbors returns every complete plan reachable from p by applying a
// single local mutation at a single node (excluding plans identical to p
// in structure and operators only when the mutation was the identity).
// No optimizer climbs with it. Tests use it to verify local Pareto
// optimality, and the naive climbing ablation in internal/core's tests
// (naiveClimber) scans it for the first strictly dominating neighbor.
func AllNeighbors(m *costmodel.Model, p *plan.Plan) []*plan.Plan {
	var out []*plan.Plan
	locs := collectLocators(p, nil, nil)
	var buf []*plan.Plan
	for _, loc := range locs {
		node := nodeAt(p, loc)
		buf = Append(m, node, buf[:0])
		for _, mutated := range buf {
			if mutated == node {
				continue // identity
			}
			out = append(out, replaceAt(m, p, loc, mutated))
		}
	}
	return out
}

// RandomNeighbor returns a complete plan differing from p by one random
// local mutation at a uniformly random node, or p itself if the chosen
// node admits no non-identity mutation (cannot happen for join nodes).
// It is the neighbor-sampling primitive of simulated annealing. The node
// is reservoir-sampled in a single traversal, keeping the call O(n).
func RandomNeighbor(m *costmodel.Model, p *plan.Plan, rng *rand.Rand) *plan.Plan {
	var chosen locator
	count := 0
	var prefix locator
	var walk func(q *plan.Plan)
	walk = func(q *plan.Plan) {
		count++
		if rng.IntN(count) == 0 {
			chosen = append(chosen[:0], prefix...)
		}
		if q.IsJoin() {
			prefix = append(prefix, false)
			walk(q.Outer)
			prefix[len(prefix)-1] = true
			walk(q.Inner)
			prefix = prefix[:len(prefix)-1]
		}
	}
	walk(p)
	node := nodeAt(p, chosen)
	buf := Append(m, node, nil)
	if len(buf) <= 1 {
		return p
	}
	mutated := buf[1+rng.IntN(len(buf)-1)]
	return replaceAt(m, p, chosen, mutated)
}
