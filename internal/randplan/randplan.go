// Package randplan samples uniformly random bushy query plans, the
// RandomPlan step of Algorithm 1.
//
// Tree shapes are drawn uniformly at random over all binary trees with n
// leaves using Rémy's algorithm, which runs in O(n) — this realizes the
// linear-time random plan generation of Lemma 1 (the paper cites Quiroz's
// method; Rémy's is the standard equivalent with the same uniformity
// guarantee and complexity). Leaves receive a uniformly random permutation
// of the query tables, and every node receives a uniformly random
// applicable operator implementation.
//
//rmq:deterministic
package randplan

import (
	"math/rand/v2"

	"rmq/internal/costmodel"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// shapeNode is a node of the unlabeled tree shape produced by Rémy's
// algorithm. Leaves have children[0] == nil.
type shapeNode struct {
	children [2]*shapeNode
}

// randomShape returns a uniformly random binary tree with n leaves
// (n ≥ 1). All 2n-1 shape nodes come from a single block allocation.
func randomShape(n int, rng *rand.Rand) *shapeNode {
	pool := make([]shapeNode, 2*n-1)
	alloc := 1 // pool[0] is the root
	root := &pool[0]
	// nodes holds every node created so far (leaves and internal).
	nodes := make([]*shapeNode, 1, 2*n-1)
	nodes[0] = root
	for k := 1; k < n; k++ {
		// Pick a uniformly random existing node and graft a new internal
		// node in its place, with the picked node on a random side and a
		// fresh leaf on the other.
		x := nodes[rng.IntN(len(nodes))]
		oldCopy := &pool[alloc]
		leaf := &pool[alloc+1]
		alloc += 2
		oldCopy.children = x.children
		if rng.IntN(2) == 0 {
			x.children = [2]*shapeNode{oldCopy, leaf}
		} else {
			x.children = [2]*shapeNode{leaf, oldCopy}
		}
		nodes = append(nodes, oldCopy, leaf)
	}
	return root
}

// Random returns a uniformly random bushy plan joining the given table
// set under the model: uniform tree shape, uniform leaf labeling, uniform
// applicable operators. It panics on an empty table set. The plan's 2n-1
// nodes come from a single block allocation. Join cardinalities come
// from CardDirect, not the estimator memo: a random bushy plan's
// intermediate table sets seldom repeat across draws, so probing and
// filling the memo costs more than it saves.
func Random(m *costmodel.Model, tables tableset.Set, rng *rand.Rand) *plan.Plan {
	ids := tables.Tables()
	if len(ids) == 0 {
		panic("randplan: empty table set")
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	shape := randomShape(len(ids), rng)
	nodes := make([]plan.Plan, 2*len(ids)-1)
	alloc := 0
	next := 0
	var build func(s *shapeNode) *plan.Plan
	build = func(s *shapeNode) *plan.Plan {
		n := &nodes[alloc]
		alloc++
		if s.children[0] == nil {
			t := ids[next]
			next++
			m.InitScan(n, t, RandomScanOp(rng))
			return n
		}
		outer := build(s.children[0])
		inner := build(s.children[1])
		ops := plan.JoinOpsFor(inner.Output)
		m.InitJoinWithCard(n, ops[rng.IntN(len(ops))], outer, inner, m.CardDirect(outer.Rel.Union(inner.Rel)))
		return n
	}
	return build(shape)
}

// RandomScanOp draws a uniformly random scan operator.
func RandomScanOp(rng *rand.Rand) plan.ScanOp {
	return plan.AllScanOps()[rng.IntN(plan.NumScanOps)]
}
