package core

import (
	"math"

	"rmq/internal/cache"
	"rmq/internal/cost"
	"rmq/internal/costmodel"
	"rmq/internal/plan"
)

// DefaultAlpha is the paper's approximation-precision schedule
// (Algorithm 3, line 21): α = 25 · 0.99^⌊i/25⌋ for iteration counter i,
// floored at 1. The schedule starts coarse so early iterations explore
// many join orders quickly and refines as iterations progress, letting
// the approximation converge towards the true Pareto frontier.
func DefaultAlpha(iteration int) float64 {
	a := 25 * math.Pow(0.99, math.Floor(float64(iteration)/25))
	if a < 1 {
		return 1
	}
	return a
}

// approximateFrontiers is the ApproximateFrontiers function of
// Algorithm 3: it approximates the Pareto frontier of every intermediate
// result appearing in plan p, traversing the plan tree in post-order. For
// every join node it recombines cached partial Pareto plans of the two
// input table sets (which may use different join orders, discovered in
// earlier iterations) with every applicable join operator; for every
// scan it tries every scan operator. New plans are pruned into the cache
// with approximation factor alpha. A differential test holds the cache
// against a test-only transcription of Algorithm 3 (PruneApprox into
// plain slices, no admission floors).
func approximateFrontiers(m *costmodel.Model, p *plan.Plan, pc *cache.Cache, alpha float64) {
	if !p.IsJoin() {
		bucket := pc.BucketFor(p)
		for _, op := range plan.AllScanOps() {
			// As with joins: cost first, materialize only on admission.
			if bucket.Admits(m.ScanCost(p.Table, op), op.Output(), alpha) {
				bucket.Insert(m.NewScan(p.Table, op), alpha)
			}
		}
		return
	}
	approximateFrontiers(m, p.Outer, pc, alpha)
	approximateFrontiers(m, p.Inner, pc, alpha)
	// Iterating the children's frontiers while inserting into the
	// parent's is safe: the table sets differ, so the buckets are
	// distinct.
	ob, ib := pc.BucketFor(p.Outer), pc.BucketFor(p.Inner)
	recombinePairs(m, pc.BucketFor(p), ob, ib, p, alpha)
}

// recombinePairs offers every pair of the outer bucket ob's and the
// inner bucket ib's plans, over every applicable join operator, to the
// bucket, pricing candidates before materializing them. parent is the
// join node being recombined: every pair unions to its table set, so
// its cardinality, set and interned id are hoisted out of the loop
// (admitted candidates materialize via NewJoinPriced without re-hashing
// the set or re-pricing the candidate).
//
// Candidates are pre-filtered through hierarchical admission floors
// before any pricing happens: operator costs are the children's
// cost combination plus non-negative operator terms and the combination
// rules are monotone, so the combination of the child buckets' corner
// vectors lower-bounds every candidate of the visit, the combination of
// one outer plan with the inner corner lower-bounds that outer's
// candidates, and the pair combination lower-bounds the pair's
// operators. Rejecting a floor for both output representations prunes
// the whole group without touching the evaluator. The floors guarantee
// only that skipped offers are ones the bucket provably rejects, so
// cache trajectories stay bit-identical to the floor-free reference
// (the differential tests hold them together). They do not bound the
// work of a visit: a floor that the bucket admits sends its group on to
// the next level. Non-empty child frontiers imply both child buckets
// admitted plans, so both corners exist.
func recombinePairs(m *costmodel.Model, bucket *cache.Bucket, ob, ib *cache.Bucket, parent *plan.Plan, alpha float64) {
	outers, inners := ob.Plans(), ib.Plans()
	if len(outers) == 0 || len(inners) == 0 {
		return
	}
	card := parent.Card
	// Every plan of a bucket joins the same table set and therefore
	// carries the same cardinality estimate, so the evaluator preparation
	// is identical for every pair of the visit — hoist it (and the floor
	// minima) out of both loops.
	var ev costmodel.JoinEval
	m.PrepareJoin(&ev, outers[0].Card, inners[0].Card, card)
	var vecBuf [16]cost.Vector
	ev.PrepareFloors()
	innerCorner := ib.Corner()
	callBase := m.CombineChildren(ob.Corner(), innerCorner)
	if !bucket.Admits(ev.FloorCost(callBase, plan.Pipelined), plan.Pipelined, alpha) &&
		!bucket.Admits(ev.FloorCost(callBase, plan.Materialized), plan.Materialized, alpha) {
		return
	}
	for _, outer := range outers {
		outerBase := m.CombineChildren(outer.Cost, innerCorner)
		if !bucket.Admits(ev.FloorCost(outerBase, plan.Pipelined), plan.Pipelined, alpha) &&
			!bucket.Admits(ev.FloorCost(outerBase, plan.Materialized), plan.Materialized, alpha) {
			continue
		}
		for _, inner := range inners {
			base := m.CombineChildren(outer.Cost, inner.Cost)
			pipeOK := bucket.Admits(ev.FloorCost(base, plan.Pipelined), plan.Pipelined, alpha)
			matOK := bucket.Admits(ev.FloorCost(base, plan.Materialized), plan.Materialized, alpha)
			if !pipeOK && !matOK {
				continue
			}
			// Price only the operators of output classes that survived
			// the floor, in one batch (bit-identical to per-operator
			// JoinCostParts; the filtered slices preserve the canonical
			// offer order).
			var ops []plan.JoinOp
			switch {
			case pipeOK && matOK:
				ops = plan.JoinOps(outer, inner)
			case pipeOK:
				ops = plan.JoinOpsProducing(inner.Output, plan.Pipelined)
			default:
				ops = plan.JoinOpsProducing(inner.Output, plan.Materialized)
			}
			ev.OpCostAll(ops, base, &vecBuf)
			for k, op := range ops {
				// Only candidates passing the α-admission test are
				// materialized.
				vec := vecBuf[k]
				if !bucket.Admits(vec, op.Output(), alpha) {
					continue
				}
				bucket.Insert(m.NewJoinPriced(op, outer, inner, card, parent.Rel, parent.RelID, vec), alpha)
			}
		}
	}
}
