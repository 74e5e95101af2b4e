package core

import (
	"math"

	"rmq/internal/cache"
	"rmq/internal/cost"
	"rmq/internal/costmodel"
	"rmq/internal/plan"
)

// defaultAlphaLevels is the number of precomputed α schedule levels
// (⌊i/25⌋ values). Level 321 is the first where 25·0.99^level < 1, so
// every level beyond the table is floored at 1; the generous size keeps
// that a comfortable invariant rather than a tight one.
const defaultAlphaLevels = 512

// defaultAlphaTab[k] = max(25·0.99^k, 1), precomputed with the exact
// formula of DefaultAlpha so table lookups are bit-identical to it. The
// table removes a math.Pow call from every iteration of the main loop.
var defaultAlphaTab = func() [defaultAlphaLevels]float64 {
	var tab [defaultAlphaLevels]float64
	for k := range tab {
		a := 25 * math.Pow(0.99, float64(k))
		if a < 1 {
			a = 1
		}
		tab[k] = a
	}
	return tab
}()

// DefaultAlpha is the paper's approximation-precision schedule
// (Algorithm 3, line 21): α = 25 · 0.99^⌊i/25⌋ for iteration counter i,
// floored at 1. The schedule starts coarse so early iterations explore
// many join orders quickly and refines as iterations progress, letting
// the approximation converge towards the true Pareto frontier. Values
// come from a precomputed table (bit-identical to the formula, which a
// test pins down) so the hot loop never calls math.Pow.
func DefaultAlpha(iteration int) float64 {
	if iteration < 0 {
		// Out-of-domain cold path: fall back to the literal formula.
		a := 25 * math.Pow(0.99, math.Floor(float64(iteration)/25))
		if a < 1 {
			return 1
		}
		return a
	}
	level := iteration / 25
	if level >= defaultAlphaLevels {
		return 1
	}
	return defaultAlphaTab[level]
}

// approximateFrontiers is the ApproximateFrontiers function of
// Algorithm 3: it approximates the Pareto frontier of every intermediate
// result appearing in plan p, traversing the plan tree in post-order. For
// every join node it recombines cached partial Pareto plans of the two
// input table sets (which may use different join orders, discovered in
// earlier iterations) with every applicable join operator; for every
// scan it tries every scan operator. New plans are pruned into the cache
// with approximation factor alpha.
//
// Join nodes consult the cache's per-partition visit memo
// (cache.Bucket.BeginRecomb): a node whose children are unchanged since
// its last visit at a same-or-coarser α is skipped, and otherwise only
// the pairs involving a newly admitted child plan are recombined —
// old×new first, then new×all, which is exactly the order the full
// cross product offers the fresh pairs in. Because re-offering
// an already offered pair at a same-or-coarser α never changes the
// bucket (rejections persist under eviction and admitted plans
// re-reject), the resulting cache states are bit-identical to full
// recombination for any non-increasing α schedule; a differential test
// holds the trajectory against a test-only transcription of Algorithm 3
// (full cross products, PruneApprox into plain slices, no floors).
func approximateFrontiers(m *costmodel.Model, p *plan.Plan, pc *cache.Cache, alpha float64) {
	if p.IsJoin() {
		approximateFrontiers(m, p.Outer, pc, alpha)
		approximateFrontiers(m, p.Inner, pc, alpha)
		ob := pc.BucketFor(p.Outer)
		ib := pc.BucketFor(p.Inner)
		// Iterating the children's frontiers while inserting into the
		// parent's is safe: the table sets differ, so the buckets are
		// distinct.
		bucket := pc.BucketFor(p)
		var v cache.Visit
		bucket.BeginRecomb(ob, ib, alpha, &v)
		if v.Skip {
			return
		}
		if v.Full {
			recombinePairs(m, bucket, ob, ib, v.Outers, v.Inners, p, alpha)
		} else {
			oldOuters := v.Outers[:len(v.Outers)-len(v.NewOuters)]
			recombinePairs(m, bucket, ob, ib, oldOuters, v.NewInners, p, alpha)
			recombinePairs(m, bucket, ob, ib, v.NewOuters, v.Inners, p, alpha)
		}
	} else {
		bucket := pc.BucketFor(p)
		// Scan leaves converge after one visit: the operator set and its
		// costs never change, so the bucket memoizes the finest α offered
		// (BeginScans) and later visits at same-or-coarser α skip the
		// whole offer loop — the scan-leaf analogue of BeginRecomb's
		// Skip, and equally trajectory-preserving.
		if !bucket.BeginScans(alpha) {
			return
		}
		for _, op := range plan.AllScanOps() {
			// As with joins: cost first, materialize only on admission.
			if !bucket.Admits(m.ScanCost(p.Table, op), op.Output(), alpha) {
				continue
			}
			bucket.Insert(m.NewScanForID(p.Table, op, p.RelID), alpha)
		}
	}
}

// recombinePairs offers every (outer, inner) pair over every applicable
// join operator to the bucket, pricing candidates before materializing
// them. parent is the join node being recombined: every pair unions to
// its table set, so its cardinality, set and interned id are hoisted
// out of the loop (admitted candidates materialize via NewJoinPriced
// without re-hashing the set or re-pricing the candidate).
//
// Candidates are pre-filtered through hierarchical admission floors
// before any pricing happens: operator costs are the children's
// cost combination plus non-negative operator terms and the combination
// rules are monotone, so the combination of the child buckets' corner
// vectors lower-bounds every candidate of the visit, the combination of
// one outer plan with the inner corner lower-bounds that outer's
// candidates, and the pair combination lower-bounds the pair's
// operators. Rejecting a floor for both output representations prunes
// the whole group without touching the evaluator — a converged visit
// costs two probes total. The filter only skips offers the bucket
// provably rejects, so cache trajectories stay bit-identical to the
// floor-free reference (the differential tests hold them together).
// Non-empty outers and inners imply both child buckets admitted plans,
// so both corners exist.
func recombinePairs(m *costmodel.Model, bucket *cache.Bucket, ob, ib *cache.Bucket, outers, inners []*plan.Plan, parent *plan.Plan, alpha float64) {
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
			// OpCost; the filtered slices preserve the canonical offer
			// order).
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
