package catalog

import (
	"math"
	"math/bits"

	"rmq/internal/tableset"
)

// Card returns the estimated row count of joining the table set s,
// clamped to [1, 1e250]; the empty set has one (empty) tuple.
//
// The standard independence model is used: the cardinality of joining a
// table set S is the product of the base cardinalities of the tables in S
// times the product of the selectivities of every join edge inside S.
// The estimate is therefore a function of the table *set* only — not the
// join order — which is exactly the property the paper's plan cache and
// the multi-objective principle of optimality rely on. It is computed
// from the immutable catalog alone, so Card is safe for concurrent use.
//
// Computation happens in log space (logCard) so 100-table cross products
// (linear values far beyond float64 range) remain finite.
//
//rmq:hotpath
func (c *Catalog) Card(s tableset.Set) float64 {
	if s.IsEmpty() {
		return 1
	}
	return linearize(c.logCard(s))
}

// logCard evaluates ln(cardinality) of the non-empty set s. The
// accumulation order is canonical (tables joined in descending index
// order, each contributing its base cardinality and the selectivities of
// its edges into the higher-index suffix, in adjacency order), so the
// result is a pure function of the table set: plans for the same set
// always agree bit-for-bit on their cardinality regardless of join
// order. The walk pops the highest remaining table off the set's words,
// so it needs no scratch: the suffix of a table t is s's tables above t.
//
//rmq:hotpath
func (c *Catalog) logCard(s tableset.Set) float64 {
	slo, shi := s.Words()
	lo, hi := slo, shi // the tables not yet folded
	t := popHighest(&lo, &hi)
	lc := c.lrows[t]
	for lo|hi != 0 {
		t = popHighest(&lo, &hi)
		// Folded tables are exactly s's tables above t (and t itself,
		// which has no edge to itself).
		flo, fhi := slo&^lo, shi&^hi
		sel := 0.0
		for _, nb := range c.adj[t] {
			w := flo
			if nb.table >= 64 {
				w = fhi
			}
			// Branch-free: a neighbour outside the folded tables adds
			// +0, which leaves sel unchanged, as sel starts at +0 and
			// only adds logs of selectivities in (0, 1], so it is
			// never -0.
			mask := -(w >> (uint(nb.table) & 63) & 1)
			sel += math.Float64frombits(math.Float64bits(nb.logSel) & mask)
		}
		lc = lc + c.lrows[t] + sel
	}
	return lc
}

// popHighest removes the highest table from the non-empty set held in
// lo and hi (the words of tableset.Set.Words) and returns it.
func popHighest(lo, hi *uint64) int {
	if *hi != 0 {
		t := 63 - bits.LeadingZeros64(*hi)
		*hi &^= 1 << uint(t)
		return 64 + t
	}
	t := 63 - bits.LeadingZeros64(*lo)
	*lo &^= 1 << uint(t)
	return t
}

// linearize converts a log cardinality to a linear row count clamped to
// [1, 1e250]; the clamps keep page counts and cost formulas sane for
// extremely selective joins and for astronomically large cross products
// (see cost.Saturation).
func linearize(lc float64) float64 {
	if lc > maxLogCard {
		return maxLinearCard
	}
	c := math.Exp(lc)
	if c < 1 {
		return 1
	}
	return c
}

// maxLogCard caps linear cardinalities at ~1e250 (see cost.Saturation).
var (
	maxLogCard    = math.Log(1e250)
	maxLinearCard = 1e250
)
