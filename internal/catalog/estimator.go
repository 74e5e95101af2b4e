package catalog

import (
	"math"
	"math/bits"

	"rmq/internal/tableset"
)

// Estimator computes intermediate-result cardinalities for table sets.
//
// The standard independence model is used: the cardinality of joining a
// table set S is the product of the base cardinalities of the tables in S
// times the product of the selectivities of every join edge inside S.
// The estimate is therefore a function of the table *set* only — not the
// join order — which is exactly the property the paper's plan cache and
// the multi-objective principle of optimality rely on.
//
// Computation happens in log space so 100-table cross products (linear
// values far beyond float64 range) remain finite; linear results saturate
// at cost.Saturation via SatCard. Estimates are memoized per table set.
//
// An Estimator is not safe for concurrent use; optimizer runs each own
// one (they are single-goroutine).
type Estimator struct {
	cat  *Catalog
	memo map[tableset.Set]cardEntry
}

// cardEntry memoizes both representations so the hot path (Card inside
// plan construction) avoids recomputing math.Exp.
type cardEntry struct {
	log float64 // ln(cardinality), exact in log space
	lin float64 // clamped linear cardinality
}

// NewEstimator returns an estimator over the given catalog.
func NewEstimator(cat *Catalog) *Estimator {
	return &Estimator{cat: cat, memo: make(map[tableset.Set]cardEntry)}
}

// Catalog returns the underlying catalog.
//
//rmq:hotpath
func (e *Estimator) Catalog() *Catalog { return e.cat }

// memoCap bounds the memo size; transient table sets beyond the cap are
// computed directly without being stored, keeping long optimizer runs at
// bounded memory.
const memoCap = 1 << 20

// entry computes (and memoizes) the cardinality of s. The empty set has
// log-cardinality 0 (one empty tuple), the neutral element of the
// product.
func (e *Estimator) entry(s tableset.Set) cardEntry {
	if s.IsEmpty() {
		return cardEntry{log: 0, lin: 1}
	}
	if ce, ok := e.memo[s]; ok {
		return ce
	}
	lc := e.computeLog(s)
	ce := cardEntry{log: lc, lin: linearize(lc)}
	if len(e.memo) < memoCap {
		e.memo[s] = ce
	}
	return ce
}

// computeLog evaluates ln(cardinality) of s directly. The accumulation
// order is canonical (tables joined in descending index order, each
// contributing its base cardinality and the selectivities of its edges
// into the higher-index suffix, in adjacency order), so the result is a
// pure function of the table set: plans for the same set always agree
// bit-for-bit on their cardinality regardless of join order. The walk
// pops the highest remaining table off the set's words, so it needs no
// scratch: the suffix of a table t is s's tables above t.
//
//rmq:hotpath
func (e *Estimator) computeLog(s tableset.Set) float64 {
	slo, shi := s.Words()
	lo, hi := slo, shi // the tables not yet folded
	t := popHighest(&lo, &hi)
	lc := e.cat.lrows[t]
	for lo|hi != 0 {
		t = popHighest(&lo, &hi)
		// Folded tables are exactly s's tables above t (and t itself,
		// which has no edge to itself).
		flo, fhi := slo&^lo, shi&^hi
		sel := 0.0
		for _, nb := range e.cat.adj[t] {
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
		lc = lc + e.cat.lrows[t] + sel
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
// extremely selective joins and for astronomically large cross products.
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

// CardDirect computes Card(s) without touching any memo: the same
// canonical-order evaluation (and therefore bit-identical values) as the
// memoized Card, but with no probe, no insert and no growth. Callers
// that price an unbounded stream of transient table sets — the climbing
// move search — use it behind their own small bounded cache.
//
//rmq:hotpath
func (e *Estimator) CardDirect(s tableset.Set) float64 {
	if s.IsEmpty() {
		return 1
	}
	return linearize(e.computeLog(s))
}

// MemoLen returns the number of table sets whose estimates are
// memoized.
func (e *Estimator) MemoLen() int { return len(e.memo) }

// LogCard returns ln(cardinality) of the join of table set s.
func (e *Estimator) LogCard(s tableset.Set) float64 { return e.entry(s).log }

// Card returns the estimated row count of joining s, clamped to
// [1, 1e250].
func (e *Estimator) Card(s tableset.Set) float64 { return e.entry(s).lin }

// Pages returns the size of the intermediate result for s in pages (≥ 1).
func (e *Estimator) Pages(s tableset.Set) float64 {
	return math.Max(1, e.Card(s)/RowsPerPage)
}

// JoinSelectivity returns the combined selectivity factor applied when
// joining disjoint table sets a and b: the product of the selectivities of
// all edges crossing between them (1 for a pure cross product).
func (e *Estimator) JoinSelectivity(a, b tableset.Set) float64 {
	ls := e.logJoinSel(a, b)
	if ls == 0 {
		return 1
	}
	return math.Exp(ls)
}

func (e *Estimator) logJoinSel(a, b tableset.Set) float64 {
	// Iterate the smaller side's tables and sum the log-selectivities of
	// their edges into the other side.
	if b.Count() < a.Count() {
		a, b = b, a
	}
	sum := 0.0
	a.ForEach(func(t int) {
		sum += e.cat.logSelBetween(t, b)
	})
	return sum
}

// maxLogCard caps linear cardinalities at ~1e250 (see cost.Saturation).
var (
	maxLogCard    = math.Log(1e250)
	maxLinearCard = 1e250
)
