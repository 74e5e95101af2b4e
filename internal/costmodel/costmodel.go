// Package costmodel implements the multi-metric plan cost model and is
// the only place where plan nodes are constructed (it is the plan
// factory, so every plan node always carries a consistent cost vector).
//
// Three cost metrics are modeled — execution time, buffer space and disc
// space — the same set used in the paper's experiments (Section 6.1,
// citing the many-objective SIGMOD'14 setup). A Model projects the raw
// metrics onto the subset chosen for a test case ("for less than three
// cost metrics, we select the specified number of cost metrics with
// uniform distribution from the total set of metrics for each test
// case").
//
// Composition rules are chosen so the multi-objective principle of
// optimality holds (Section 4.2): time and disc are additive over
// sub-plans, buffer is the maximum over the sub-tree. All three are
// monotone — replacing a sub-plan by one with dominating cost can never
// worsen the total plan cost — which is what both the local pruning in
// ParetoStep and the plan cache sharing in ApproximateFrontiers rely on.
package costmodel

import (
	"fmt"
	"math"
	"math/rand/v2"

	"rmq/internal/catalog"
	"rmq/internal/cost"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// Metric identifies one raw cost metric.
type Metric uint8

const (
	// Time is estimated execution time in I/O-equivalent units.
	Time Metric = iota
	// Buffer is the peak number of buffer pages held at any point.
	Buffer
	// Disc is the total number of temporary pages written to disc.
	Disc

	// NumMetrics is the number of raw metrics available.
	NumMetrics = 3
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case Time:
		return "time"
	case Buffer:
		return "buffer"
	case Disc:
		return "disc"
	default:
		return fmt.Sprintf("Metric(%d)", uint8(m))
	}
}

// AllMetrics returns the full metric set in canonical order.
func AllMetrics() []Metric { return []Metric{Time, Buffer, Disc} }

// ChooseMetrics draws l distinct metrics uniformly at random, as the
// paper's test case generator does when fewer than three metrics are
// used. The result preserves canonical metric order.
func ChooseMetrics(l int, rng *rand.Rand) []Metric {
	if l < 1 || l > NumMetrics {
		panic(fmt.Sprintf("costmodel: cannot choose %d of %d metrics", l, NumMetrics))
	}
	all := AllMetrics()
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	picked := all[:l]
	// Restore canonical order for stable presentation.
	for i := 0; i < len(picked); i++ {
		for j := i + 1; j < len(picked); j++ {
			if picked[j] < picked[i] {
				picked[i], picked[j] = picked[j], picked[i]
			}
		}
	}
	return picked
}

// raw is a full (time, buffer, disc) triple before projection.
type raw struct {
	time, buffer, disc float64
}

// Model evaluates plan costs over a catalog for a chosen metric subset
// and constructs plan nodes. A Model is not safe for concurrent use:
// its estimator memoizes the cardinalities that JoinCard, NewJoin,
// Recost and the DP baseline look up. Optimizer runs each own one. RMQ
// never fills the memo: its random plans and climbing moves price joins
// with CardDirect, so its frontier stage may build scan nodes (NewScan)
// through the interner, which is safe for concurrent use, while its
// climbing stage prices plans.
type Model struct {
	est     *catalog.Estimator
	metrics []Metric
	in      *tableset.Interner
	// ti, bi and di are the vector component indices of the Time, Buffer
	// and Disc metrics under the projection (-1 when the metric is not
	// selected); the hot evaluation paths branch on them instead of
	// looping over the metric subset.
	ti, bi, di int8
}

// New builds a model over the catalog with the given metric subset (the
// paper's l = len(metrics) cost metrics).
func New(cat *catalog.Catalog, metrics []Metric) *Model {
	return NewWithInterner(cat, metrics, nil)
}

// NewWithInterner is New with an externally owned table-set interner; a
// nil interner gives the model one of its own, which lives as long as
// the model. Sessions that share one plan cache across workers and runs
// build every participating model over the store's interner
// (cache.Shared.Interner), so the interned ids carried by the models'
// plans (plan.RelID) agree with the shared cache's bucket indices. The
// model itself stays single-goroutine either way; only the interner is
// shared.
func NewWithInterner(cat *catalog.Catalog, metrics []Metric, in *tableset.Interner) *Model {
	if len(metrics) == 0 {
		panic("costmodel: need at least one metric")
	}
	if in == nil {
		in = tableset.NewInterner()
	}
	ms := append([]Metric(nil), metrics...)
	m := &Model{
		est:     catalog.NewEstimator(cat),
		metrics: ms,
		in:      in,
		ti:      -1,
		bi:      -1,
		di:      -1,
	}
	for i, mt := range ms {
		switch mt {
		case Time:
			m.ti = int8(i)
		case Buffer:
			m.bi = int8(i)
		case Disc:
			m.di = int8(i)
		}
	}
	return m
}

// Interner returns the model's table-set interner. Every plan node the
// model constructs carries the interned id of its table set (plan.RelID);
// the plan cache indexes its buckets by these ids, so it must be built
// over the same interner (see cache.New).
func (m *Model) Interner() *tableset.Interner { return m.in }

// RelID interns the table set, returning its dense id.
//
//rmq:hotpath
func (m *Model) RelID(rel tableset.Set) tableset.ID { return m.in.Intern(rel) }

// Catalog returns the model's catalog.
func (m *Model) Catalog() *catalog.Catalog { return m.est.Catalog() }

// Estimator returns the model's cardinality estimator.
func (m *Model) Estimator() *catalog.Estimator { return m.est }

// Metrics returns the projected metric subset.
func (m *Model) Metrics() []Metric { return m.metrics }

// Dim returns the number of cost metrics (the paper's l).
func (m *Model) Dim() int { return len(m.metrics) }

// project maps a raw metric triple onto the model's metric subset.
func (m *Model) project(r raw) cost.Vector {
	v := cost.Zero(len(m.metrics))
	for i, mt := range m.metrics {
		switch mt {
		case Time:
			v.V[i] = cost.Sat(r.time)
		case Buffer:
			v.V[i] = cost.Sat(r.buffer)
		case Disc:
			v.V[i] = cost.Sat(r.disc)
		}
	}
	return v
}

// combine merges children cost vectors with the operator's own raw cost,
// applying the per-metric composition rule (time/disc additive, buffer
// max).
func (m *Model) combine(outer, inner cost.Vector, op raw) cost.Vector {
	v := cost.Zero(len(m.metrics))
	for i, mt := range m.metrics {
		switch mt {
		case Time:
			v.V[i] = cost.Sat(outer.V[i] + inner.V[i] + op.time)
		case Buffer:
			v.V[i] = math.Max(math.Max(outer.V[i], inner.V[i]), op.buffer)
		case Disc:
			v.V[i] = cost.Sat(outer.V[i] + inner.V[i] + op.disc)
		}
	}
	return v
}

// pages converts a row count to pages (≥ 1).
func pages(card float64) float64 {
	return math.Max(1, card/catalog.RowsPerPage)
}

// scanRaw returns the raw cost of scanning table t with op.
func (m *Model) scanRaw(t int, op plan.ScanOp) raw {
	p := m.Catalog().Table(t).Pages()
	switch op {
	case plan.SeqScan:
		return raw{time: p, buffer: 2}
	case plan.PinScan:
		return raw{time: 0.6 * p, buffer: p + 2}
	default:
		panic(fmt.Sprintf("costmodel: unknown scan op %v", op)) //rmq:allow-alloc(unreachable for valid operators; allocates only while crashing)
	}
}

// algRaw returns the raw cost of the join algorithm itself (pipelining
// variant), given outer and inner input page counts. It is the single
// source of the operator cost formulas; joinRaw and the hoisted
// evaluator table (PrepareJoin) both build on it.
func algRaw(alg plan.JoinAlg, po, pi float64) raw {
	switch alg {
	case plan.BNL10, plan.BNL100, plan.BNL1000:
		b := alg.BufferBudget()
		return raw{time: po + math.Max(1, po/b)*pi, buffer: b}
	case plan.Hash:
		return raw{time: 1.2 * (po + pi), buffer: 1.2*pi + 4}
	case plan.GraceHash:
		return raw{time: 3 * (po + pi), buffer: math.Sqrt(pi) + 4, disc: po + pi}
	case plan.SortMerge:
		return raw{
			time:   (po + pi) * (1 + math.Log2(1+po+pi)/4),
			buffer: 64,
			disc:   po + pi,
		}
	default:
		panic(fmt.Sprintf("costmodel: unknown join alg %v", alg)) //rmq:allow-alloc(unreachable for valid operators; allocates only while crashing)
	}
}

// materialized adds the cost of writing the operator's output (pout
// pages) to a temp so downstream operators can rescan it.
func (r raw) materialized(pout float64) raw {
	r.time += pout
	r.disc += pout
	return r
}

// joinRaw returns the raw cost of the join operator itself, given outer
// and inner input page counts and the output page count.
func joinRaw(op plan.JoinOp, po, pi, pout float64) raw {
	r := algRaw(op.Alg(), po, pi)
	if op.Materializes() {
		r = r.materialized(pout)
	}
	return r
}

// NewScan builds the plan ScanPlan(t, op) with its cost vector.
func (m *Model) NewScan(t int, op plan.ScanOp) *plan.Plan {
	n := new(plan.Plan)
	m.InitScan(n, t, op)
	return n
}

// InitScan fills the caller-allocated node n with ScanPlan(t, op).
// Generators that produce whole plan trees at once use it to build into
// a single block allocation instead of one per node.
func (m *Model) InitScan(n *plan.Plan, t int, op plan.ScanOp) {
	*n = plan.Plan{
		Rel:    tableset.Single(t),
		RelID:  m.in.Intern(tableset.Single(t)),
		Cost:   m.project(m.scanRaw(t, op)),
		Card:   m.Catalog().Table(t).Rows,
		Output: op.Output(),
		Table:  t,
		Scan:   op,
	}
}

// ScanCost returns the cost vector that ScanPlan(t, op) would have,
// without allocating the plan node. The climbing hot path uses it to
// evaluate scan alternatives and materializes only improvements.
//
//rmq:hotpath
func (m *Model) ScanCost(t int, op plan.ScanOp) cost.Vector {
	return m.project(m.scanRaw(t, op))
}

// JoinCard returns the estimated output cardinality of joining the two
// plans' table sets.
func (m *Model) JoinCard(outer, inner *plan.Plan) float64 {
	return m.est.Card(outer.Rel.Union(inner.Rel))
}

// CardDirect computes the cardinality of joining the table set without
// touching any memo (same values as JoinCard); see catalog.CardDirect.
//
//rmq:hotpath
func (m *Model) CardDirect(rel tableset.Set) float64 {
	return m.est.CardDirect(rel)
}

// JoinCost returns the cost vector that JoinPlan(outer, inner, op) would
// have, given the join's output cardinality (from JoinCard), without
// allocating the plan node. Hot loops use it to discard dominated
// candidates before construction. Loops evaluating several operators over
// the same input pair should hoist the shared work with PrepareJoin
// instead (see eval.go).
func (m *Model) JoinCost(op plan.JoinOp, outer, inner *plan.Plan, card float64) cost.Vector {
	return m.JoinCostParts(op, outer.Cost, outer.Card, inner.Cost, inner.Card, card)
}

// JoinCostParts is JoinCost on decomposed inputs: it evaluates a join
// whose operands are known only by cost vector and output cardinality.
//
//rmq:hotpath
func (m *Model) JoinCostParts(op plan.JoinOp, outerCost cost.Vector, outerCard float64, innerCost cost.Vector, innerCard float64, outCard float64) cost.Vector {
	op2 := joinRaw(op, pages(outerCard), pages(innerCard), pages(outCard))
	return m.combine(outerCost, innerCost, op2)
}

// NewJoin builds the plan JoinPlan(outer, inner, op) with its cost
// vector. The children must join disjoint table sets and op must be
// applicable to the inner input's representation; Validate in package
// plan checks these invariants in tests.
func (m *Model) NewJoin(op plan.JoinOp, outer, inner *plan.Plan) *plan.Plan {
	card := m.JoinCard(outer, inner)
	return m.NewJoinWithCard(op, outer, inner, card)
}

// NewJoinWithCard is NewJoin with the output cardinality already known
// (it must equal JoinCard(outer, inner)); hot loops that evaluate many
// operators over the same table set pass the cardinality through to skip
// repeated estimator lookups.
func (m *Model) NewJoinWithCard(op plan.JoinOp, outer, inner *plan.Plan, card float64) *plan.Plan {
	n := new(plan.Plan)
	m.InitJoinWithCard(n, op, outer, inner, card)
	return n
}

// InitJoinWithCard fills the caller-allocated node n with
// JoinPlan(outer, inner, op); see InitScan.
func (m *Model) InitJoinWithCard(n *plan.Plan, op plan.JoinOp, outer, inner *plan.Plan, card float64) {
	rel := outer.Rel.Union(inner.Rel)
	*n = plan.Plan{
		Rel:    rel,
		RelID:  m.in.Intern(rel),
		Cost:   m.JoinCost(op, outer, inner, card),
		Card:   card,
		Output: op.Output(),
		Join:   op,
		Outer:  outer,
		Inner:  inner,
	}
}

// NewJoinPriced is NewJoinWithCard for a candidate the caller has
// already priced and whose table set and interned id it knows: c must
// equal JoinCost(op, outer, inner, card), rel must equal
// outer.Rel.Union(inner.Rel) and relID must be this model's interner id
// for it. Recombination materializes every admitted candidate into one
// parent bucket whose set is fixed, so the per-candidate set union and
// intern hash hoist out of the loop entirely; and it prices every candidate
// through the batch evaluator (JoinEval.OpCostAll, bit-identical to
// JoinCostParts) before admission, so the node it materializes keeps
// that vector instead of pricing it a second time.
func (m *Model) NewJoinPriced(op plan.JoinOp, outer, inner *plan.Plan, card float64, rel tableset.Set, relID tableset.ID, c cost.Vector) *plan.Plan {
	return &plan.Plan{
		Rel:    rel,
		RelID:  relID,
		Cost:   c,
		Card:   card,
		Output: op.Output(),
		Join:   op,
		Outer:  outer,
		Inner:  inner,
	}
}

// Recost rebuilds a plan bottom-up under this model, returning a
// structurally identical plan with freshly computed cost vectors. It is
// used by tests to validate cost consistency and by tools that import
// plans produced under a different metric subset.
func (m *Model) Recost(p *plan.Plan) *plan.Plan {
	if !p.IsJoin() {
		return m.NewScan(p.Table, p.Scan)
	}
	return m.NewJoin(p.Join, m.Recost(p.Outer), m.Recost(p.Inner))
}
