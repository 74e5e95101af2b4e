// Package dp implements the dynamic-programming baselines of the paper's
// evaluation: the multi-objective approximation schemes of Trummer and
// Koch (SIGMOD 2014), denoted DP(α). DP enumerates every subset of the
// query tables in ascending cardinality, combines the (approximate)
// Pareto frontiers of every two-way partition with every applicable join
// operator, and prunes each subset's frontier with the α-approximate
// dominance test — guaranteeing an α-approximate Pareto set on
// completion, at a cost exponential in the number of tables.
//
// DP(1) is the exhaustive exact algorithm; DP(∞) keeps a single plan per
// table set and output format (the single-objective-style DP); DP(1.01)
// produces the near-exact reference frontiers used for the precise error
// measurements of Figures 8 and 9. As in the paper, DP variants report
// results only once optimization has completed — for 25 tables and more
// they never finish within any reasonable budget, which is precisely the
// motivation for RMQ.
package dp

import (
	"fmt"
	"math"

	"rmq/internal/cache"
	"rmq/internal/opt"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// maxPlansCap is a defensive bound on the total number of cached partial
// plans; once exceeded the run halts (it would only ever be reached on
// query sizes where DP is hopeless anyway).
const maxPlansCap = 4_000_000

// DP is the dynamic-programming optimizer; it implements opt.Optimizer.
type DP struct {
	alpha   float64
	prune   float64 // per-level pruning factor: alpha^(1/n)
	problem *opt.Problem
	tables  []int
	fronts  map[tableset.Set][]*plan.Plan
	planCnt int

	size    int   // cardinality of subsets currently being processed
	comb    []int // current combination (indices into tables)
	done    bool
	aborted bool
}

// New returns an uninitialized DP optimizer with approximation factor
// alpha ≥ 1 (use math.Inf(1) for DP(∞), 1 for the exact algorithm).
func New(alpha float64) *DP { return &DP{alpha: alpha} }

func init() {
	opt.Register("dp", func(spec opt.Spec) (opt.Optimizer, error) {
		alpha := spec.DPAlpha
		if alpha == 0 {
			alpha = 2
		}
		if alpha < 1 {
			return nil, fmt.Errorf("DPAlpha %g < 1", alpha)
		}
		return New(alpha), nil
	})
}

// Name renders the conventional display name for DP(alpha).
func Name(alpha float64) string {
	if math.IsInf(alpha, 1) {
		return "DP(Infinity)"
	}
	if alpha == math.Trunc(alpha) {
		return fmt.Sprintf("DP(%.0f)", alpha)
	}
	return fmt.Sprintf("DP(%g)", alpha)
}

// Name implements opt.Optimizer.
func (o *DP) Name() string { return Name(o.alpha) }

// Alpha returns the approximation factor.
func (o *DP) Alpha() float64 { return o.alpha }

// Init implements opt.Optimizer. DP is deterministic; the seed is
// ignored.
//
// Pruning error compounds multiplicatively along the levels of a plan: a
// plan built from sub-plans that were approximated within factor δ is
// itself approximated within δ per level. To guarantee the user-facing
// factor α for the complete query, each subset frontier is therefore
// pruned with the per-level factor δ = α^(1/n) (the construction of the
// SIGMOD'14 approximation schemes).
func (o *DP) Init(p *opt.Problem, _ uint64) {
	o.problem = p
	o.tables = p.Query.Tables()
	switch {
	case math.IsInf(o.alpha, 1):
		o.prune = o.alpha
	case len(o.tables) > 0:
		o.prune = math.Pow(o.alpha, 1/float64(len(o.tables)))
	default:
		o.prune = o.alpha
	}
	o.fronts = make(map[tableset.Set][]*plan.Plan)
	o.planCnt = 0
	o.size = 1
	o.comb = firstCombination(1)
	o.done = len(o.tables) == 0
	o.aborted = false
}

// Done reports whether the full frontier has been computed.
func (o *DP) Done() bool { return o.done }

// Step processes one table subset (building its frontier from all
// partitions) and advances to the next subset in ascending-cardinality
// order. It returns false when finished or aborted.
func (o *DP) Step() bool {
	if o.done || o.aborted {
		return false
	}
	o.processSubset()
	if o.planCnt > maxPlansCap {
		o.aborted = true
		return false
	}
	if !nextCombination(o.comb, len(o.tables)) {
		o.size++
		if o.size > len(o.tables) {
			o.done = true
			return false
		}
		o.comb = firstCombination(o.size)
	}
	return true
}

// processSubset builds the frontier for the subset identified by the
// current combination. Every subset is visited exactly once, so the
// frontier starts empty and is published at the end.
func (o *DP) processSubset() {
	m := o.problem.Model
	elems := make([]int, len(o.comb))
	var set tableset.Set
	for i, ci := range o.comb {
		elems[i] = o.tables[ci]
		set = set.Add(elems[i])
	}
	var front []*plan.Plan
	if len(elems) == 1 {
		for _, op := range plan.AllScanOps() {
			front, _ = cache.PruneApprox(front, m.NewScan(elems[0], op), o.prune)
		}
	} else {
		// Enumerate every unordered two-way partition exactly once by
		// anchoring elems[0] on the left side, then try both operand
		// orientations for each partition.
		k := len(elems)
		card := m.Card(set)
		full := uint32(1)<<(k-1) - 1
		for mask := uint32(0); mask < full; mask++ {
			left := tableset.Single(elems[0])
			var right tableset.Set
			for i := 0; i < k-1; i++ {
				if mask&(1<<uint(i)) != 0 {
					left = left.Add(elems[i+1])
				} else {
					right = right.Add(elems[i+1])
				}
			}
			front = o.combine(front, card, left, right)
			front = o.combine(front, card, right, left)
		}
	}
	o.fronts[set] = front
	o.planCnt += len(front)
}

// combine joins every frontier plan of the outer table set with every
// frontier plan of the inner table set under every applicable operator,
// pruning into front. Candidate costs are evaluated before allocating
// plan nodes.
func (o *DP) combine(front []*plan.Plan, card float64, outerSet, innerSet tableset.Set) []*plan.Plan {
	m := o.problem.Model
	for _, outer := range o.fronts[outerSet] {
		for _, inner := range o.fronts[innerSet] {
			for _, op := range plan.JoinOps(outer, inner) {
				vec := m.JoinCost(op, outer, inner, card)
				if !cache.WouldAdmit(front, vec, op.Output(), o.prune) {
					continue
				}
				front, _ = cache.PruneApprox(front, m.NewJoinWithCard(op, outer, inner, card), o.prune)
			}
		}
	}
	return front
}

// Frontier implements opt.Optimizer: DP exposes results only on
// completion, matching how the approximation schemes behave in the
// paper's measurements.
func (o *DP) Frontier() []*plan.Plan {
	if !o.done {
		return nil
	}
	return o.fronts[o.problem.Query]
}

// FrontierOf returns the computed frontier of an arbitrary table set
// (valid once Done; used by tests and by the reference-frontier
// construction of the harness).
func (o *DP) FrontierOf(s tableset.Set) []*plan.Plan { return o.fronts[s] }

// firstCombination returns [0, 1, ..., k-1].
func firstCombination(k int) []int {
	c := make([]int, k)
	for i := range c {
		c[i] = i
	}
	return c
}

// nextCombination advances c to the next k-combination of {0..n-1} in
// lexicographic order, reporting false when exhausted.
func nextCombination(c []int, n int) bool {
	k := len(c)
	i := k - 1
	for i >= 0 && c[i] == n-k+i {
		i--
	}
	if i < 0 {
		return false
	}
	c[i]++
	for j := i + 1; j < k; j++ {
		c[j] = c[j-1] + 1
	}
	return true
}
