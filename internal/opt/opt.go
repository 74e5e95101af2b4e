// Package opt defines the common contract between the experiment harness
// and the optimization algorithms (RMQ and every baseline): an anytime
// Optimizer that is stepped until a time budget expires and can report
// its current result plan set at any moment, plus the non-dominated
// archive used by the randomized baselines to accumulate results.
//
//rmq:deterministic
//rmq:cancelable
package opt

import (
	"rmq/internal/catalog"
	"rmq/internal/cost"
	"rmq/internal/costmodel"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// Problem is one multi-objective query optimization instance: a database
// catalog, the query (the set of all catalog tables, per the paper's
// model), and the cost model with the metric subset of the test case.
// A Problem is not safe for concurrent use (the model memoizes
// cardinalities); algorithms run on it sequentially.
type Problem struct {
	Model *costmodel.Model
	Query tableset.Set
	// Retained is optimizer-owned state that rides along when a session
	// pools the problem across runs (e.g. RMQ's warmed private plan
	// cache and its shared-store sync marks, so a warm start is a delta
	// pull instead of an O(store) import). Optimizers must validate that
	// retained state is their own and still compatible before reusing
	// it, and must ignore it otherwise; it is never shared between
	// concurrent runs because a problem is borrowed by one worker at a
	// time.
	Retained any
}

// NewProblem builds the optimization problem for joining all tables of
// the catalog under the given cost metrics.
func NewProblem(cat *catalog.Catalog, metrics []costmodel.Metric) *Problem {
	return NewProblemWithInterner(cat, metrics, nil)
}

// NewProblemWithInterner is NewProblem with an externally owned
// table-set interner (nil for a private one). Runs that publish into a
// session-scoped shared plan cache build their problems over the
// cache's shared-mode interner so plan ids agree across workers; see
// cache.Shared.
func NewProblemWithInterner(cat *catalog.Catalog, metrics []costmodel.Metric, in *tableset.Interner) *Problem {
	return &Problem{
		Model: costmodel.NewWithInterner(cat, metrics, in),
		Query: cat.AllTables(),
	}
}

// Dim returns the number of cost metrics (the paper's l).
func (p *Problem) Dim() int { return p.Model.Dim() }

// Optimizer is an anytime multi-objective query optimizer. The harness
// calls Init once per run, then Step repeatedly until the time budget
// expires or Step returns false (nothing left to do — only the exhaustive
// baselines ever finish). Frontier may be called between any two steps to
// snapshot the current result plan set.
type Optimizer interface {
	// Name returns the algorithm's display name (e.g. "RMQ", "DP(2)").
	Name() string
	// Init prepares a fresh run on the problem with the given random
	// seed, discarding all prior state.
	Init(p *Problem, seed uint64)
	// Step performs one bounded unit of work and reports whether more
	// work remains.
	Step() bool
	// Frontier returns the current result plans for the full query. The
	// returned slice must not be modified and may alias internal state;
	// it is valid until the next Step call. Frontiers should be
	// cumulative: a plan may disappear from later frontiers only when a
	// plan at least as good (possibly approximately) replaced it. Run
	// merges frontiers into its result archive at unspecified moments,
	// so algorithms that drop undominated plans lose them from the
	// merged result depending on merge timing.
	Frontier() []*plan.Plan
}

// DeltaFrontier is an optional Optimizer extension: optimizers whose
// result frontier carries admission marks can report just the plans
// admitted since a previous mark, so a periodic merge into a shared
// archive costs O(new plans) instead of O(frontier). Run uses it for
// delta-based parallel merging and falls back to merging the whole
// Frontier for optimizers without it.
//
// FrontierDelta(0) must return the full current frontier; the returned
// mark is passed to the next call. The union of all deltas may include
// plans that were admitted and later evicted again — harmless for
// dominance-based consumers, because every evicted plan is weakly
// dominated by a plan in the final frontier, so folding the deltas into
// a non-dominated archive yields the same cost set as folding the final
// frontier. Like Frontier, the returned slice must not be modified and
// is valid until the next Step call.
type DeltaFrontier interface {
	FrontierDelta(mark uint64) ([]*plan.Plan, uint64)
}

// Factory constructs a fresh optimizer instance. The harness uses
// factories so concurrent test cases never share optimizer state.
type Factory struct {
	// Name is the display name, matching Optimizer.Name of the product.
	Name string
	// New returns a new, uninitialized optimizer.
	New func() Optimizer
}

// Archive accumulates complete query plans, keeping only plans whose cost
// vectors are not weakly dominated by another archived plan. Output data
// representations are ignored: archive entries are final results for the
// full query, compared on cost alone (the paper's result plan sets).
// Plans are kept in admission order.
type Archive struct {
	plans []*plan.Plan
}

// Add inserts p unless an archived plan weakly dominates it (which also
// deduplicates equal cost vectors); plans that p weakly dominates are
// evicted. It reports whether p was admitted.
func (a *Archive) Add(p *plan.Plan) bool {
	for _, q := range a.plans {
		if q.Cost.Dominates(p.Cost) {
			return false
		}
	}
	keep := a.plans[:0]
	for _, q := range a.plans {
		if !p.Cost.Dominates(q.Cost) {
			keep = append(keep, q)
		}
	}
	a.plans = append(keep, p)
	return true
}

// Plans returns the archived plans. Callers must not modify the slice.
func (a *Archive) Plans() []*plan.Plan { return a.plans }

// Len returns the number of archived plans.
func (a *Archive) Len() int { return len(a.plans) }

// Reset empties the archive.
func (a *Archive) Reset() {
	a.plans = a.plans[:0]
}

// Costs extracts the cost vectors of a plan slice; the harness snapshots
// frontiers in this form.
func Costs(plans []*plan.Plan) []cost.Vector {
	out := make([]cost.Vector, len(plans))
	for i, p := range plans {
		out[i] = p.Cost
	}
	return out
}
