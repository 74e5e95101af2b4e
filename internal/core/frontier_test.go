package core

import (
	"math/rand/v2"
	"testing"

	"rmq/internal/cache"
	"rmq/internal/costmodel"
	"rmq/internal/plan"
	"rmq/internal/randplan"
	"rmq/internal/tableset"
)

// refFrontiers is a test-only transcription of Algorithm 3's
// ApproximateFrontiers: plain per-table-set plan slices, every join node
// recombined over the full cross product of its children's frontiers,
// and every candidate materialized and pruned by cache.PruneApprox — no
// buckets, no column mirrors, no admission floors. The production path
// must reproduce its frontiers plan for plan.
type refFrontiers struct {
	sets  map[tableset.Set][]*plan.Plan
	order []tableset.Set // first-contact order, for deterministic walks
	plans int
}

func newRefFrontiers() *refFrontiers {
	return &refFrontiers{sets: make(map[tableset.Set][]*plan.Plan)}
}

func (r *refFrontiers) prune(p *plan.Plan, alpha float64) {
	plans, seen := r.sets[p.Rel]
	if !seen {
		r.order = append(r.order, p.Rel)
	}
	before := len(plans)
	r.sets[p.Rel], _ = cache.PruneApprox(plans, p, alpha)
	r.plans += len(r.sets[p.Rel]) - before
}

func (r *refFrontiers) approximate(m *costmodel.Model, p *plan.Plan, alpha float64) {
	if !p.IsJoin() {
		for _, op := range plan.AllScanOps() {
			r.prune(m.NewScan(p.Table, op), alpha)
		}
		return
	}
	r.approximate(m, p.Outer, alpha)
	r.approximate(m, p.Inner, alpha)
	// Every candidate joins the node's set: one cardinality serves all.
	card := m.Card(p.Rel)
	for _, outer := range r.sets[p.Outer.Rel] {
		for _, inner := range r.sets[p.Inner.Rel] {
			for _, op := range plan.JoinOps(outer, inner) {
				r.prune(m.NewJoinWithCard(op, outer, inner, card), alpha)
			}
		}
	}
}

// samePlan reports whether two plans are the same tree: same operators,
// table sets, output representations and cost vectors at every node.
func samePlan(a, b *plan.Plan) bool {
	if a.Rel != b.Rel || a.Output != b.Output || a.Cost != b.Cost || a.IsJoin() != b.IsJoin() {
		return false
	}
	if !a.IsJoin() {
		return a.Table == b.Table && a.Scan == b.Scan
	}
	return a.Join == b.Join && samePlan(a.Outer, b.Outer) && samePlan(a.Inner, b.Inner)
}

// checkAgainstReference climbs one sequence of random plans (climbing
// never reads the cache) and re-approximates each one twice: through
// approximateFrontiers on a real cache.Cache, and through refFrontiers.
// After every step both must hold the same plans in the same order for
// every table set.
func checkAgainstReference(t *testing.T, tables int, seed uint64, steps int, alphaAt func(iter int) float64) {
	t.Helper()
	p := testProblem(t, tables, seed)
	m := p.Model
	climber := NewClimber(m, ClimbConfig{})
	rng := rand.New(rand.NewPCG(seed, 0x524d51))
	pc := cache.New(m.Interner())
	ref := newRefFrontiers()
	for i := 1; i <= steps; i++ {
		optPlan, _ := climber.Climb(randplan.Random(m, p.Query, rng))
		alpha := alphaAt(i)
		approximateFrontiers(m, optPlan, pc, alpha)
		ref.approximate(m, optPlan, alpha)
		if pc.NumSets() != len(ref.order) || pc.NumPlans() != ref.plans {
			t.Fatalf("step %d (α=%g): cache holds %d sets/%d plans, reference %d/%d",
				i, alpha, pc.NumSets(), pc.NumPlans(), len(ref.order), ref.plans)
		}
		for _, set := range ref.order {
			got, want := pc.Get(set), ref.sets[set]
			if len(got) != len(want) {
				t.Fatalf("step %d (α=%g): set %v holds %d plans, reference %d", i, alpha, set, len(got), len(want))
			}
			for j := range got {
				if !samePlan(got[j], want[j]) {
					t.Fatalf("step %d (α=%g): set %v diverged at plan %d: %v vs %v",
						i, alpha, set, j, got[j], want[j])
				}
			}
		}
	}
}

// TestRecombinationMatchesReference is the end-to-end differential
// test of the frontier approximation under the paper's default α
// schedule: admission floors skip only provably rejected candidates and
// the columnar admission sweep decides exactly as PruneApprox, so the
// cache must match the reference after every iteration. The schedule
// also runs fast-forwarded (one precision level per step), so that α
// drops far enough for earlier rejections to turn into admissions.
func TestRecombinationMatchesReference(t *testing.T) {
	checkAgainstReference(t, 14, 42, 80, DefaultAlpha)
	checkAgainstReference(t, 14, 42, 80, func(i int) float64 { return DefaultAlpha(25 * i) })
}

// TestRecombinationMatchesReferenceUnderFixedAlpha repeats the
// differential run with fixed exact, fine and coarse α schedules.
func TestRecombinationMatchesReferenceUnderFixedAlpha(t *testing.T) {
	for _, alpha := range []float64{1, 2, 25} {
		checkAgainstReference(t, 10, 17, 50, func(int) float64 { return alpha })
	}
}

// TestRMQFrontierDelta checks the opt.DeltaFrontier implementation: the
// deltas between marks must tile the admission stream, and folding them
// dominance-wise must recover the final frontier.
func TestRMQFrontierDelta(t *testing.T) {
	p := testProblem(t, 10, 91)
	r := New(Config{})
	r.Init(p, 5)
	var mark uint64
	seen := make(map[*plan.Plan]bool)
	for i := 0; i < 40; i++ {
		r.Step()
		var delta []*plan.Plan
		delta, mark = r.FrontierDelta(mark)
		for _, dp := range delta {
			if seen[dp] {
				t.Fatalf("plan delivered in two deltas: %v", dp.Cost)
			}
			seen[dp] = true
		}
	}
	if delta, _ := r.FrontierDelta(mark); len(delta) != 0 {
		t.Fatalf("empty-step delta has %d plans", len(delta))
	}
	// Every current frontier plan must have appeared in some delta.
	for _, fp := range r.Frontier() {
		if !seen[fp] {
			t.Fatalf("frontier plan never reported in a delta: %v", fp.Cost)
		}
	}
	// FrontierDelta(0) returns the full current frontier.
	full, _ := r.FrontierDelta(0)
	if len(full) != len(r.Frontier()) {
		t.Fatalf("FrontierDelta(0) = %d plans, Frontier = %d", len(full), len(r.Frontier()))
	}
}
