package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rmq/internal/catalog"
	"rmq/internal/costmodel"
	"rmq/internal/mutate"
	"rmq/internal/plan"
	"rmq/internal/randplan"
)

func testModel(tb testing.TB, n int, seed uint64) *costmodel.Model {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 1))
	cat := catalog.Generate(catalog.GenSpec{Tables: n, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng)
	return costmodel.New(cat, costmodel.AllMetrics())
}

func TestClimbNeverWorsens(t *testing.T) {
	m := testModel(t, 10, 3)
	rng := rand.New(rand.NewPCG(4, 4))
	c := NewClimber(m, ClimbConfig{})
	for i := 0; i < 30; i++ {
		p := randplan.Random(m, m.Catalog().AllTables(), rng)
		optPlan, steps := c.Climb(p)
		if !optPlan.Cost.Dominates(p.Cost) {
			t.Fatalf("climb worsened cost: %v -> %v", p.Cost, optPlan.Cost)
		}
		if steps > 0 && !optPlan.Cost.StrictlyDominates(p.Cost) {
			t.Fatalf("climb reported %d steps without strict improvement", steps)
		}
		if err := optPlan.Validate(); err != nil {
			t.Fatalf("invalid climbed plan: %v", err)
		}
		if optPlan.Rel != p.Rel {
			t.Fatal("climb changed the table set")
		}
	}
}

// TestClimbReachesLocalOptimum verifies the defining property of
// ParetoClimb: the result has no strictly dominating plan within one
// further climbing step.
func TestClimbReachesLocalOptimum(t *testing.T) {
	m := testModel(t, 8, 5)
	rng := rand.New(rand.NewPCG(6, 6))
	c := NewClimber(m, ClimbConfig{})
	for i := 0; i < 20; i++ {
		p := randplan.Random(m, m.Catalog().AllTables(), rng)
		optPlan, _ := c.Climb(p)
		if next := c.Step(optPlan); next != nil {
			t.Fatalf("climbed plan still improvable: %v -> %v", optPlan.Cost, next.Cost)
		}
	}
}

// refParetoStep is a reference single-incumbent ParetoStep built on
// mutate.Append with the canonical enumeration order; the in-place fast
// path must match it bit for bit.
func refParetoStep(m *costmodel.Model, p *plan.Plan) *plan.Plan {
	if !p.IsJoin() {
		best := p
		for _, mu := range mutate.Append(m, p, nil) {
			if mu.Cost.StrictlyDominates(best.Cost) {
				best = mu
			}
		}
		return best
	}
	outer := refParetoStep(m, p.Outer)
	inner := refParetoStep(m, p.Inner)
	rebuilt := p
	if outer != p.Outer || inner != p.Inner {
		rebuilt = m.NewJoinWithCard(mutate.PickRootOp(p.Join, inner.Output), outer, inner, p.Card)
	}
	best := rebuilt
	for _, mu := range mutate.Append(m, rebuilt, nil) {
		if mu.Cost.StrictlyDominates(best.Cost) {
			best = mu
		}
	}
	return best
}

// TestFastStepMatchesReferenceStep cross-checks the allocation-free
// in-place fast path against the mutate.Append-based reference step on
// random plans.
func TestFastStepMatchesReferenceStep(t *testing.T) {
	m := testModel(t, 9, 7)
	rng := rand.New(rand.NewPCG(8, 8))
	c := NewClimber(m, ClimbConfig{})
	for i := 0; i < 40; i++ {
		p := randplan.Random(m, m.Catalog().AllTables(), rng)
		fast := c.Step(p)
		ref := refParetoStep(m, p)
		if ref.Cost.StrictlyDominates(p.Cost) {
			if fast == nil {
				t.Fatalf("fast path missed an improvement on plan %d: ref %v", i, ref.Cost)
			}
			if !fast.Cost.Equal(ref.Cost) {
				t.Fatalf("fast path diverged on plan %d:\nfast %v\nref  %v", i, fast.Cost, ref.Cost)
			}
			if err := fast.Validate(); err != nil {
				t.Fatalf("fast path built an invalid plan: %v", err)
			}
		} else if fast != nil {
			t.Fatalf("fast path improved a reference local optimum on plan %d: %v", i, fast.Cost)
		}
	}
}

// TestInPlaceClimbMatchesReferenceClimb cross-checks the whole in-place
// climb (clean-subtree skipping included) against repeated reference
// steps: same final cost, same path length.
func TestInPlaceClimbMatchesReferenceClimb(t *testing.T) {
	m := testModel(t, 10, 21)
	rng := rand.New(rand.NewPCG(22, 22))
	c := NewClimber(m, ClimbConfig{})
	for i := 0; i < 25; i++ {
		p := randplan.Random(m, m.Catalog().AllTables(), rng)
		got, gotSteps := c.Climb(p)
		ref, refSteps := p, 0
		for {
			next := refParetoStep(m, ref)
			if !next.Cost.StrictlyDominates(ref.Cost) {
				break
			}
			ref = next
			refSteps++
		}
		if !got.Cost.Equal(ref.Cost) || gotSteps != refSteps {
			t.Fatalf("in-place climb diverged on plan %d:\nfast %v after %d steps\nref  %v after %d steps",
				i, got.Cost, gotSteps, ref.Cost, refSteps)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("in-place climb built an invalid plan: %v", err)
		}
	}
}

// TestClimbResultIsSingleMutationLocalOptimum checks local optimality
// against the complete single-mutation neighborhood: no neighbor plan
// (one mutation at one node) may strictly dominate the climbed plan.
//
// The check uses the additive metrics (time, disc) only. For those, a
// mutation improves the total plan exactly when it improves its own
// sub-plan, so the sub-plan-local pruning of ParetoStep (the principle
// of optimality, Section 4.2) yields a true local optimum. With the
// buffer metric — whose max-composition can absorb a local buffer
// increase elsewhere in the tree — a locally-dominated mutation can
// strictly improve the complete plan; the paper's footnote 1
// acknowledges precisely this caveat, so no strong guarantee exists
// there.
func TestClimbResultIsSingleMutationLocalOptimum(t *testing.T) {
	rng0 := rand.New(rand.NewPCG(9, 1))
	cat := catalog.Generate(catalog.GenSpec{Tables: 7, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng0)
	m := costmodel.New(cat, []costmodel.Metric{costmodel.Time, costmodel.Disc})
	rng := rand.New(rand.NewPCG(10, 10))
	c := NewClimber(m, ClimbConfig{})
	for i := 0; i < 10; i++ {
		p := randplan.Random(m, m.Catalog().AllTables(), rng)
		optPlan, _ := c.Climb(p)
		for _, nb := range mutate.AllNeighbors(m, optPlan) {
			if nb.Cost.StrictlyDominates(optPlan.Cost) {
				t.Fatalf("neighbor strictly dominates climbed plan:\nopt %v %v\nnb  %v %v",
					optPlan.Cost, optPlan, nb.Cost, nb)
			}
		}
	}
}

// naiveClimber is the baseline of the climbing ablation: classic
// single-objective iterative improvement generalized to Pareto
// dominance, with neither of Section 4.2's optimizations. Each step
// builds every complete neighbor plan (one mutation at one node) and
// moves to the first strict dominator; the climb ends at a local
// optimum or after the production climb's maxClimbSteps moves.
type naiveClimber struct{ model *costmodel.Model }

func (c naiveClimber) Climb(p *plan.Plan) (*plan.Plan, int) {
	limit := maxClimbSteps(p.Rel.Count())
	steps := 0
	//rmq:allow-loop(bounded by maxClimbSteps; steps increments every iteration)
	for steps < limit {
		next := c.step(p)
		if next == nil {
			break
		}
		p = next
		steps++
	}
	return p, steps
}

func (c naiveClimber) step(p *plan.Plan) *plan.Plan {
	for _, nb := range mutate.AllNeighbors(c.model, p) {
		if nb.Cost.StrictlyDominates(p.Cost) {
			return nb
		}
	}
	return nil
}

func TestNaiveClimbAgreesOnImprovementDirection(t *testing.T) {
	m := testModel(t, 6, 11)
	rng := rand.New(rand.NewPCG(12, 12))
	naive := naiveClimber{m}
	for i := 0; i < 10; i++ {
		p := randplan.Random(m, m.Catalog().AllTables(), rng)
		optPlan, _ := naive.Climb(p)
		if !optPlan.Cost.Dominates(p.Cost) {
			t.Fatal("naive climb worsened plan")
		}
		// Result is a local optimum of the same neighborhood.
		for _, nb := range mutate.AllNeighbors(m, optPlan) {
			if nb.Cost.StrictlyDominates(optPlan.Cost) {
				t.Fatal("naive climb stopped before local optimum")
			}
		}
	}
}

func TestClimbSingleTable(t *testing.T) {
	m := testModel(t, 1, 17)
	c := NewClimber(m, ClimbConfig{})
	p := m.NewScan(0, plan.PinScan)
	optPlan, steps := c.Climb(p)
	if err := optPlan.Validate(); err != nil {
		t.Fatal(err)
	}
	if steps > 1 {
		t.Errorf("single-table climb took %d steps", steps)
	}
}

// TestClimbInternsItsResult checks the stage-A boundary of table-set
// ids: a random plan and the climber's moves leave RelID zero, and the
// plan a climb returns carries its interned id on every node — the
// frozen copy after moves as well as the input plan itself when no move
// applied. The interner ends up holding exactly the result's sets, none
// of the transient ones the random plan or the moves passed through.
func TestClimbInternsItsResult(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	moved, unmoved := 0, 0
	for i := 0; i < 20; i++ {
		m := testModel(t, 10, uint64(i))
		in := m.Interner()
		c := NewClimber(m, ClimbConfig{})
		p := randplan.Random(m, m.Catalog().AllTables(), rng)
		out, steps := c.Climb(p)
		if steps > 0 {
			moved++
			checkInterned(t, m, out)
			if in.Len() != 2*10-1 {
				t.Fatalf("interner holds %d ids after a climb to a 19-node plan", in.Len())
			}
		}
		// A local optimum with its ids stripped takes the steps == 0 path,
		// which interns the input plan in place.
		stripped := withoutIDs(out)
		again, steps := c.Climb(stripped)
		if steps != 0 || again != stripped {
			t.Fatalf("re-climbing a local optimum took %d steps", steps)
		}
		unmoved++
		checkInterned(t, m, again)
		if next := c.Step(again); next != nil {
			t.Fatal("Step improved a local optimum")
		}
	}
	if moved == 0 || unmoved == 0 {
		t.Fatalf("%d climbs moved and %d did not; the test needs both paths", moved, unmoved)
	}
}

// checkInterned fails unless every node of p carries its set's id.
func checkInterned(t *testing.T, m *costmodel.Model, p *plan.Plan) {
	t.Helper()
	if p.RelID == 0 || p.RelID != m.RelID(p.Rel) {
		t.Fatalf("node %v carries id %d, want %d", p.Rel, p.RelID, m.RelID(p.Rel))
	}
	if p.IsJoin() {
		checkInterned(t, m, p.Outer)
		checkInterned(t, m, p.Inner)
	}
}

// withoutIDs returns a deep copy of p with every RelID zero.
func withoutIDs(p *plan.Plan) *plan.Plan {
	q := *p
	q.RelID = 0
	if p.IsJoin() {
		q.Outer, q.Inner = withoutIDs(p.Outer), withoutIDs(p.Inner)
	}
	return &q
}

// TestQuickClimbPathLengthModest confirms the empirical counterpart of
// Theorem 2 at test scale: path lengths stay far below the defensive
// bound and grow slowly with the query size.
func TestQuickClimbPathLengthModest(t *testing.T) {
	f := func(seed uint64) bool {
		n := 5 + int(seed%20)
		m := testModel(t, n, seed)
		rng := rand.New(rand.NewPCG(seed, 23))
		c := NewClimber(m, ClimbConfig{})
		p := randplan.Random(m, m.Catalog().AllTables(), rng)
		_, steps := c.Climb(p)
		return steps <= 4*n+16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkClimb50(b *testing.B) {
	m := testModel(b, 50, 1)
	rng := rand.New(rand.NewPCG(2, 2))
	c := NewClimber(m, ClimbConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := randplan.Random(m, m.Catalog().AllTables(), rng)
		c.Climb(p)
	}
}

// BenchmarkAblationClimb quantifies the Section 4.2 claim that the
// simultaneous-mutation climbing step beats naive single-mutation
// climbing by a large factor (the paper reports >10x at 50 tables).
func BenchmarkAblationClimb(b *testing.B) {
	type climber interface {
		Climb(*plan.Plan) (*plan.Plan, int)
	}
	for _, arm := range []struct {
		name string
		new  func(m *costmodel.Model) climber
	}{
		{"fast", func(m *costmodel.Model) climber { return NewClimber(m, ClimbConfig{}) }},
		{"naive", func(m *costmodel.Model) climber { return naiveClimber{m} }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			m := testModel(b, 50, 1)
			rng := rand.New(rand.NewPCG(2, 2))
			c := arm.new(m)
			// One op climbs a fixed pool of random plans, drawn and climbed
			// once (warming the interner) before the timer starts, so every
			// op does the same work and allocs/op does not depend on b.N.
			pool := make([]*plan.Plan, 4)
			for i := range pool {
				pool[i] = randplan.Random(m, m.Catalog().AllTables(), rng)
				c.Climb(pool[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pool {
					c.Climb(p)
				}
			}
		})
	}
}

// largeClimbModels returns 3-metric models over 100-table chain, cycle
// and star catalogs with Steinbrunn selectivities: the shapes of the
// large-query regime.
func largeClimbModels(tb testing.TB) []*costmodel.Model {
	tb.Helper()
	var models []*costmodel.Model
	for i, g := range []catalog.GraphKind{catalog.Chain, catalog.Cycle, catalog.Star} {
		rng := rand.New(rand.NewPCG(uint64(41+i), 1))
		cat := catalog.Generate(catalog.GenSpec{Tables: 100, Graph: g, Selectivity: catalog.Steinbrunn}, rng)
		models = append(models, costmodel.New(cat, costmodel.AllMetrics()))
	}
	return models
}

// BenchmarkClimbLarge times stage A of a large query: one op is, per
// 100-table chain, cycle and star catalog, one fresh climber climbing
// 200 random plans drawn from a fixed seed. The evaluator preparations
// (PrepareJoin calls) and operator candidates priced per op are
// reported as custom metrics; both are deterministic counts.
func BenchmarkClimbLarge(b *testing.B) {
	models := largeClimbModels(b)
	op := func() (prepared, priced uint64) {
		for i, m := range models {
			c := NewClimber(m, ClimbConfig{})
			rng := rand.New(rand.NewPCG(uint64(51+i), 2))
			for range 200 {
				c.Climb(randplan.Random(m, m.Catalog().AllTables(), rng))
			}
			prepared += c.prepared
			priced += c.priced
		}
		return prepared, priced
	}
	op() // warm the interners
	b.ResetTimer()
	var prepared, priced uint64
	for i := 0; i < b.N; i++ {
		prepared, priced = op()
	}
	b.ReportMetric(float64(prepared), "preparejoin/op")
	b.ReportMetric(float64(priced), "priced/op")
}

// TestClimberReuseMatchesFresh checks that nothing a climber keeps
// between climbs (scratch arena, evaluator buffers, undo log) leaks
// into the search: one climber reused across 200 climbs returns the
// same plans and step counts as a fresh climber per climb. RMQ relies
// on it when a pooled problem hands its climber to the next run.
func TestClimberReuseMatchesFresh(t *testing.T) {
	type tc struct {
		name string
		m    *costmodel.Model
	}
	var cases []tc
	for i, m := range largeClimbModels(t) {
		cases = append(cases, tc{name: []string{"chain100", "cycle100", "star100"}[i], m: m})
	}
	for l := 1; l <= costmodel.NumMetrics; l++ {
		rng := rand.New(rand.NewPCG(61, uint64(l)))
		cat := catalog.Generate(catalog.GenSpec{Tables: 24, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng)
		cases = append(cases, tc{name: "chain24", m: costmodel.New(cat, costmodel.ChooseMetrics(l, rng))})
	}
	for ci, c := range cases {
		m := c.m
		reused := NewClimber(m, ClimbConfig{})
		rngA := rand.New(rand.NewPCG(71, uint64(ci)))
		rngB := rand.New(rand.NewPCG(71, uint64(ci)))
		for i := range 200 {
			got, gotSteps := reused.Climb(randplan.Random(m, m.Catalog().AllTables(), rngA))
			want, wantSteps := NewClimber(m, ClimbConfig{}).Climb(randplan.Random(m, m.Catalog().AllTables(), rngB))
			if gotSteps != wantSteps || !samePlan(got, want) {
				t.Fatalf("%s at %d metrics, climb %d: reused climber took %d steps to %v, fresh %d steps to %v",
					c.name, m.Dim(), i, gotSteps, got.Cost, wantSteps, want.Cost)
			}
		}
	}
}
