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
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := randplan.Random(m, m.Catalog().AllTables(), rng)
				c.Climb(p)
			}
		})
	}
}
