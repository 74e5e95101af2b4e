package core

import (
	"math/rand/v2"
	"testing"

	"rmq/internal/cache"
	"rmq/internal/catalog"
	"rmq/internal/costmodel"
	"rmq/internal/randplan"
)

// TestStepSteadyStateAllocFree is the headline allocation regression
// test: one climbing step over a locally optimal 10-table bushy plan —
// the steady state of the inner loop — must not allocate at all. The
// move search prices every mutation of every node through the scratch
// import, the hoisted evaluators and the climber-local card cache; a
// single stray allocation anywhere in that path fails this test.
func TestStepSteadyStateAllocFree(t *testing.T) {
	m := testModel(t, 10, 31)
	rng := rand.New(rand.NewPCG(32, 32))
	c := NewClimber(m, ClimbConfig{})
	p := randplan.Random(m, m.Catalog().AllTables(), rng)
	opt, _ := c.Climb(p)
	if c.Step(opt) != nil {
		t.Fatal("climbed plan not at a local optimum")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if c.Step(opt) != nil {
			t.Fatal("steady-state step found an improvement")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Climber.Step allocates: %v allocs/run, want 0", allocs)
	}
}

// TestClimbSteadyStateAllocsBounded pins down the allocation budget of a
// whole productive climb: after warm-up, a climb of a fresh random plan
// may allocate only the random plan itself (its node block and shape
// scratch) and the one frozen result block — a handful of allocations,
// not one per move.
func TestClimbSteadyStateAllocsBounded(t *testing.T) {
	m := testModel(t, 20, 33)
	c := NewClimber(m, ClimbConfig{})
	rng := rand.New(rand.NewPCG(34, 34))
	// Warm model memos, scratch arena and card cache.
	for i := 0; i < 5; i++ {
		c.Climb(randplan.Random(m, m.Catalog().AllTables(), rng))
	}
	allocs := testing.AllocsPerRun(50, func() {
		p := randplan.Random(m, m.Catalog().AllTables(), rng)
		c.Climb(p)
	})
	// 4 allocations from randplan.Random (table ids, shape pool, node
	// pointers, plan node block) + 1 from Scratch.Freeze, with headroom
	// for estimator/interner memo growth on yet-unseen table sets.
	if allocs > 12 {
		t.Errorf("climb allocates %v allocs/run, want ≤ 12", allocs)
	}
}

// TestFrontierSteadyStateAllocsBounded checks the frontier/cache update
// phase: once the cache has converged for a plan, re-approximating the
// same plan's frontiers materializes no new plans and must stay nearly
// allocation-free (bucket growth aside, which converged runs do not
// trigger).
func TestFrontierSteadyStateAllocsBounded(t *testing.T) {
	m := testModel(t, 10, 35)
	rng := rand.New(rand.NewPCG(36, 36))
	pc := cache.New(m.Interner())
	c := NewClimber(m, ClimbConfig{})
	p, _ := c.Climb(randplan.Random(m, m.Catalog().AllTables(), rng))
	for i := 0; i < 3; i++ {
		approximateFull(m, p, pc, 2)
	}
	allocs := testing.AllocsPerRun(50, func() {
		approximateFull(m, p, pc, 2)
	})
	if allocs != 0 {
		t.Errorf("converged frontier update allocates: %v allocs/run, want 0", allocs)
	}
	// The incremental path must converge to pure skips: once the visit
	// memo is warm, re-approximating an unchanged plan allocates nothing
	// either.
	for i := 0; i < 2; i++ {
		approximateFrontiers(m, p, pc, 2)
	}
	allocs = testing.AllocsPerRun(50, func() {
		approximateFrontiers(m, p, pc, 2)
	})
	if allocs != 0 {
		t.Errorf("converged incremental frontier update allocates: %v allocs/run, want 0", allocs)
	}
}

func BenchmarkStepSteadyState(b *testing.B) {
	rng0 := rand.New(rand.NewPCG(37, 1))
	cat := catalog.Generate(catalog.GenSpec{Tables: 50, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng0)
	m := costmodel.New(cat, costmodel.AllMetrics())
	rng := rand.New(rand.NewPCG(38, 38))
	c := NewClimber(m, ClimbConfig{})
	p, _ := c.Climb(randplan.Random(m, m.Catalog().AllTables(), rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Step(p) != nil {
			b.Fatal("steady-state step improved") //rmq:allow-bench(fires only on assertion failure, never in a passing run)
		}
	}
}
