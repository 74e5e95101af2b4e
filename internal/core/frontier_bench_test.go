package core

import (
	"math/rand/v2"
	"testing"

	"rmq/internal/cache"
	"rmq/internal/costmodel"
	"rmq/internal/plan"
	"rmq/internal/randplan"
)

// approxFunc re-approximates the frontiers of one climbed plan at α into
// a frontier store bound to the model.
type approxFunc func(p *plan.Plan, alpha float64)

// benchApproxFrontiers measures the frontier-approximation phase in the
// regime long anytime runs live in: a store warmed by 200 RMQ iterations
// (random plan, climb, approximate under the default α schedule), then
// one climbed plan re-approximated per op from a rotating pool of fresh
// local optima. After the pool's first lap the store is converged, so
// the measured work is the per-iteration cost of ApproximateFrontiers
// once partial plans are shared. Both variants end in the same
// frontiers (TestRecombinationMatchesReference); only the machinery
// differs.
func benchApproxFrontiers(b *testing.B, bind func(m *costmodel.Model) approxFunc) {
	const warmup = 200
	p := testProblem(b, 50, 1)
	m := p.Model
	approx := bind(m)
	climber := NewClimber(m, ClimbConfig{})
	rng := rand.New(rand.NewPCG(3, 0x524d51))
	for i := 1; i <= warmup; i++ {
		optPlan, _ := climber.Climb(randplan.Random(m, p.Query, rng))
		approx(optPlan, DefaultAlpha(i))
	}
	pool := make([]*plan.Plan, 32)
	for i := range pool {
		pool[i], _ = climber.Climb(randplan.Random(m, p.Query, rng))
	}
	alpha := DefaultAlpha(warmup)
	// One untimed lap over the pool admits what the fresh optima add and
	// creates the buckets of their new table sets, so the timed loop
	// sees only the converged store, whatever b.N is.
	for _, p := range pool {
		approx(p, alpha)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		approx(pool[i%len(pool)], alpha)
	}
}

// BenchmarkApproxFrontiers is the recombination ablation: the test-only
// Algorithm 3 reference (refFrontiers: full cross products, PruneApprox
// into plain slices, no floors) against the production cache, its
// column sweeps and admission floors.
func BenchmarkApproxFrontiers(b *testing.B) {
	b.Run("naive", func(b *testing.B) {
		benchApproxFrontiers(b, func(m *costmodel.Model) approxFunc {
			ref := newRefFrontiers()
			return func(p *plan.Plan, alpha float64) { ref.approximate(m, p, alpha) }
		})
	})
	b.Run("full", func(b *testing.B) {
		benchApproxFrontiers(b, func(m *costmodel.Model) approxFunc {
			pc := cache.New(m.Interner())
			return func(p *plan.Plan, alpha float64) { approximateFrontiers(m, p, pc, alpha) }
		})
	})
}
