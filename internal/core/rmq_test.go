package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"rmq/internal/cache"
	"rmq/internal/catalog"
	"rmq/internal/cost"
	"rmq/internal/costmodel"
	"rmq/internal/opt"
	"rmq/internal/plan"
	"rmq/internal/quality"
	"rmq/internal/randplan"
	"rmq/internal/tableset"
)

func testProblem(tb testing.TB, n int, seed uint64) *opt.Problem {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 2))
	cat := catalog.Generate(catalog.GenSpec{Tables: n, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng)
	return opt.NewProblem(cat, costmodel.AllMetrics())
}

func TestDefaultAlphaSchedule(t *testing.T) {
	if got := DefaultAlpha(1); got != 25 {
		t.Errorf("α(1) = %g, want 25", got)
	}
	if got := DefaultAlpha(24); got != 25 {
		t.Errorf("α(24) = %g, want 25 (floor of i/25 is 0)", got)
	}
	if got, want := DefaultAlpha(25), 25*0.99; math.Abs(got-want) > 1e-12 {
		t.Errorf("α(25) = %g, want %g", got, want)
	}
	// Monotonically non-increasing and floored at 1.
	prev := math.Inf(1)
	for i := 0; i < 20000; i += 100 {
		a := DefaultAlpha(i)
		if a > prev {
			t.Fatalf("α increased at %d: %g > %g", i, a, prev)
		}
		if a < 1 {
			t.Fatalf("α(%d) = %g < 1", i, a)
		}
		prev = a
	}
	if DefaultAlpha(100000) != 1 {
		t.Error("α should converge to 1")
	}
	// Level 320 is the last above the floor: 25·0.99^320 ≈ 1.002.
	if a := DefaultAlpha(25 * 320); a <= 1 {
		t.Errorf("α(25·320) = %g, want > 1", a)
	}
	if a := DefaultAlpha(25 * 321); a != 1 {
		t.Errorf("α(25·321) = %g, want 1 (floored)", a)
	}
}

func TestRMQProducesValidFrontier(t *testing.T) {
	p := testProblem(t, 10, 42)
	r := New(Config{})
	r.Init(p, 7)
	for i := 0; i < 30; i++ {
		if !r.Step() {
			t.Fatal("RMQ stopped early")
		}
	}
	front := r.Frontier()
	if len(front) == 0 {
		t.Fatal("empty frontier after 30 iterations")
	}
	for _, fp := range front {
		if err := fp.Validate(); err != nil {
			t.Fatalf("invalid frontier plan: %v", err)
		}
		if fp.Rel != p.Query {
			t.Fatalf("frontier plan joins %v, want full query", fp.Rel)
		}
	}
}

func TestRMQFrontierMutuallyNonDominatedPerFormat(t *testing.T) {
	p := testProblem(t, 8, 43)
	r := New(Config{})
	r.Init(p, 9)
	for i := 0; i < 50; i++ {
		r.Step()
	}
	front := r.Frontier()
	for i, a := range front {
		for j, b := range front {
			if i != j && cache.SigBetter(a, b, 1) {
				t.Fatalf("cached frontier contains dominated plan: %v ⪯ %v", a.Cost, b.Cost)
			}
		}
	}
}

func TestRMQStatsTracked(t *testing.T) {
	p := testProblem(t, 6, 44)
	r := New(Config{})
	r.Init(p, 11)
	const iters = 12
	for i := 0; i < iters; i++ {
		r.Step()
	}
	st := r.Stats()
	if st.Iterations != iters {
		t.Errorf("Iterations = %d, want %d", st.Iterations, iters)
	}
	if len(st.PathLengths) != iters {
		t.Errorf("PathLengths count = %d", len(st.PathLengths))
	}
	if st.CachedSets == 0 || st.CachedPlans == 0 {
		t.Error("cache stats empty")
	}
	for _, pl := range st.PathLengths {
		if pl < 0 {
			t.Errorf("negative path length %d", pl)
		}
	}
}

func TestRMQDeterministicForSeed(t *testing.T) {
	run := func() []float64 {
		p := testProblem(t, 8, 45)
		r := New(Config{})
		r.Init(p, 13)
		for i := 0; i < 20; i++ {
			r.Step()
		}
		var costs []float64
		for _, fp := range r.Frontier() {
			for k := 0; k < fp.Cost.Dim(); k++ {
				costs = append(costs, fp.Cost.At(k))
			}
		}
		return costs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different frontier sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic frontier at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestRMQInitResets(t *testing.T) {
	p := testProblem(t, 6, 46)
	r := New(Config{})
	r.Init(p, 1)
	for i := 0; i < 10; i++ {
		r.Step()
	}
	r.Init(p, 1)
	st := r.Stats()
	if st.Iterations != 0 || len(st.PathLengths) != 0 {
		t.Error("Init did not reset stats")
	}
	if r.Cache().NumPlans() != 0 {
		t.Error("Init did not reset the cache")
	}
}

func TestRMQCacheGrowsAcrossIterations(t *testing.T) {
	p := testProblem(t, 10, 47)
	r := New(Config{})
	r.Init(p, 3)
	r.Step()
	after1 := r.Cache().NumSets()
	for i := 0; i < 20; i++ {
		r.Step()
	}
	after21 := r.Cache().NumSets()
	if after21 <= after1 {
		t.Errorf("cache did not grow: %d -> %d", after1, after21)
	}
}

// ablationRMQ is a sequential, test-only twin of RMQ for the ablation
// benchmarks of Section 4.3: the same random plans, climb and frontier
// approximation, with two design choices switchable. alpha, when
// non-nil, replaces the DefaultAlpha schedule. noSharing approximates
// every iteration's frontiers in a fresh cache, so no partial plans are
// shared across iterations, while the full-query plans still enter the
// persistent root bucket at the same α, which isolates the sharing
// effect. The zero value is the production configuration;
// TestAblationRMQMatchesRMQ holds it to RMQ plan for plan.
type ablationRMQ struct {
	alpha     func(iteration int) float64
	noSharing bool

	problem *opt.Problem
	rng     *rand.Rand
	climber *Climber
	cache   *cache.Cache
	iter    int
}

func (a *ablationRMQ) Init(p *opt.Problem, seed uint64) {
	a.problem = p
	a.rng = rand.New(rand.NewPCG(seed, 0x524d51)) // RMQ's seeding
	a.climber = NewClimber(p.Model, ClimbConfig{})
	a.cache = cache.New(p.Model.Interner())
	a.iter = 0
}

func (a *ablationRMQ) Step() {
	a.iter++
	m := a.problem.Model
	optPlan, _ := a.climber.Climb(randplan.Random(m, a.problem.Query, a.rng))
	alpha := DefaultAlpha(a.iter)
	if a.alpha != nil {
		alpha = a.alpha(a.iter)
	}
	if !a.noSharing {
		approximateFrontiers(m, optPlan, a.cache, alpha)
		return
	}
	scratch := cache.New(m.Interner())
	approximateFrontiers(m, optPlan, scratch, alpha)
	for _, fp := range scratch.GetID(optPlan.RelID) {
		a.cache.Insert(fp, alpha)
	}
}

func (a *ablationRMQ) Frontier() []*plan.Plan { return a.cache.Get(a.problem.Query) }

// TestAblationRMQMatchesRMQ pins the ablation benchmarks' baseline arm
// to the production engine: with neither switch set, ablationRMQ must
// hold the same cache as a pipelined RMQ, table set by table set and
// plan for plan. Comparing completes RMQ's pending stage, so only every
// third step is compared, leaving the helper goroutine the others.
func TestAblationRMQMatchesRMQ(t *testing.T) {
	p := testProblem(t, 14, 42)
	r := New(Config{})
	r.pipe = pipeAsync
	r.Init(p, 9)
	var a ablationRMQ
	a.Init(testProblem(t, 14, 42), 9)
	for i := 1; i <= 81; i++ {
		r.Step()
		a.Step()
		if i%3 == 0 {
			sameCaches(t, i, p.Model.Interner(), r.Cache(), a.cache)
			sameFrontier(t, i, r.Frontier(), a.Frontier())
		}
	}
}

func TestRMQDisableCacheStillProducesFrontier(t *testing.T) {
	p := testProblem(t, 8, 48)
	a := ablationRMQ{noSharing: true}
	a.Init(p, 5)
	for i := 0; i < 20; i++ {
		a.Step()
	}
	if len(a.Frontier()) == 0 {
		t.Fatal("no frontier without cache sharing")
	}
	// Only the full-query bucket may persist: no partial-plan sharing.
	if a.cache.NumSets() > 1 {
		t.Errorf("partial plans cached without sharing: %d sets", a.cache.NumSets())
	}
}

func TestRMQCustomAlphaSchedule(t *testing.T) {
	p := testProblem(t, 6, 50)
	var seen []int
	a := ablationRMQ{alpha: func(i int) float64 {
		seen = append(seen, i)
		return 2
	}}
	a.Init(p, 5)
	a.Step()
	a.Step()
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("alpha schedule saw iterations %v", seen)
	}
}

// TestRMQConvergesOnTinyQuery is the small-query convergence check
// behind Figures 8/9: with enough iterations, RMQ's frontier must
// closely approximate the exact Pareto frontier (computed by brute
// force over the cached sets via a fine-grained run).
func TestRMQConvergesOnTinyQuery(t *testing.T) {
	p := testProblem(t, 4, 51)
	r := New(Config{})
	r.Init(p, 17)
	for i := 0; i < 9000; i++ {
		r.Step()
	}
	// Reference: plain Pareto filter over an even longer RMQ run plus
	// the exact DP result is checked in the integration test; here we
	// require internal consistency: α of the frontier against itself
	// must be 1.
	front := opt.Costs(r.Frontier())
	if got := quality.Epsilon(front, quality.NonDominated(front)); got != 1 {
		t.Errorf("self-α = %g, want 1", got)
	}
	if len(front) < 2 {
		t.Errorf("expected several Pareto trade-offs, got %d", len(front))
	}
}

func TestRMQFactory(t *testing.T) {
	o, err := opt.NewNamed("rmq", opt.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o.(*RMQ); !ok {
		t.Errorf("registry built %T for \"rmq\"", o)
	}
	if o.Name() != "RMQ" {
		t.Errorf("optimizer name = %q", o.Name())
	}
}

func TestApproximateFrontiersSeedsAllIntermediates(t *testing.T) {
	p := testProblem(t, 5, 52)
	r := New(Config{})
	r.Init(p, 19)
	r.Step()
	// Every table singleton used by the climbed plan must be cached.
	for i := 0; i < 5; i++ {
		if len(r.Cache().Get(tableset.Single(i))) == 0 {
			t.Errorf("no cached plans for table %d", i)
		}
	}
	// The full query set must be cached.
	if len(r.Cache().Get(p.Query)) == 0 {
		t.Error("no cached plans for the full query")
	}
}

func TestQuickRMQFrontierValid(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 61))
		n := 2 + int(seed%8)
		cat := catalog.Generate(catalog.GenSpec{Tables: n, Graph: catalog.Star, Selectivity: catalog.MinMax}, rng)
		p := opt.NewProblem(cat, costmodel.ChooseMetrics(2, rng))
		r := New(Config{})
		r.Init(p, seed)
		for i := 0; i < 10; i++ {
			r.Step()
		}
		for _, fp := range r.Frontier() {
			if fp.Validate() != nil || fp.Rel != p.Query {
				return false
			}
		}
		return len(r.Frontier()) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRMQIteration50(b *testing.B) {
	p := testProblem(b, 50, 1)
	r := New(Config{})
	r.Init(p, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
	}
}

// BenchmarkRMQLarge times the paper's 100-table regime end to end in
// this package: one op is a fresh RMQ on a fresh problem over a
// 100-table chain (Steinbrunn selectivities, all three metrics), 200
// steps, then Frontier, which completes every stage B. Unlike
// BenchmarkClimbLarge it includes stage B and the hand-off between the
// stages. The catalog is generated once; the problem, its interner and
// the plan cache are built per op from fixed seeds, so allocs/op do not
// depend on b.N.
func BenchmarkRMQLarge(b *testing.B) {
	cat := catalog.Generate(catalog.GenSpec{Tables: 100, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn},
		rand.New(rand.NewPCG(41, 1)))
	for i := 0; i < b.N; i++ {
		r := New(Config{})
		r.Init(opt.NewProblem(cat, costmodel.AllMetrics()), 7)
		for range 200 {
			r.Step()
		}
		if len(r.Frontier()) == 0 {
			b.Fatal("no frontier after 200 steps") //rmq:allow-bench(fires only on assertion failure, never in a passing run)
		}
	}
}

// ablationAlpha runs each configuration for an equal wall-clock budget
// and returns every variant's ε-indicator α against the union of all
// variants' results — the honest quality comparison for ablations (the
// paper's design arguments are about quality per unit of optimization
// time).
func ablationAlpha(p *opt.Problem, budget time.Duration, variants []ablationRMQ) []float64 {
	fronts := make([][]cost.Vector, len(variants))
	for i := range variants {
		a := &variants[i]
		a.Init(p, 7)
		start := time.Now()
		for time.Since(start) < budget {
			a.Step()
		}
		fronts[i] = opt.Costs(a.Frontier())
	}
	ref := quality.Union(fronts...)
	alphas := make([]float64, len(variants))
	for i := range variants {
		alphas[i] = quality.Epsilon(fronts[i], ref)
	}
	return alphas
}

// BenchmarkAblationCache contrasts RMQ with and without cross-iteration
// partial-plan sharing (the design choice of Section 4.3) at equal
// wall-clock budgets; the reported metrics are each variant's α against
// the union of both results (lower is better).
func BenchmarkAblationCache(b *testing.B) {
	p := testProblem(b, 20, 5)
	var alphas []float64
	for i := 0; i < b.N; i++ {
		alphas = ablationAlpha(p, 250*time.Millisecond, []ablationRMQ{{}, {noSharing: true}})
	}
	b.ReportMetric(alphas[0], "alpha-shared-cache")
	b.ReportMetric(alphas[1], "alpha-no-cache")
}

// BenchmarkAblationAlpha contrasts the paper's coarse-to-fine α schedule
// with fixed coarse and fixed fine settings at equal wall-clock budgets;
// reported metrics are per-variant α against the union (lower is
// better). Fixed-fine spends far more time per iteration (fewer join
// orders explored), fixed-coarse never refines; the schedule balances
// both — the Section 4.3 rationale.
func BenchmarkAblationAlpha(b *testing.B) {
	p := testProblem(b, 20, 6)
	var alphas []float64
	for i := 0; i < b.N; i++ {
		alphas = ablationAlpha(p, 250*time.Millisecond, []ablationRMQ{
			{},
			{alpha: func(int) float64 { return 25 }},
			{alpha: func(int) float64 { return 1.05 }},
		})
	}
	b.ReportMetric(alphas[0], "alpha-paper-schedule")
	b.ReportMetric(alphas[1], "alpha-fixed-coarse-25")
	b.ReportMetric(alphas[2], "alpha-fixed-fine-1.05")
}
