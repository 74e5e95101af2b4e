package nsga2

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rmq/internal/catalog"
	"rmq/internal/costmodel"
	"rmq/internal/opt"
)

func testProblem(tb testing.TB, n int, seed uint64) *opt.Problem {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 5))
	cat := catalog.Generate(catalog.GenSpec{Tables: n, Graph: catalog.Star, Selectivity: catalog.Steinbrunn}, rng)
	return opt.NewProblem(cat, costmodel.AllMetrics())
}

func TestDecodeProducesValidPlans(t *testing.T) {
	p := testProblem(t, 8, 1)
	tables := p.Query.Tables()
	rng := rand.New(rand.NewPCG(2, 2))
	for i := 0; i < 200; i++ {
		g := randomGenome(len(tables), rng)
		pl := decode(p.Model, tables, g, nil)
		if err := pl.Validate(); err != nil {
			t.Fatalf("invalid decoded plan: %v", err)
		}
		if pl.Rel != p.Query {
			t.Fatalf("decoded plan joins %v", pl.Rel)
		}
	}
}

func TestDecodeDeterministic(t *testing.T) {
	p := testProblem(t, 6, 2)
	tables := p.Query.Tables()
	g := randomGenome(len(tables), rand.New(rand.NewPCG(3, 3)))
	a := decode(p.Model, tables, g, nil)
	b := decode(p.Model, tables, g, nil)
	if !a.Cost.Equal(b.Cost) || a.String() != b.String() {
		t.Error("decode not deterministic")
	}
}

func TestDecodeSingleTable(t *testing.T) {
	p := testProblem(t, 1, 3)
	g := randomGenome(1, rand.New(rand.NewPCG(4, 4)))
	pl := decode(p.Model, p.Query.Tables(), g, nil)
	if pl.IsJoin() {
		t.Fatal("single-table genome decoded to join")
	}
}

func TestCrossoverPreservesLength(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	p1 := randomGenome(10, rng)
	p2 := randomGenome(10, rng)
	c1 := make(genome, len(p1))
	c2 := make(genome, len(p1))
	crossover(p1, p2, c1, c2, rng)
	// Every gene position comes from one of the parents.
	for i := range c1 {
		if c1[i] != p1[i] && c1[i] != p2[i] {
			t.Fatalf("gene %d of child 1 from neither parent", i)
		}
		if c2[i] != p1[i] && c2[i] != p2[i] {
			t.Fatalf("gene %d of child 2 from neither parent", i)
		}
	}
}

func TestMutationRate(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	g := make(genome, 1000)
	mutation(g, 0, rng)
	for _, v := range g {
		if v != 0 {
			t.Fatal("mutation with pm=0 changed genes")
		}
	}
	mutation(g, 1, rng)
	changed := 0
	for _, v := range g {
		if v != 0 {
			changed++
		}
	}
	if changed < 900 {
		t.Errorf("pm=1 changed only %d/1000 genes", changed)
	}
}

func naiveDominates(a, b *individual) bool {
	return dominates(a, b)
}

func TestFastNonDominatedSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	pop := make([]*individual, 60)
	for i := range pop {
		pop[i] = &individual{costs: []float64{float64(rng.IntN(10)), float64(rng.IntN(10))}}
	}
	fronts := fastNonDominatedSort(pop)
	total := 0
	for rank, front := range fronts {
		total += len(front)
		for _, ind := range front {
			if ind.rank != rank {
				t.Fatalf("rank mismatch: %d vs %d", ind.rank, rank)
			}
		}
		// No member of a front may dominate another member.
		for i, a := range front {
			for j, b := range front {
				if i != j && naiveDominates(a, b) {
					t.Fatalf("front %d has internal dominance", rank)
				}
			}
		}
		// Every member of front k>0 must be dominated by someone in
		// front k-1.
		if rank > 0 {
			for _, b := range front {
				dominated := false
				for _, a := range fronts[rank-1] {
					if naiveDominates(a, b) {
						dominated = true
						break
					}
				}
				if !dominated {
					t.Fatalf("front %d member not dominated by front %d", rank, rank-1)
				}
			}
		}
	}
	if total != len(pop) {
		t.Fatalf("fronts cover %d of %d individuals", total, len(pop))
	}
}

func TestCrowdingDistanceBoundaries(t *testing.T) {
	front := []*individual{
		{costs: []float64{1, 9}},
		{costs: []float64{5, 5}},
		{costs: []float64{9, 1}},
	}
	crowdingDistance(front)
	// After sorting by each objective the extreme points get +Inf.
	infs := 0
	for _, ind := range front {
		if math.IsInf(ind.crowd, 1) {
			infs++
		}
	}
	if infs != 2 {
		t.Errorf("%d boundary members with infinite distance, want 2", infs)
	}
}

func TestCrowdedLess(t *testing.T) {
	a := &individual{rank: 0, crowd: 1}
	b := &individual{rank: 1, crowd: 100}
	if !crowdedLess(a, b) {
		t.Error("lower rank must win")
	}
	c := &individual{rank: 0, crowd: 5}
	if !crowdedLess(c, a) {
		t.Error("higher crowding must win within a rank")
	}
}

func TestNSGA2Runs(t *testing.T) {
	p := testProblem(t, 8, 8)
	o := New(Config{PopSize: 24})
	o.Init(p, 9)
	for i := 0; i < 10; i++ {
		if !o.Step() {
			t.Fatal("NSGA-II must not stop")
		}
	}
	if o.Generations() != 10 {
		t.Errorf("generations = %d", o.Generations())
	}
	if len(o.pop) != 24 {
		t.Errorf("population size drifted to %d", len(o.pop))
	}
	front := o.Frontier()
	if len(front) == 0 {
		t.Fatal("empty NSGA-II frontier")
	}
	for _, fp := range front {
		if err := fp.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNSGA2DefaultConfig(t *testing.T) {
	c := Config{}
	if c.popSize() != 200 {
		t.Errorf("default population = %d, want 200 (paper)", c.popSize())
	}
	if c.crossoverProb() != 0.9 {
		t.Errorf("default crossover = %g", c.crossoverProb())
	}
	if got := c.mutationProb(50); got != 0.02 {
		t.Errorf("default mutation = %g", got)
	}
}

func TestNSGA2DeterministicForSeed(t *testing.T) {
	run := func() int {
		p := testProblem(t, 6, 10)
		o := New(Config{PopSize: 16})
		o.Init(p, 11)
		for i := 0; i < 5; i++ {
			o.Step()
		}
		return len(o.Frontier())
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %d vs %d", a, b)
	}
}

func TestNSGA2Name(t *testing.T) {
	if New(Config{}).Name() != "NSGA-II" {
		t.Error("unexpected name")
	}
}

// TestQuickSortWithRandomCosts fuzzes the non-dominated sort for
// self-consistency on random 3-objective populations.
func TestQuickSortWithRandomCosts(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 12))
		pop := make([]*individual, 30)
		for i := range pop {
			pop[i] = &individual{costs: []float64{
				float64(rng.IntN(5)), float64(rng.IntN(5)), float64(rng.IntN(5)),
			}}
		}
		fronts := fastNonDominatedSort(pop)
		total := 0
		for _, front := range fronts {
			total += len(front)
			for i, a := range front {
				for j, b := range front {
					if i != j && dominates(a, b) {
						return false
					}
				}
			}
		}
		return total == len(pop)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNSGA2Generation20(b *testing.B) {
	p := testProblem(b, 20, 1)
	o := New(Config{})
	o.Init(p, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Step()
	}
}
