package weighted

import (
	"math"
	"math/rand/v2"
	"testing"

	"rmq/internal/catalog"
	"rmq/internal/costmodel"
	"rmq/internal/opt"
)

func testProblem(tb testing.TB, n int, seed uint64) *opt.Problem {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 5))
	cat := catalog.Generate(catalog.GenSpec{Tables: n, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng)
	return opt.NewProblem(cat, costmodel.AllMetrics())
}

func TestWSProducesValidFrontier(t *testing.T) {
	p := testProblem(t, 8, 1)
	o := New(Config{})
	o.Init(p, 3)
	for i := 0; i < 15; i++ {
		if !o.Step() {
			t.Fatal("WS must never stop")
		}
	}
	front := o.Frontier()
	if len(front) == 0 {
		t.Fatal("empty WS frontier")
	}
	for _, fp := range front {
		if err := fp.Validate(); err != nil {
			t.Fatal(err)
		}
		if fp.Rel != p.Query {
			t.Fatal("WS plan joins wrong set")
		}
	}
}

func TestWSFrontierNonDominated(t *testing.T) {
	p := testProblem(t, 6, 2)
	o := New(Config{})
	o.Init(p, 5)
	for i := 0; i < 30; i++ {
		o.Step()
	}
	front := o.Frontier()
	for i, a := range front {
		for j, b := range front {
			if i != j && a.Cost.Dominates(b.Cost) {
				t.Fatal("archive kept dominated plan")
			}
		}
	}
}

func TestRandomWeightsOnSimplex(t *testing.T) {
	o := New(Config{})
	o.Init(testProblem(t, 4, 3), 7)
	for i := 0; i < 100; i++ {
		w := o.randomWeights(3)
		sum := 0.0
		for _, x := range w {
			if x < 0 {
				t.Fatal("negative weight")
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights sum to %g", sum)
		}
	}
}

func TestScoreMonotone(t *testing.T) {
	p := testProblem(t, 4, 4)
	a := p.Model.NewScan(0, 0)
	b := p.Model.NewScan(0, 1)
	w := []float64{0.5, 0.3, 0.2}
	// If a dominates b in every metric, the score must be lower too.
	if a.Cost.Dominates(b.Cost) && score(a, w) > score(b, w) {
		t.Error("score not monotone with dominance")
	}
	if b.Cost.Dominates(a.Cost) && score(b, w) > score(a, w) {
		t.Error("score not monotone with dominance")
	}
}

func TestWSName(t *testing.T) {
	if New(Config{}).Name() != "WS" {
		t.Error("unexpected name")
	}
}

func TestWSDeterministicForSeed(t *testing.T) {
	run := func() int {
		p := testProblem(t, 6, 6)
		o := New(Config{})
		o.Init(p, 11)
		for i := 0; i < 8; i++ {
			o.Step()
		}
		return len(o.Frontier())
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %d vs %d", a, b)
	}
}
