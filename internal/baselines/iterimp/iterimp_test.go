package iterimp

import (
	"math/rand/v2"
	"testing"

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

func TestIIProducesValidFrontier(t *testing.T) {
	p := testProblem(t, 8, 1)
	o := New()
	o.Init(p, 3)
	for i := 0; i < 25; i++ {
		if !o.Step() {
			t.Fatal("II must never stop on its own")
		}
	}
	front := o.Frontier()
	if len(front) == 0 {
		t.Fatal("empty II frontier")
	}
	for _, fp := range front {
		if err := fp.Validate(); err != nil {
			t.Fatal(err)
		}
		if fp.Rel != p.Query {
			t.Fatal("II plan joins wrong set")
		}
	}
}

// TestIIArchivesAtMostOnePlanPerIteration checks that II is RMQ without
// frontier approximation: each iteration contributes only its local
// optimum, so the frontier never holds more plans than iterations ran.
func TestIIArchivesAtMostOnePlanPerIteration(t *testing.T) {
	p := testProblem(t, 8, 49)
	o := New()
	o.Init(p, 5)
	for i := 0; i < 20; i++ {
		o.Step()
	}
	front := o.Frontier()
	if len(front) == 0 {
		t.Fatal("no frontier")
	}
	if len(front) > 20 {
		t.Errorf("frontier larger than iteration count: %d", len(front))
	}
}

func TestIIFrontierMutuallyNonDominated(t *testing.T) {
	p := testProblem(t, 6, 2)
	o := New()
	o.Init(p, 5)
	for i := 0; i < 40; i++ {
		o.Step()
	}
	front := o.Frontier()
	for i, a := range front {
		for j, b := range front {
			if i != j && a.Cost.Dominates(b.Cost) {
				t.Fatalf("archive kept dominated plan: %v ⪯ %v", a.Cost, b.Cost)
			}
		}
	}
}

func TestIIDeterministicForSeed(t *testing.T) {
	run := func() int {
		p := testProblem(t, 7, 3)
		o := New()
		o.Init(p, 11)
		for i := 0; i < 15; i++ {
			o.Step()
		}
		return len(o.Frontier())
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %d vs %d plans", a, b)
	}
}

func TestIIName(t *testing.T) {
	if New().Name() != "II" || Factory().Name != "II" {
		t.Error("unexpected name")
	}
}

func TestIIInitResets(t *testing.T) {
	p := testProblem(t, 5, 4)
	o := New()
	o.Init(p, 1)
	for i := 0; i < 10; i++ {
		o.Step()
	}
	o.Init(p, 1)
	if len(o.Frontier()) != 0 {
		t.Error("Init did not reset archive")
	}
}
