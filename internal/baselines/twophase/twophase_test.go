package twophase

import (
	"math/rand/v2"
	"testing"

	"rmq/internal/catalog"
	"rmq/internal/costmodel"
	"rmq/internal/opt"
	"rmq/internal/plan"
)

func testProblem(tb testing.TB, n int, seed uint64) *opt.Problem {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 5))
	cat := catalog.Generate(catalog.GenSpec{Tables: n, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng)
	return opt.NewProblem(cat, costmodel.AllMetrics())
}

func TestTwoPhaseSwitchesToAnnealing(t *testing.T) {
	p := testProblem(t, 6, 1)
	o := New()
	o.Init(p, 3)
	for i := 0; i < iiIterations; i++ {
		if o.sa != nil {
			t.Fatalf("annealing started after %d II iterations, want %d", i, iiIterations)
		}
		o.Step()
	}
	if o.sa == nil {
		t.Fatal("annealing phase never started")
	}
}

func TestTwoPhaseFrontierValid(t *testing.T) {
	p := testProblem(t, 7, 2)
	o := New()
	o.Init(p, 5)
	for i := 0; i < 200; i++ {
		if !o.Step() {
			break
		}
	}
	front := o.Frontier()
	if len(front) == 0 {
		t.Fatal("empty 2P frontier")
	}
	for _, fp := range front {
		if err := fp.Validate(); err != nil {
			t.Fatal(err)
		}
		if fp.Rel != p.Query {
			t.Fatal("2P plan joins wrong set")
		}
	}
}

func TestTwoPhaseFrontierIncludesPhaseOneResults(t *testing.T) {
	// The 2P result set must never be worse than what phase one alone
	// found: every phase-one plan is weakly dominated by some result.
	p := testProblem(t, 6, 3)
	o := New()
	o.Init(p, 7)
	for i := 0; i < iiIterations; i++ {
		o.Step()
	}
	p1Plans := o.ii.Frontier()
	for i := 0; i < 100; i++ {
		if !o.Step() {
			break
		}
	}
	final := o.Frontier()
	for _, pp := range p1Plans {
		covered := false
		for _, fp := range final {
			if fp.Cost.Dominates(pp.Cost) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("phase-one plan %v lost from result set", pp.Cost)
		}
	}
}

func TestBestByMeanLogCost(t *testing.T) {
	p := testProblem(t, 4, 4)
	small := p.Model.NewScan(3, 0) // later tables in this catalog differ in size
	big := p.Model.NewScan(0, 0)
	if small.Cost.At(0) > big.Cost.At(0) {
		small, big = big, small
	}
	got := bestByMeanLogCost([]*plan.Plan{big, small})
	if got != small {
		t.Errorf("bestByMeanLogCost picked %v over %v", got.Cost, small.Cost)
	}
	if bestByMeanLogCost(nil) != nil {
		t.Error("empty input should yield nil")
	}
}

func TestTwoPhaseName(t *testing.T) {
	if New().Name() != "2P" {
		t.Error("unexpected name")
	}
}
