package anneal

import (
	"math/rand/v2"
	"testing"

	"rmq/internal/catalog"
	"rmq/internal/costmodel"
	"rmq/internal/opt"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

func testProblem(tb testing.TB, n int, seed uint64) *opt.Problem {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 5))
	cat := catalog.Generate(catalog.GenSpec{Tables: n, Graph: catalog.Cycle, Selectivity: catalog.Steinbrunn}, rng)
	return opt.NewProblem(cat, costmodel.AllMetrics())
}

func TestSAWalksAndArchives(t *testing.T) {
	p := testProblem(t, 8, 1)
	o := New(Config{})
	o.Init(p, 3)
	for i := 0; i < 500; i++ {
		if !o.Step() {
			break
		}
	}
	if len(o.Frontier()) == 0 {
		t.Fatal("empty SA frontier")
	}
	for _, fp := range o.Frontier() {
		if err := fp.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Current().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSATemperatureCools(t *testing.T) {
	p := testProblem(t, 4, 2)
	o := New(Config{})
	o.Init(p, 5)
	t0 := o.Temperature()
	// One full stage forces one cooling step.
	for i := 0; i < 16*4+1; i++ {
		o.Step()
	}
	if o.Temperature() >= t0 {
		t.Errorf("temperature did not cool: %g -> %g", t0, o.Temperature())
	}
}

func TestSAFreezesAndStops(t *testing.T) {
	p := testProblem(t, 3, 3)
	o := New(Config{StartTemp: 0.001, FreezeTemp: 0.0009, CoolRate: 0.5})
	o.Init(p, 7)
	stopped := false
	for i := 0; i < 10_000; i++ {
		if !o.Step() {
			stopped = true
			break
		}
	}
	if !stopped {
		t.Fatal("SA never froze")
	}
	if o.Step() {
		t.Error("Step after freeze returned true")
	}
}

func TestSAAcceptsImprovingMoves(t *testing.T) {
	// With temperature ~0 only improving moves are accepted, so the
	// current plan's cost must be non-increasing on average: verify the
	// mean relative delta of each accepted move is ≤ 0.
	p := testProblem(t, 6, 4)
	o := New(Config{StartTemp: 1e-9, FreezeTemp: 1e-12, CoolRate: 0.99})
	o.Init(p, 9)
	prev := o.Current()
	for i := 0; i < 300; i++ {
		if !o.Step() {
			break
		}
		cur := o.Current()
		if cur != prev {
			// Moves with Δ within float noise of zero are effectively
			// sideways and may be accepted; only genuinely worsening
			// moves must be rejected at near-zero temperature.
			if relativeDelta(prev, cur) > 1e-6 {
				t.Fatalf("accepted worsening move at near-zero temperature: Δ=%g", relativeDelta(prev, cur))
			}
			prev = cur
		}
	}
}

func TestSAStartPlanHonored(t *testing.T) {
	p := testProblem(t, 5, 5)
	start := p.Model.NewScan(0, plan.SeqScan)
	// Build a fixed left-deep start plan.
	cur := start
	for i := 1; i < 5; i++ {
		cur = p.Model.NewJoin(plan.MakeJoinOp(plan.Hash, false), cur, p.Model.NewScan(i, plan.SeqScan))
	}
	o := New(Config{Start: cur})
	o.Init(p, 11)
	if o.Current() != cur {
		t.Error("start plan not honored")
	}
}

func TestRelativeDelta(t *testing.T) {
	m := testProblem(t, 2, 6).Model
	a := m.NewScan(0, plan.SeqScan)
	b := m.NewScan(0, plan.SeqScan)
	if got := relativeDelta(a, b); got != 0 {
		t.Errorf("delta of identical plans = %g", got)
	}
	if tableset.Single(0) != a.Rel {
		t.Fatal("sanity")
	}
}

func TestSAConfigDefaults(t *testing.T) {
	c := Config{}
	if c.startTemp() != 2 || c.coolRate() != 0.95 || c.freezeTemp() != 1e-4 {
		t.Error("unexpected defaults")
	}
}

func TestSAName(t *testing.T) {
	if New(Config{}).Name() != "SA" {
		t.Error("unexpected name")
	}
}
