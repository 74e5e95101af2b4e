package costmodel

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"

	"rmq/internal/catalog"
	"rmq/internal/plan"
)

func testModel(t *testing.T, metrics []Metric) *Model {
	t.Helper()
	cat := catalog.MustNew(
		[]catalog.Table{{Name: "a", Rows: 10_000}, {Name: "b", Rows: 1_000}, {Name: "c", Rows: 100}},
		[]catalog.Edge{{A: 0, B: 1, Selectivity: 0.001}, {A: 1, B: 2, Selectivity: 0.1}},
	)
	return New(cat, metrics)
}

func TestChooseMetrics(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	seen := map[Metric]bool{}
	for i := 0; i < 100; i++ {
		ms := ChooseMetrics(2, rng)
		if len(ms) != 2 {
			t.Fatalf("got %d metrics", len(ms))
		}
		if ms[0] >= ms[1] {
			t.Fatalf("metrics not in canonical order: %v", ms)
		}
		seen[ms[0]] = true
		seen[ms[1]] = true
	}
	if len(seen) != NumMetrics {
		t.Errorf("uniform choice never picked some metric: %v", seen)
	}
	if got := ChooseMetrics(3, rng); len(got) != 3 {
		t.Errorf("ChooseMetrics(3) = %v", got)
	}
}

func TestChooseMetricsPanicsOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, l := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ChooseMetrics(%d) did not panic", l)
				}
			}()
			ChooseMetrics(l, rng)
		}()
	}
}

func TestMetricNames(t *testing.T) {
	if Time.String() != "time" || Buffer.String() != "buffer" || Disc.String() != "disc" {
		t.Error("unexpected metric names")
	}
}

func TestScanCosts(t *testing.T) {
	m := testModel(t, AllMetrics())
	seq := m.NewScan(0, plan.SeqScan) // 10000 rows = 100 pages
	if got := seq.Cost.At(0); got != 100 {
		t.Errorf("SeqScan time = %g, want 100", got)
	}
	if got := seq.Cost.At(1); got != 2 {
		t.Errorf("SeqScan buffer = %g, want 2", got)
	}
	if got := seq.Cost.At(2); got != 0 {
		t.Errorf("SeqScan disc = %g, want 0", got)
	}
	pin := m.NewScan(0, plan.PinScan)
	if got := pin.Cost.At(0); math.Abs(got-60) > 1e-9 {
		t.Errorf("PinScan time = %g, want 60", got)
	}
	if got := pin.Cost.At(1); got != 102 {
		t.Errorf("PinScan buffer = %g, want 102", got)
	}
	// The two scans are mutually non-dominated: a genuine
	// time/buffer trade-off (footnote 2 of the paper).
	if seq.Cost.Dominates(pin.Cost) || pin.Cost.Dominates(seq.Cost) {
		t.Error("scan variants should be incomparable")
	}
}

func TestScanPlanFields(t *testing.T) {
	m := testModel(t, AllMetrics())
	s := m.NewScan(1, plan.SeqScan)
	if s.Card != 1000 {
		t.Errorf("Card = %g", s.Card)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestJoinCostHashVsBNL(t *testing.T) {
	m := testModel(t, AllMetrics())
	a, b := m.NewScan(0, plan.SeqScan), m.NewScan(1, plan.SeqScan)
	hash := m.NewJoin(plan.MakeJoinOp(plan.Hash, false), a, b)
	bnl := m.NewJoin(plan.MakeJoinOp(plan.BNL10, false), a, b)
	if hash.Cost.At(0) >= bnl.Cost.At(0) {
		t.Errorf("hash time %g should beat BNL10 time %g", hash.Cost.At(0), bnl.Cost.At(0))
	}
	if hash.Cost.At(1) <= bnl.Cost.At(1) {
		t.Errorf("hash buffer %g should exceed BNL10 buffer %g", hash.Cost.At(1), bnl.Cost.At(1))
	}
}

func TestBNLBufferLadder(t *testing.T) {
	// Larger BNL buffer budgets must never be slower and must use more
	// buffer: the "operator versions with different buffer amounts".
	m := testModel(t, AllMetrics())
	a, b := m.NewScan(0, plan.SeqScan), m.NewScan(1, plan.SeqScan)
	prevTime, prevBuf := math.Inf(1), 0.0
	for _, alg := range []plan.JoinAlg{plan.BNL10, plan.BNL100, plan.BNL1000} {
		j := m.NewJoin(plan.MakeJoinOp(alg, false), a, b)
		if j.Cost.At(0) > prevTime {
			t.Errorf("%v time %g exceeds smaller-buffer variant %g", alg, j.Cost.At(0), prevTime)
		}
		if j.Cost.At(1) <= prevBuf {
			t.Errorf("%v buffer %g not larger than previous %g", alg, j.Cost.At(1), prevBuf)
		}
		prevTime, prevBuf = j.Cost.At(0), j.Cost.At(1)
	}
}

func TestMaterializingVariantCosts(t *testing.T) {
	m := testModel(t, AllMetrics())
	a, b := m.NewScan(0, plan.SeqScan), m.NewScan(1, plan.SeqScan)
	pipe := m.NewJoin(plan.MakeJoinOp(plan.Hash, false), a, b)
	mat := m.NewJoin(plan.MakeJoinOp(plan.Hash, true), a, b)
	if mat.Output != plan.Materialized || pipe.Output != plan.Pipelined {
		t.Fatal("wrong output representations")
	}
	if mat.Cost.At(0) <= pipe.Cost.At(0) {
		t.Error("materializing variant should pay write time")
	}
	if mat.Cost.At(2) <= pipe.Cost.At(2) {
		t.Error("materializing variant should pay disc space")
	}
}

func TestGraceAndSortMergePayDisc(t *testing.T) {
	m := testModel(t, AllMetrics())
	a, b := m.NewScan(0, plan.SeqScan), m.NewScan(1, plan.SeqScan)
	for _, alg := range []plan.JoinAlg{plan.GraceHash, plan.SortMerge} {
		j := m.NewJoin(plan.MakeJoinOp(alg, false), a, b)
		if j.Cost.At(2) <= 0 {
			t.Errorf("%v disc = %g, want > 0", alg, j.Cost.At(2))
		}
	}
}

func TestMetricProjection(t *testing.T) {
	full := testModel(t, AllMetrics())
	tb := testModel(t, []Metric{Time, Disc})
	a3 := full.NewJoin(plan.MakeJoinOp(plan.SortMerge, false),
		full.NewScan(0, plan.SeqScan), full.NewScan(1, plan.SeqScan))
	a2 := tb.NewJoin(plan.MakeJoinOp(plan.SortMerge, false),
		tb.NewScan(0, plan.SeqScan), tb.NewScan(1, plan.SeqScan))
	if a2.Cost.Dim() != 2 {
		t.Fatalf("projected dim = %d", a2.Cost.Dim())
	}
	if a2.Cost.At(0) != a3.Cost.At(0) {
		t.Errorf("time projection mismatch: %g vs %g", a2.Cost.At(0), a3.Cost.At(0))
	}
	if a2.Cost.At(1) != a3.Cost.At(2) {
		t.Errorf("disc projection mismatch: %g vs %g", a2.Cost.At(1), a3.Cost.At(2))
	}
}

func TestBufferCombinesByMax(t *testing.T) {
	m := testModel(t, AllMetrics())
	pin := m.NewScan(0, plan.PinScan) // buffer 102
	b := m.NewScan(2, plan.SeqScan)   // buffer 2
	j := m.NewJoin(plan.MakeJoinOp(plan.BNL10, false), pin, b)
	// Join op buffer is 10, child max is 102: total is the max, not sum.
	if got := j.Cost.At(1); got != 102 {
		t.Errorf("buffer = %g, want 102 (max composition)", got)
	}
}

func TestTimeAndDiscCombineAdditively(t *testing.T) {
	m := testModel(t, AllMetrics())
	a, b := m.NewScan(0, plan.SeqScan), m.NewScan(1, plan.SeqScan)
	j := m.NewJoin(plan.MakeJoinOp(plan.GraceHash, false), a, b)
	wantMinTime := a.Cost.At(0) + b.Cost.At(0)
	if j.Cost.At(0) <= wantMinTime {
		t.Errorf("join time %g should exceed children sum %g", j.Cost.At(0), wantMinTime)
	}
}

func TestJoinCostMatchesNewJoin(t *testing.T) {
	m := testModel(t, AllMetrics())
	a, b := m.NewScan(0, plan.SeqScan), m.NewScan(1, plan.SeqScan)
	for _, op := range plan.JoinOpsFor(b.Output) {
		card := m.Card(a.Rel.Union(b.Rel))
		vec := m.JoinCost(op, a, b, card)
		j := m.NewJoinWithCard(op, a, b, card)
		if !vec.Equal(j.Cost) {
			t.Errorf("%v: JoinCost %v != NewJoin cost %v", op, vec, j.Cost)
		}
		j2 := m.NewJoin(op, a, b)
		if !j2.Cost.Equal(j.Cost) {
			t.Errorf("%v: NewJoin and NewJoinWithCard disagree", op)
		}
	}
}

func TestJoinCostPartsMatchesJoinCost(t *testing.T) {
	m := testModel(t, AllMetrics())
	a, b := m.NewScan(0, plan.SeqScan), m.NewScan(2, plan.PinScan)
	card := m.Card(a.Rel.Union(b.Rel))
	for _, op := range plan.JoinOpsFor(b.Output) {
		v1 := m.JoinCost(op, a, b, card)
		v2 := m.JoinCostParts(op, a.Cost, a.Card, b.Cost, b.Card, card)
		if !v1.Equal(v2) {
			t.Errorf("%v: parts-based cost differs", op)
		}
	}
}

func TestRecostReproducesCosts(t *testing.T) {
	m := testModel(t, AllMetrics())
	a, b, c := m.NewScan(0, plan.SeqScan), m.NewScan(1, plan.SeqScan), m.NewScan(2, plan.PinScan)
	j := m.NewJoin(plan.MakeJoinOp(plan.Hash, true), m.NewJoin(plan.MakeJoinOp(plan.BNL100, false), a, b), c)
	r := m.Recost(j)
	if !r.Cost.Equal(j.Cost) {
		t.Errorf("Recost changed cost: %v vs %v", r.Cost, j.Cost)
	}
	if r.Rel != j.Rel || r.Output != j.Output {
		t.Error("Recost changed structure")
	}
}

// randomPlan builds a random bushy plan over a random subset of the
// model's tables, drawn from seed alone, so every goroutine that builds
// the plan of one seed builds the same plan.
func randomPlan(m *Model, seed uint64) *plan.Plan {
	rng := rand.New(rand.NewPCG(seed, 41))
	n := m.Catalog().NumTables()
	tables := rng.Perm(n)[:2+rng.IntN(n-1)]
	var build func(ts []int) *plan.Plan
	build = func(ts []int) *plan.Plan {
		if len(ts) == 1 {
			return m.NewScan(ts[0], plan.AllScanOps()[rng.IntN(plan.NumScanOps)])
		}
		k := 1 + rng.IntN(len(ts)-1)
		outer, inner := build(ts[:k]), build(ts[k:])
		ops := plan.JoinOpsFor(inner.Output)
		return m.NewJoin(ops[rng.IntN(len(ops))], outer, inner)
	}
	return build(tables)
}

// planBits appends, for every node of p, the bits of its cardinality,
// of Card over its table set and of its cost vector.
func planBits(m *Model, p *plan.Plan, out []uint64) []uint64 {
	out = append(out, math.Float64bits(p.Card), math.Float64bits(m.Card(p.Rel)))
	for k := 0; k < p.Cost.Dim(); k++ {
		out = append(out, math.Float64bits(p.Cost.At(k)))
	}
	if p.IsJoin() {
		out = planBits(m, p.Outer, out)
		out = planBits(m, p.Inner, out)
	}
	return out
}

// TestModelConcurrentUse pins that a Model holds no mutable state but
// its interner: goroutines sharing one model over overlapping random
// plans get, bit for bit, what a single goroutine gets from a model of
// its own. Run under -race, it also proves the calls write nothing
// unsynchronized.
func TestModelConcurrentUse(t *testing.T) {
	const goroutines, plans = 8, 24
	rng := rand.New(rand.NewPCG(43, 44))
	cat := catalog.Generate(catalog.GenSpec{Tables: 60, Graph: catalog.Cycle, Selectivity: catalog.Steinbrunn}, rng)
	eval := func(m *Model, seed uint64) []uint64 {
		p := randomPlan(m, seed)
		out := planBits(m, p, nil)
		return planBits(m, m.Recost(p), out)
	}
	ref := New(cat, AllMetrics())
	want := make([][]uint64, plans)
	for i := range want {
		want[i] = eval(ref, uint64(i))
	}

	m := New(cat, AllMetrics())
	got := make([][][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([][]uint64, plans)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine walks the plans from its own offset, so
			// they price the same table sets at the same time.
			for k := 0; k < plans; k++ {
				i := (g*plans/goroutines + k) % plans
				got[g][i] = eval(m, uint64(i))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i := range want {
			if len(got[g][i]) != len(want[i]) {
				t.Fatalf("goroutine %d plan %d: %d values, want %d", g, i, len(got[g][i]), len(want[i]))
			}
			for k := range want[i] {
				if got[g][i][k] != want[i][k] {
					t.Fatalf("goroutine %d plan %d value %d: %x, want %x", g, i, k, got[g][i][k], want[i][k])
				}
			}
		}
	}
}

// TestQuickPrincipleOfOptimality checks the property Section 4.2 builds
// on: replacing a sub-plan with one that weakly dominates it (same table
// set, same output representation) never worsens the plan's total cost.
func TestQuickPrincipleOfOptimality(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		cat := catalog.Generate(catalog.GenSpec{Tables: 5, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng)
		m := New(cat, AllMetrics())
		// Build a three-table plan over a sub-plan s01 joining {0,1}.
		mk := func(op plan.JoinAlg, mat bool) *plan.Plan {
			return m.NewJoin(plan.MakeJoinOp(op, mat),
				m.NewScan(0, plan.SeqScan), m.NewScan(1, plan.SeqScan))
		}
		subA := mk(plan.Hash, true)
		subB := mk(plan.GraceHash, true)
		if !subA.Cost.Dominates(subB.Cost) {
			subA, subB = subB, subA
		}
		if !subA.Cost.Dominates(subB.Cost) {
			return true // incomparable pair; property does not apply
		}
		top := m.NewScan(2, plan.SeqScan)
		for _, op := range plan.JoinOpsFor(subA.Output) {
			pa := m.NewJoin(op, top, subA)
			pb := m.NewJoin(op, top, subB)
			if !pa.Cost.Dominates(pb.Cost) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickCostsNonNegativeAndSaturated checks every operator stays in
// the representable cost domain even for astronomically large inputs.
func TestQuickCostsNonNegativeAndSaturated(t *testing.T) {
	tables := make([]catalog.Table, 40)
	for i := range tables {
		tables[i] = catalog.Table{Rows: 1e6}
	}
	m := New(catalog.MustNew(tables, nil), AllMetrics())
	// Left-deep cross-product pile-up: cards saturate quickly.
	p := m.NewScan(0, plan.SeqScan)
	for i := 1; i < 40; i++ {
		p = m.NewJoin(plan.MakeJoinOp(plan.SortMerge, true), p, m.NewScan(i, plan.SeqScan))
		for k := 0; k < p.Cost.Dim(); k++ {
			c := p.Cost.At(k)
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("cost component %d invalid: %g", k, c)
			}
		}
	}
}

func BenchmarkNewJoin(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	cat := catalog.Generate(catalog.GenSpec{Tables: 50, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng)
	m := New(cat, AllMetrics())
	x, y := m.NewScan(0, plan.SeqScan), m.NewScan(1, plan.SeqScan)
	op := plan.MakeJoinOp(plan.Hash, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.NewJoin(op, x, y)
	}
}

func BenchmarkJoinCost(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	cat := catalog.Generate(catalog.GenSpec{Tables: 50, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng)
	m := New(cat, AllMetrics())
	x, y := m.NewScan(0, plan.SeqScan), m.NewScan(1, plan.SeqScan)
	op := plan.MakeJoinOp(plan.Hash, false)
	card := m.Card(x.Rel.Union(y.Rel))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.JoinCost(op, x, y, card)
	}
}
