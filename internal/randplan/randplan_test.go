package randplan

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rmq/internal/catalog"
	"rmq/internal/costmodel"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

func testModel(tb testing.TB, n int) *costmodel.Model {
	tb.Helper()
	rng := rand.New(rand.NewPCG(77, 88))
	cat := catalog.Generate(catalog.GenSpec{Tables: n, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng)
	return costmodel.New(cat, costmodel.AllMetrics())
}

func TestRandomPlanValid(t *testing.T) {
	m := testModel(t, 10)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100; i++ {
		p := Random(m, m.Catalog().AllTables(), rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("invalid random plan: %v\n%v", err, p)
		}
		if p.Rel != m.Catalog().AllTables() {
			t.Fatalf("plan joins %v, want all tables", p.Rel)
		}
		if p.NumNodes() != 2*10-1 {
			t.Fatalf("NumNodes = %d, want 19", p.NumNodes())
		}
	}
}

// TestRandomWritesNoInterner checks that a random plan, a climb's
// transient start, carries no table-set ids and interns nothing.
func TestRandomWritesNoInterner(t *testing.T) {
	m := testModel(t, 10)
	rng := rand.New(rand.NewPCG(3, 4))
	var walk func(p *plan.Plan)
	walk = func(p *plan.Plan) {
		if p.RelID != 0 {
			t.Fatalf("node %v of a random plan carries id %d", p.Rel, p.RelID)
		}
		if p.IsJoin() {
			walk(p.Outer)
			walk(p.Inner)
		}
	}
	for i := 0; i < 20; i++ {
		walk(Random(m, m.Catalog().AllTables(), rng))
	}
	if n := m.Interner().Len(); n != 0 {
		t.Fatalf("random plans interned %d sets", n)
	}
}

func TestRandomSingleTable(t *testing.T) {
	m := testModel(t, 3)
	rng := rand.New(rand.NewPCG(5, 5))
	p := Random(m, tableset.Single(1), rng)
	if p.IsJoin() || p.Table != 1 {
		t.Fatalf("single-table plan = %v", p)
	}
}

func TestRandomEmptySetPanics(t *testing.T) {
	m := testModel(t, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty set")
		}
	}()
	Random(m, tableset.Empty(), rand.New(rand.NewPCG(1, 1)))
}

func TestRandomCoversShapes(t *testing.T) {
	// With 4 leaves there are 5 tree shapes (Catalan(3)); uniform
	// sampling must hit several of them and both bushy and left-deep
	// forms in a modest number of draws.
	m := testModel(t, 4)
	rng := rand.New(rand.NewPCG(9, 9))
	shapes := map[string]int{}
	for i := 0; i < 400; i++ {
		p := Random(m, m.Catalog().AllTables(), rng)
		shapes[shapeOf(p)]++
	}
	if len(shapes) < 4 {
		t.Errorf("only %d distinct shapes sampled: %v", len(shapes), shapes)
	}
}

// shapeOf serializes the unlabeled tree shape.
func shapeOf(p *plan.Plan) string {
	if !p.IsJoin() {
		return "."
	}
	return "(" + shapeOf(p.Outer) + shapeOf(p.Inner) + ")"
}

func TestRandomCoversOperators(t *testing.T) {
	m := testModel(t, 6)
	rng := rand.New(rand.NewPCG(11, 3))
	scanOps := map[plan.ScanOp]bool{}
	joinAlgs := map[plan.JoinAlg]bool{}
	for i := 0; i < 300; i++ {
		p := Random(m, m.Catalog().AllTables(), rng)
		var walk func(q *plan.Plan)
		walk = func(q *plan.Plan) {
			if q.IsJoin() {
				joinAlgs[q.Join.Alg()] = true
				walk(q.Outer)
				walk(q.Inner)
			} else {
				scanOps[q.Scan] = true
			}
		}
		walk(p)
	}
	if len(scanOps) != plan.NumScanOps {
		t.Errorf("scan ops sampled: %v", scanOps)
	}
	if len(joinAlgs) != plan.NumJoinAlgs {
		t.Errorf("join algs sampled: %v (want all %d)", joinAlgs, plan.NumJoinAlgs)
	}
}

func TestRandomLeafPermutationUniformish(t *testing.T) {
	// Table 0 should appear in every leaf position over many draws; as a
	// cheap proxy, check the leftmost leaf varies.
	m := testModel(t, 5)
	rng := rand.New(rand.NewPCG(13, 4))
	leftmost := map[int]int{}
	for i := 0; i < 500; i++ {
		p := Random(m, m.Catalog().AllTables(), rng)
		for p.IsJoin() {
			p = p.Outer
		}
		leftmost[p.Table]++
	}
	for tbl := 0; tbl < 5; tbl++ {
		if leftmost[tbl] == 0 {
			t.Errorf("table %d never leftmost: %v", tbl, leftmost)
		}
	}
}

func TestQuickRandomPlansAlwaysValid(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := 1 + int(seed%30)
		cat := catalog.Generate(catalog.GenSpec{Tables: n, Graph: catalog.Star, Selectivity: catalog.MinMax}, rng)
		m := costmodel.New(cat, costmodel.AllMetrics())
		p := Random(m, cat.AllTables(), rng)
		return p.Validate() == nil && p.Rel.Count() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// BenchmarkRandom100 times one random 100-table plan as a run draws it.
// Every draw interns about 99 table sets, so a model that served every
// draw would hold about a million ids and the benchmark would mostly
// time interner misses; a fresh model every drawsPerModel draws keeps
// the interner near the size a run's private cache reaches (a 200-step
// run on a 100-table chain ends with about 30k ids).
func BenchmarkRandom100(b *testing.B) {
	const drawsPerModel = 300
	cat := testModel(b, 100).Catalog()
	rng := rand.New(rand.NewPCG(1, 2))
	all := cat.AllTables()
	var m *costmodel.Model
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%drawsPerModel == 0 {
			b.StopTimer()
			m = costmodel.New(cat, costmodel.AllMetrics())
			b.StartTimer()
		}
		_ = Random(m, all, rng)
	}
}
