package catalog

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rmq/internal/tableset"
)

func TestEstimatorSingleTables(t *testing.T) {
	cat := testCatalog(t)
	e := NewEstimator(cat)
	for i := 0; i < cat.NumTables(); i++ {
		got := e.Card(tableset.Single(i))
		want := cat.Table(i).Rows
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("Card({%d}) = %g, want %g", i, got, want)
		}
	}
}

func TestEstimatorJoinWithPredicate(t *testing.T) {
	cat := testCatalog(t) // a(1000) -0.01- b(100) -0.5- c(10)
	e := NewEstimator(cat)
	got := e.Card(tableset.FromSlice([]int{0, 1}))
	want := 1000.0 * 100 * 0.01
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("Card(a⋈b) = %g, want %g", got, want)
	}
	got = e.Card(tableset.FromSlice([]int{0, 1, 2}))
	want = 1000 * 100 * 10 * 0.01 * 0.5
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("Card(a⋈b⋈c) = %g, want %g", got, want)
	}
}

func TestEstimatorCrossProduct(t *testing.T) {
	cat := testCatalog(t)
	e := NewEstimator(cat)
	// a and c share no edge: pure cross product.
	got := e.Card(tableset.FromSlice([]int{0, 2}))
	want := 1000.0 * 10
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("Card(a×c) = %g, want %g", got, want)
	}
}

func TestEstimatorEmptySet(t *testing.T) {
	e := NewEstimator(testCatalog(t))
	if got := e.Card(tableset.Empty()); got != 1 {
		t.Errorf("Card(∅) = %g, want 1", got)
	}
	if got := e.LogCard(tableset.Empty()); got != 0 {
		t.Errorf("LogCard(∅) = %g, want 0", got)
	}
}

func TestEstimatorLowerClamp(t *testing.T) {
	cat := MustNew(
		[]Table{{Rows: 10}, {Rows: 10}},
		[]Edge{{A: 0, B: 1, Selectivity: 1e-9}},
	)
	e := NewEstimator(cat)
	if got := e.Card(tableset.Range(2)); got != 1 {
		t.Errorf("Card = %g, want clamp to 1", got)
	}
}

func TestEstimatorSaturation(t *testing.T) {
	// 60 tables of 1e6 rows as cross product: 1e360 rows, saturates.
	tables := make([]Table, 60)
	for i := range tables {
		tables[i] = Table{Rows: 1e6}
	}
	e := NewEstimator(MustNew(tables, nil))
	if got := e.Card(tableset.Range(60)); got != maxLinearCard {
		t.Errorf("Card = %g, want saturation %g", got, maxLinearCard)
	}
	// Log-space value stays exact.
	if got, want := e.LogCard(tableset.Range(60)), 60*math.Log(1e6); math.Abs(got-want) > 1e-6 {
		t.Errorf("LogCard = %g, want %g", got, want)
	}
}

func TestEstimatorMemoConsistency(t *testing.T) {
	e := NewEstimator(testCatalog(t))
	s := tableset.Range(3)
	first := e.Card(s)
	second := e.Card(s)
	if first != second {
		t.Errorf("memoized value changed: %g vs %g", first, second)
	}
}

func TestJoinSelectivity(t *testing.T) {
	cat := testCatalog(t)
	e := NewEstimator(cat)
	got := e.JoinSelectivity(tableset.Single(0), tableset.Single(1))
	if math.Abs(got-0.01) > 1e-12 {
		t.Errorf("JoinSelectivity(a,b) = %g, want 0.01", got)
	}
	// Symmetric.
	rev := e.JoinSelectivity(tableset.Single(1), tableset.Single(0))
	if got != rev {
		t.Errorf("JoinSelectivity not symmetric: %g vs %g", got, rev)
	}
	// No edge: selectivity 1.
	if got := e.JoinSelectivity(tableset.Single(0), tableset.Single(2)); got != 1 {
		t.Errorf("JoinSelectivity(a,c) = %g, want 1", got)
	}
	// Multiple crossing edges multiply.
	got = e.JoinSelectivity(tableset.Single(1), tableset.FromSlice([]int{0, 2}))
	if math.Abs(got-0.01*0.5)/got > 1e-9 {
		t.Errorf("JoinSelectivity(b, {a,c}) = %g, want 0.005", got)
	}
}

// TestQuickCardOrderIndependent is the core invariant the plan cache and
// the principle of optimality rely on: the cardinality of a table set
// must not depend on how the estimate is assembled.
func TestQuickCardOrderIndependent(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		cat := Generate(GenSpec{Tables: 12, Graph: Cycle, Selectivity: Steinbrunn}, rng)
		// Two estimators query the same sets in different orders; every
		// agreeing set must produce the identical estimate.
		e1, e2 := NewEstimator(cat), NewEstimator(cat)
		sets := make([]tableset.Set, 20)
		for i := range sets {
			var s tableset.Set
			for t := 0; t < 12; t++ {
				if rng.IntN(2) == 0 {
					s = s.Add(t)
				}
			}
			if s.IsEmpty() {
				s = tableset.Single(rng.IntN(12))
			}
			sets[i] = s
		}
		for _, s := range sets {
			_ = e1.Card(s)
		}
		for i := len(sets) - 1; i >= 0; i-- {
			if e2.Card(sets[i]) != e1.Card(sets[i]) {
				return false
			}
		}
		// Additivity in log space: card(A∪B) for disjoint A,B equals
		// card(A)·card(B)·sel(A,B) up to float tolerance.
		a, b := sets[0], sets[1].Minus(sets[0])
		if b.IsEmpty() {
			return true
		}
		lhs := e1.LogCard(a.Union(b))
		rhs := e1.LogCard(a) + e1.LogCard(b) + math.Log(e1.JoinSelectivity(a, b))
		return math.Abs(lhs-rhs) < 1e-6*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickPagesAtLeastOne(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 22))
		cat := Generate(GenSpec{Tables: 6, Graph: Star, Selectivity: Steinbrunn}, rng)
		e := NewEstimator(cat)
		for s := 1; s < 1<<6; s++ {
			set := tableset.Set{}
			for i := 0; i < 6; i++ {
				if s&(1<<i) != 0 {
					set = set.Add(i)
				}
			}
			if e.Pages(set) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEstimatorCardMiss(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	cat := Generate(GenSpec{Tables: 100, Graph: Chain, Selectivity: Steinbrunn}, rng)
	e := NewEstimator(cat)
	sets := make([]tableset.Set, 1024)
	for i := range sets {
		var s tableset.Set
		for t := 0; t < 100; t++ {
			if rng.IntN(3) == 0 {
				s = s.Add(t)
			}
		}
		sets[i] = s.Add(rng.IntN(100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(sets) == 0 {
			e = NewEstimator(cat) // force misses
		}
		_ = e.Card(sets[i%len(sets)])
	}
}

// computeLogOracle is the suffix-set evaluation computeLog replaced: it
// lists s's tables, then folds them from the highest down, each adding
// its base cardinality and the selectivities of its edges into the
// running set of higher tables. computeLog must agree with it bit for
// bit, since plan cardinalities, hence every cost and cache decision,
// are built from it.
func computeLogOracle(c *Catalog, s tableset.Set) float64 {
	tabs := s.Tables()
	k := len(tabs)
	lc := c.lrows[tabs[k-1]]
	suffix := tableset.Single(tabs[k-1])
	for i := k - 2; i >= 0; i-- {
		t := tabs[i]
		lc = lc + c.lrows[t] + c.logSelBetween(t, suffix)
		suffix = suffix.Add(t)
	}
	return lc
}

func TestComputeLogMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	for _, g := range []GraphKind{Chain, Cycle, Star, -1} {
		for _, n := range []int{1, 2, 63, 64, 65, 100, 128} {
			var cat *Catalog
			if g >= 0 {
				cat = Generate(GenSpec{Tables: n, Graph: g, Selectivity: Steinbrunn}, rng)
			} else {
				cat = randomGraphCatalog(n, rng)
			}
			e := NewEstimator(cat)
			edges := []int{0, n - 1}
			for _, b := range []int{63, 64, 127} {
				if b < n {
					edges = append(edges, b)
				}
			}
			check := func(s tableset.Set) {
				t.Helper()
				got, want := e.computeLog(s), computeLogOracle(cat, s)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s%d: computeLog(%v) = %x, oracle %x", g, n, s, math.Float64bits(got), math.Float64bits(want))
				}
			}
			check(tableset.Range(n))
			for _, b := range edges {
				check(tableset.Single(b))
			}
			for i := 0; i < 300; i++ {
				var s tableset.Set
				density := 1 + rng.IntN(8)
				for tb := 0; tb < n; tb++ {
					if rng.IntN(density) == 0 {
						s = s.Add(tb)
					}
				}
				// Every other set holds the word-boundary tables.
				if i%2 == 0 {
					for _, b := range edges {
						s = s.Add(b)
					}
				}
				if s.IsEmpty() {
					s = tableset.Single(rng.IntN(n))
				}
				check(s)
			}
		}
	}
}

// randomGraphCatalog builds an n-table catalog over a random join graph
// with about two edges per table, a tenth of them of selectivity 1
// (log-selectivity +0), so tables meet neighbours on both sides of the
// 64-table word boundary.
func randomGraphCatalog(n int, rng *rand.Rand) *Catalog {
	tables := make([]Table, n)
	for i := range tables {
		tables[i] = Table{Rows: 1 + float64(rng.IntN(1_000_000))}
	}
	var edges []Edge
	seen := make(map[[2]int]bool)
	for i := 0; n > 1 && i < 2*n; i++ {
		a, b := rng.IntN(n), rng.IntN(n)
		if a == b || seen[[2]int{a, b}] || seen[[2]int{b, a}] {
			continue
		}
		seen[[2]int{a, b}] = true
		sel := 1.0
		if rng.IntN(10) != 0 {
			sel = rng.Float64()*0.999 + 1e-9
		}
		edges = append(edges, Edge{A: a, B: b, Selectivity: sel})
	}
	return MustNew(tables, edges)
}
