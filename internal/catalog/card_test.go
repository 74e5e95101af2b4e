package catalog

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rmq/internal/tableset"
)

// logSelBetween returns the summed log-selectivity of the join edges
// between table t and the tables of inA.
func (c *Catalog) logSelBetween(t int, inA tableset.Set) float64 {
	sum := 0.0
	for _, nb := range c.adj[t] {
		if inA.Contains(nb.table) {
			sum += nb.logSel
		}
	}
	return sum
}

// joinSelectivity returns the combined selectivity factor applied when
// joining disjoint table sets a and b: the product of the selectivities
// of all edges crossing between them (1 for a pure cross product).
func joinSelectivity(c *Catalog, a, b tableset.Set) float64 {
	// Iterate the smaller side's tables and sum the log-selectivities of
	// their edges into the other side.
	if b.Count() < a.Count() {
		a, b = b, a
	}
	ls := 0.0
	a.ForEach(func(t int) {
		ls += c.logSelBetween(t, b)
	})
	if ls == 0 {
		return 1
	}
	return math.Exp(ls)
}

func TestEstimatorSingleTables(t *testing.T) {
	cat := testCatalog(t)
	for i := 0; i < cat.NumTables(); i++ {
		got := cat.Card(tableset.Single(i))
		want := cat.Table(i).Rows
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("Card({%d}) = %g, want %g", i, got, want)
		}
	}
}

func TestEstimatorJoinWithPredicate(t *testing.T) {
	cat := testCatalog(t) // a(1000) -0.01- b(100) -0.5- c(10)
	got := cat.Card(tableset.FromSlice([]int{0, 1}))
	want := 1000.0 * 100 * 0.01
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("Card(a⋈b) = %g, want %g", got, want)
	}
	got = cat.Card(tableset.FromSlice([]int{0, 1, 2}))
	want = 1000 * 100 * 10 * 0.01 * 0.5
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("Card(a⋈b⋈c) = %g, want %g", got, want)
	}
}

func TestEstimatorCrossProduct(t *testing.T) {
	cat := testCatalog(t)
	// a and c share no edge: pure cross product.
	got := cat.Card(tableset.FromSlice([]int{0, 2}))
	want := 1000.0 * 10
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("Card(a×c) = %g, want %g", got, want)
	}
}

func TestEstimatorEmptySet(t *testing.T) {
	if got := testCatalog(t).Card(tableset.Empty()); got != 1 {
		t.Errorf("Card(∅) = %g, want 1", got)
	}
}

func TestEstimatorLowerClamp(t *testing.T) {
	cat := MustNew(
		[]Table{{Rows: 10}, {Rows: 10}},
		[]Edge{{A: 0, B: 1, Selectivity: 1e-9}},
	)
	if got := cat.Card(tableset.Range(2)); got != 1 {
		t.Errorf("Card = %g, want clamp to 1", got)
	}
}

func TestEstimatorSaturation(t *testing.T) {
	// 60 tables of 1e6 rows as cross product: 1e360 rows, saturates.
	tables := make([]Table, 60)
	for i := range tables {
		tables[i] = Table{Rows: 1e6}
	}
	cat := MustNew(tables, nil)
	if got := cat.Card(tableset.Range(60)); got != maxLinearCard {
		t.Errorf("Card = %g, want saturation %g", got, maxLinearCard)
	}
	// Log-space value stays exact.
	if got, want := cat.logCard(tableset.Range(60)), 60*math.Log(1e6); math.Abs(got-want) > 1e-6 {
		t.Errorf("logCard = %g, want %g", got, want)
	}
}

func TestJoinSelectivity(t *testing.T) {
	cat := testCatalog(t)
	got := joinSelectivity(cat, tableset.Single(0), tableset.Single(1))
	if math.Abs(got-0.01) > 1e-12 {
		t.Errorf("joinSelectivity(a,b) = %g, want 0.01", got)
	}
	// Symmetric.
	rev := joinSelectivity(cat, tableset.Single(1), tableset.Single(0))
	if got != rev {
		t.Errorf("joinSelectivity not symmetric: %g vs %g", got, rev)
	}
	// No edge: selectivity 1.
	if got := joinSelectivity(cat, tableset.Single(0), tableset.Single(2)); got != 1 {
		t.Errorf("joinSelectivity(a,c) = %g, want 1", got)
	}
	// Multiple crossing edges multiply.
	got = joinSelectivity(cat, tableset.Single(1), tableset.FromSlice([]int{0, 2}))
	if math.Abs(got-0.01*0.5)/got > 1e-9 {
		t.Errorf("joinSelectivity(b, {a,c}) = %g, want 0.005", got)
	}
}

// TestQuickCardOrderIndependent is the core invariant the plan cache and
// the principle of optimality rely on: the cardinality of a table set
// must not depend on how the estimate is assembled.
func TestQuickCardOrderIndependent(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		cat := Generate(GenSpec{Tables: 12, Graph: Cycle, Selectivity: Steinbrunn}, rng)
		// The same sets estimated in opposite orders must produce the
		// identical estimate.
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
		first := make([]float64, len(sets))
		for i, s := range sets {
			first[i] = cat.Card(s)
		}
		for i := len(sets) - 1; i >= 0; i-- {
			if cat.Card(sets[i]) != first[i] {
				return false
			}
		}
		// Additivity in log space: card(A∪B) for disjoint A,B equals
		// card(A)·card(B)·sel(A,B) up to float tolerance.
		a, b := sets[0], sets[1].Minus(sets[0])
		if b.IsEmpty() {
			return true
		}
		lhs := cat.logCard(a.Union(b))
		rhs := cat.logCard(a) + cat.logCard(b) + math.Log(joinSelectivity(cat, a, b))
		return math.Abs(lhs-rhs) < 1e-6*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickPagesAtLeastOne checks Card's lower clamp, which keeps every
// page count the cost model derives from it at one page or more.
func TestQuickPagesAtLeastOne(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 22))
		cat := Generate(GenSpec{Tables: 6, Graph: Star, Selectivity: Steinbrunn}, rng)
		for s := 1; s < 1<<6; s++ {
			set := tableset.Set{}
			for i := 0; i < 6; i++ {
				if s&(1<<i) != 0 {
					set = set.Add(i)
				}
			}
			if cat.Card(set) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCard(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	cat := Generate(GenSpec{Tables: 100, Graph: Chain, Selectivity: Steinbrunn}, rng)
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
		cardSink = cat.Card(sets[i%len(sets)])
	}
}

var cardSink float64

// computeLogOracle is the suffix-set evaluation logCard replaced: it
// lists s's tables, then folds them from the highest down, each adding
// its base cardinality and the selectivities of its edges into the
// running set of higher tables. logCard must agree with it bit for
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
			edges := []int{0, n - 1}
			for _, b := range []int{63, 64, 127} {
				if b < n {
					edges = append(edges, b)
				}
			}
			check := func(s tableset.Set) {
				t.Helper()
				got, want := cat.logCard(s), computeLogOracle(cat, s)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s%d: logCard(%v) = %x, oracle %x", g, n, s, math.Float64bits(got), math.Float64bits(want))
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
