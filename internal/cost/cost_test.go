package cost

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	v := New(1, 2, 3)
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d", v.Dim())
	}
	for i, want := range []float64{1, 2, 3} {
		if v.At(i) != want {
			t.Errorf("At(%d) = %g, want %g", i, v.At(i), want)
		}
	}
}

func TestZero(t *testing.T) {
	v := Zero(2)
	if v.Dim() != 2 || v.At(0) != 0 || v.At(1) != 0 {
		t.Errorf("Zero(2) = %v", v)
	}
}

func TestNewTooManyComponentsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1, 2, 3, 4, 5)
}

func TestAdd(t *testing.T) {
	got := New(1, 2).Add(New(10, 20))
	if !got.Equal(New(11, 22)) {
		t.Errorf("Add = %v", got)
	}
}

func TestAddSaturates(t *testing.T) {
	got := New(Saturation, 1).Add(New(Saturation, 1))
	if got.At(0) != Saturation {
		t.Errorf("saturated add = %g", got.At(0))
	}
	if got.At(1) != 2 {
		t.Errorf("unsaturated component = %g", got.At(1))
	}
}

func TestMax(t *testing.T) {
	got := New(1, 20).Max(New(10, 2))
	if !got.Equal(New(10, 20)) {
		t.Errorf("Max = %v", got)
	}
}

func TestScale(t *testing.T) {
	got := New(1, 2).Scale(3)
	if !got.Equal(New(3, 6)) {
		t.Errorf("Scale = %v", got)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1, 2).Add(New(1, 2, 3))
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b           Vector
		dom, strictDom bool
	}{
		{New(1, 1), New(1, 1), true, false},
		{New(1, 1), New(2, 2), true, true},
		{New(1, 2), New(2, 1), false, false},
		{New(1, 1), New(1, 2), true, true},
		{New(2, 2), New(1, 1), false, false},
	}
	for _, c := range cases {
		if got := c.a.Dominates(c.b); got != c.dom {
			t.Errorf("%v ⪯ %v = %v, want %v", c.a, c.b, got, c.dom)
		}
		if got := c.a.StrictlyDominates(c.b); got != c.strictDom {
			t.Errorf("%v ≺ %v = %v, want %v", c.a, c.b, got, c.strictDom)
		}
	}
}

func TestApproxDominates(t *testing.T) {
	a := New(10, 10)
	b := New(6, 6)
	if a.ApproxDominates(b, 1) {
		t.Error("α=1 should be plain dominance")
	}
	if !a.ApproxDominates(b, 2) {
		t.Error("10 ≤ 2·6 should hold")
	}
	if !a.ApproxDominates(b, math.Inf(1)) {
		t.Error("α=∞ approximates everything")
	}
	if !b.ApproxDominates(a, 1) {
		t.Error("6 ⪯ 10 with α=1")
	}
}

func TestDominationFactor(t *testing.T) {
	a := New(10, 5)
	b := New(5, 5)
	if got := a.DominationFactor(b); got != 2 {
		t.Errorf("factor = %g, want 2", got)
	}
	if got := b.DominationFactor(a); got != 1 {
		t.Errorf("factor = %g, want 1 (dominating)", got)
	}
}

func TestDominationFactorZeroComponents(t *testing.T) {
	a := New(1, 0)
	b := New(1, 0)
	if got := a.DominationFactor(b); got != 1 {
		t.Errorf("factor for equal-with-zero = %g, want 1", got)
	}
}

func TestString(t *testing.T) {
	if got := New(1, 2.5).String(); got != "(1, 2.5)" {
		t.Errorf("String = %q", got)
	}
}

func randVec(r *rand.Rand, dim int) Vector {
	v := Zero(dim)
	for i := 0; i < dim; i++ {
		v.V[i] = math.Exp(r.Float64()*20 - 10)
	}
	return v
}

func TestQuickDominanceReflexive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		v := randVec(r, 3)
		return v.Dominates(v) && !v.StrictlyDominates(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDominanceAntisymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 2))
		a, b := randVec(r, 3), randVec(r, 3)
		if a.Dominates(b) && b.Dominates(a) {
			return a.Equal(b)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDominanceTransitive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		// Force chains by construction: b = a + noise, c = b + noise.
		a := randVec(r, 3)
		b := a.Add(randVec(r, 3))
		c := b.Add(randVec(r, 3))
		return a.Dominates(b) && b.Dominates(c) && a.Dominates(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStrictDominanceAsymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 4))
		a, b := randVec(r, 2), randVec(r, 2)
		if a.StrictlyDominates(b) {
			return !b.StrictlyDominates(a)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDominationFactorConsistent(t *testing.T) {
	// v ⪯α o exactly when DominationFactor(v, o) ≤ α (for α ≥ 1 and
	// components above the ratio floor).
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		a, b := randVec(r, 3), randVec(r, 3)
		alpha := 1 + r.Float64()*10
		factor := a.DominationFactor(b)
		return a.ApproxDominates(b, alpha) == (factor <= alpha)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickApproxDominanceMonotoneInAlpha(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 6))
		a, b := randVec(r, 3), randVec(r, 3)
		lo := 1 + r.Float64()*3
		hi := lo + r.Float64()*3
		if a.ApproxDominates(b, lo) && !a.ApproxDominates(b, hi) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkStrictlyDominates measures the scalar dominance predicate
// over a realistic probe mix per dimension: dominated, undominated and
// incomparable pairs in rotation, the way eviction walks actually hit
// it, rather than a single always-true pair the branch predictor learns
// after one iteration.
func BenchmarkStrictlyDominates(b *testing.B) {
	for _, bc := range []struct {
		name  string
		pairs [][2]Vector
	}{
		{"2d", [][2]Vector{
			{New(1, 2), New(2, 3)}, // dominated
			{New(5, 9), New(2, 3)}, // undominated
			{New(1, 9), New(2, 3)}, // incomparable
			{New(2, 3), New(2, 3)}, // equal: weakly but not strictly
			{New(1, 3), New(2, 3)}, // tied second metric
			{New(9, 1), New(2, 3)}, // incomparable, other side
		}},
		{"3d", [][2]Vector{
			{New(1, 2, 3), New(2, 3, 4)},
			{New(5, 9, 9), New(2, 3, 4)},
			{New(1, 9, 3), New(2, 3, 4)},
			{New(2, 3, 4), New(2, 3, 4)},
			{New(1, 3, 4), New(2, 3, 4)},
			{New(9, 1, 1), New(2, 3, 4)},
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pairs := bc.pairs
			hits := 0
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if p[0].StrictlyDominates(p[1]) {
					hits++
				}
			}
			sinkBool = hits > 0
		})
	}
}

// TestComparisonsAllocFree asserts the dominance relations of the inner
// loops allocate nothing: cost vectors are fixed-size value types and
// every comparison must stay on the stack.
func TestComparisonsAllocFree(t *testing.T) {
	a := New(1, 5, 3)
	b := New(2, 4, 3)
	allocs := testing.AllocsPerRun(200, func() {
		if a.Dominates(b) || b.Dominates(a) {
			t.Fatal("incomparable vectors dominated")
		}
		if a.StrictlyDominates(b) || b.StrictlyDominates(a) {
			t.Fatal("incomparable vectors strictly dominated")
		}
		if !a.ApproxDominates(b, 2) {
			t.Fatal("approx dominance lost")
		}
		if a.DominationFactor(b) <= 1 {
			t.Fatal("domination factor lost")
		}
		if !a.Equal(a) {
			t.Fatal("equality lost")
		}
	})
	if allocs != 0 {
		t.Errorf("cost comparisons allocate: %v allocs/run, want 0", allocs)
	}
}

func TestMin(t *testing.T) {
	a := New(1, 5, 3)
	b := New(4, 2, 3)
	got := a.Min(b)
	if !got.Equal(New(1, 2, 3)) {
		t.Errorf("Min = %v", got)
	}
	// Min lower-bounds both inputs — the corner-vector property.
	if !got.Dominates(a) || !got.Dominates(b) {
		t.Error("Min does not dominate its inputs")
	}
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch not detected")
		}
	}()
	a.Min(New(1))
}
