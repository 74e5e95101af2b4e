package cost

import (
	"math"
	"math/rand/v2"
	"testing"
)

// colRandVec mirrors the cache package's probe distribution: log-scaled
// components salted with exact zeros and frequent collisions, so the
// kernels see the same tie-heavy inputs the admission path does.
func colRandVec(rng *rand.Rand, dim int) Vector {
	comps := make([]float64, dim)
	for i := range comps {
		switch rng.IntN(10) {
		case 0:
			comps[i] = 0
		case 1:
			comps[i] = 100
		default:
			comps[i] = math.Exp(rng.Float64() * 12)
		}
	}
	return New(comps...)
}

// fillColumns appends n random vectors of the given dimension and
// returns the same vectors as a plain slice (the AoS reference).
func fillColumns(rng *rand.Rand, c *Columns, n, dim int) []Vector {
	ref := make([]Vector, n)
	for i := range ref {
		ref[i] = colRandVec(rng, dim)
		c.Append(ref[i])
	}
	return ref
}

func TestColumnsAppendAtRoundTrip(t *testing.T) {
	for dim := 1; dim <= MaxMetrics; dim++ {
		rng := rand.New(rand.NewPCG(uint64(dim), 1))
		var c Columns
		ref := fillColumns(rng, &c, 100, dim)
		if c.Len() != len(ref) || c.Dim() != dim {
			t.Fatalf("dim %d: Len=%d Dim=%d", dim, c.Len(), c.Dim())
		}
		for i, v := range ref {
			if c.At(i) != v {
				t.Fatalf("dim %d: At(%d) = %v, want %v", dim, i, c.At(i), v)
			}
		}
	}
}

func TestColumnsDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	var c Columns
	c.Append(New(1, 2))
	c.Append(New(1, 2, 3))
}

func TestColumnsResetAllowsNewDimension(t *testing.T) {
	var c Columns
	c.Append(New(1, 2, 3))
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
	c.Append(New(4, 5)) // first append into an empty block re-fixes dim
	if c.Dim() != 2 || c.At(0) != New(4, 5) {
		t.Fatalf("post-reset block: dim %d, At(0) %v", c.Dim(), c.At(0))
	}
}

func TestColumnsMoveTruncate(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var c Columns
	ref := fillColumns(rng, &c, 20, 3)
	// Compact the even entries to the front, the way eviction does.
	k := 0
	for i := 0; i < len(ref); i += 2 {
		c.Move(k, i)
		k++
	}
	c.Truncate(k)
	if c.Len() != k {
		t.Fatalf("Len after Truncate = %d, want %d", c.Len(), k)
	}
	for j := 0; j < k; j++ {
		if c.At(j) != ref[2*j] {
			t.Fatalf("compacted entry %d = %v, want %v", j, c.At(j), ref[2*j])
		}
	}
}

// TestColumnsApproxDominatedByMatchesReference pins the batch admission
// kernel to the per-Vector loop it replaces, across every dimension and
// the α range the engine uses (exact, coarse, and the +Inf shed probe).
func TestColumnsApproxDominatedByMatchesReference(t *testing.T) {
	for dim := 1; dim <= MaxMetrics; dim++ {
		for _, alpha := range []float64{1, 1.5, 2, 25, math.Inf(1)} {
			rng := rand.New(rand.NewPCG(uint64(dim)*100+uint64(math.Min(alpha, 99)), 3))
			var c Columns
			ref := fillColumns(rng, &c, 200, dim)
			for probe := 0; probe < 500; probe++ {
				v := colRandVec(rng, dim)
				if probe%5 == 0 {
					v = ref[rng.IntN(len(ref))] // exact member: ties matter
				}
				want := false
				for _, e := range ref {
					if e.ApproxDominates(v, alpha) {
						want = true
						break
					}
				}
				if got := c.ApproxDominatedBy(v, alpha); got != want {
					t.Fatalf("dim %d α=%g: ApproxDominatedBy(%v) = %v, reference %v",
						dim, alpha, v, got, want)
				}
			}
		}
	}
}

// TestColumnsDominatesAnyMatchesReference pins the eviction pre-check to
// the per-Vector weak-dominance loop.
func TestColumnsDominatesAnyMatchesReference(t *testing.T) {
	for dim := 1; dim <= MaxMetrics; dim++ {
		rng := rand.New(rand.NewPCG(uint64(dim), 11))
		var c Columns
		ref := fillColumns(rng, &c, 200, dim)
		for probe := 0; probe < 500; probe++ {
			v := colRandVec(rng, dim)
			if probe%5 == 0 {
				v = ref[rng.IntN(len(ref))]
			}
			want := false
			for _, e := range ref {
				if v.Dominates(e) {
					want = true
					break
				}
			}
			if got := c.DominatesAny(v); got != want {
				t.Fatalf("dim %d: DominatesAny(%v) = %v, reference %v", dim, v, got, want)
			}
		}
	}
}

func TestColumnsEmptyBlock(t *testing.T) {
	var c Columns
	if c.ApproxDominatedBy(New(1), 2) {
		t.Error("empty block approximately dominates")
	}
	if c.DominatesAny(New(1)) {
		t.Error("probe dominates an entry of an empty block")
	}
}

// benchFillColumns builds an n-entry block (plus the AoS mirror) whose
// entries form a realistic frontier: mutually hard to dominate, so the
// sweeps usually scan the whole block the way a failed admission probe
// does.
func benchFillColumns(n, dim int) (*Columns, []Vector) {
	rng := rand.New(rand.NewPCG(uint64(n)*uint64(dim), 23))
	var c Columns
	ref := make([]Vector, n)
	for i := range ref {
		ref[i] = colRandVec(rng, dim)
		c.Append(ref[i])
	}
	return &c, ref
}

// benchProbes draws a realistic probe mix: mostly fresh vectors (some
// dominated, some not, some incomparable) plus exact members.
func benchProbes(n, dim int) []Vector {
	rng := rand.New(rand.NewPCG(uint64(dim), 29))
	probes := make([]Vector, n)
	for i := range probes {
		probes[i] = colRandVec(rng, dim)
	}
	return probes
}

// BenchmarkDominatesColumns measures the batch admission kernel — one
// ApproxDominatedBy sweep over a 256-entry block — per dimension. The
// matching AoS arms in BenchmarkDominatesVectors run the per-Vector
// loop the kernel replaced, over the same data.
func BenchmarkDominatesColumns(b *testing.B) {
	for _, dim := range []int{2, 3} {
		b.Run(map[int]string{2: "2d", 3: "3d"}[dim], func(b *testing.B) {
			c, _ := benchFillColumns(256, dim)
			probes := benchProbes(64, dim)
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				if c.ApproxDominatedBy(probes[i%len(probes)], 2) {
					hits++
				}
			}
			sinkBool = hits > 0
		})
	}
}

// BenchmarkDominatesVectors is the AoS reference arm for
// BenchmarkDominatesColumns: identical probes, identical frontier, but
// swept through the per-Vector ApproxDominates loop.
func BenchmarkDominatesVectors(b *testing.B) {
	for _, dim := range []int{2, 3} {
		b.Run(map[int]string{2: "2d", 3: "3d"}[dim], func(b *testing.B) {
			_, ref := benchFillColumns(256, dim)
			probes := benchProbes(64, dim)
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				v := probes[i%len(probes)]
				for _, e := range ref {
					if e.ApproxDominates(v, 2) {
						hits++
						break
					}
				}
			}
			sinkBool = hits > 0
		})
	}
}

var sinkBool bool
