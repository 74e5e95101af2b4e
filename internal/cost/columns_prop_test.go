package cost

import (
	"math"
	"math/rand/v2"
	"testing"
)

// refBlock is the per-vector reference a Columns block must answer
// like: its entries in append order and its dimension.
type refBlock struct {
	vecs []Vector
	dim  int8
}

// checkAgainstRef compares every observable of c with the reference:
// length, dimension, each entry, and both kernels on a probe mix of
// fresh vectors and exact members at exact, coarse and infinite α.
func checkAgainstRef(t *testing.T, rng *rand.Rand, c *Columns, ref *refBlock, step int, op string) {
	t.Helper()
	if c.Len() != len(ref.vecs) {
		t.Fatalf("step %d (%s): Len = %d, reference %d", step, op, c.Len(), len(ref.vecs))
	}
	if len(ref.vecs) > 0 && c.Dim() != int(ref.dim) {
		t.Fatalf("step %d (%s): Dim = %d, reference %d", step, op, c.Dim(), ref.dim)
	}
	for i, v := range ref.vecs {
		if c.At(i) != v {
			t.Fatalf("step %d (%s): At(%d) = %v, reference %v", step, op, i, c.At(i), v)
		}
	}
	if len(ref.vecs) == 0 {
		return
	}
	for probe := 0; probe < 8; probe++ {
		v := colRandVec(rng, int(ref.dim))
		if probe%3 == 0 {
			v = ref.vecs[rng.IntN(len(ref.vecs))]
		}
		for _, alpha := range []float64{1, 1.5, math.Inf(1)} {
			want := false
			for _, e := range ref.vecs {
				if e.ApproxDominates(v, alpha) {
					want = true
					break
				}
			}
			if got := c.ApproxDominatedBy(v, alpha); got != want {
				t.Fatalf("step %d (%s): ApproxDominatedBy(%v, %g) = %v, reference %v", step, op, v, alpha, got, want)
			}
		}
		want := false
		for _, e := range ref.vecs {
			if v.Dominates(e) {
				want = true
				break
			}
		}
		if got := c.DominatesAny(v); got != want {
			t.Fatalf("step %d (%s): DominatesAny(%v) = %v, reference %v", step, op, v, got, want)
		}
	}
}

// TestColumnsMatchVectorReference runs random sequences of every
// mutating operation at dimensions 1–3 against a []Vector reference,
// checking all observables after each operation. Each seed starts with
// an append-only prefix of more than 64 entries, so every block grows
// through the size classes up to there by construction: in the random
// mix that follows, truncates, resets and reserves keep blocks short.
// Appends dominate the mix; the test also fails if the seeds never
// reach one of the cases the block layout makes delicate (see the
// covered keys).
func TestColumnsMatchVectorReference(t *testing.T) {
	covered := map[string]bool{}
	for seed := uint64(0); seed < 256; seed++ {
		rng := rand.New(rand.NewPCG(seed, 97))
		var c Columns
		ref := refBlock{dim: int8(1 + rng.IntN(MaxMetrics))}
		reserved := -1 // capacity the last ReserveIn gave, -1 when none
		// chunk holds the last ReserveIn window between two guard runs of
		// sentinels the block must never overwrite.
		var chunk []float64
		const guard = 3
		sentinel := math.Float64frombits(0x7ff8dead0000beef)
		for i, prefix := 0, 65+rng.IntN(16); i < prefix; i++ {
			v := colRandVec(rng, int(ref.dim))
			c.Append(v)
			ref.vecs = append(ref.vecs, v)
			if len(ref.vecs) > 64 {
				covered["growth past 64 entries"] = true
			}
			checkAgainstRef(t, rng, &c, &ref, i, "prefix Append")
		}
		for step := 0; step < 400; step++ {
			n := len(ref.vecs)
			var op string
			switch r := rng.IntN(100); {
			case r < 60:
				op = "Append"
				v := colRandVec(rng, int(ref.dim))
				c.Append(v)
				ref.vecs = append(ref.vecs, v)
				if reserved >= 0 && len(ref.vecs) > reserved {
					covered["append past a window"] = true
					reserved = -1
				}
				if len(ref.vecs) > 64 {
					covered["growth past 64 entries"] = true
				}
			case r < 70 && n > 0:
				op = "Move"
				dst, src := rng.IntN(n), rng.IntN(n)
				c.Move(dst, src)
				ref.vecs[dst] = ref.vecs[src]
			case r < 78:
				op = "Truncate"
				k := rng.IntN(n + 1)
				c.Truncate(k)
				ref.vecs = ref.vecs[:k]
			case r < 84:
				op = "Reset"
				c.Reset()
				ref.vecs = ref.vecs[:0]
				// Switch dimension half the time: the block's stride was
				// cut for the old one, and a larger dimension fits fewer
				// entries per column into the same allocation.
				if rng.IntN(2) == 0 {
					old := ref.dim
					ref.dim = int8(1 + rng.IntN(MaxMetrics))
					if ref.dim > old && n > 0 {
						covered["reset then a larger dimension"] = true
					}
				}
				reserved = -1
			case r < 90:
				op = "ReserveIn"
				ref.dim = int8(1 + rng.IntN(MaxMetrics))
				reserved = rng.IntN(20)
				ref.vecs = ref.vecs[:0]
				w := int(ref.dim) * reserved
				chunk = make([]float64, guard+w+guard)
				for i := range chunk {
					chunk[i] = sentinel
				}
				c.ReserveIn(ref.dim, chunk[guard:guard+w:guard+w])
			default:
				op = "AppendColumns"
				var src Columns
				add := fillColumns(rng, &src, rng.IntN(12), int(ref.dim))
				if len(add) > 0 {
					if n == 0 {
						covered["AppendColumns into an empty block"] = true
					} else {
						covered["AppendColumns into a non-empty block"] = true
					}
				}
				c.AppendColumns(&src)
				ref.vecs = append(ref.vecs, add...)
			}
			checkAgainstRef(t, rng, &c, &ref, step, op)
			for i := range chunk {
				if (i < guard || i >= len(chunk)-guard) && math.Float64bits(chunk[i]) != math.Float64bits(sentinel) {
					t.Fatalf("step %d (%s): the block wrote %v outside its window, at chunk slot %d", step, op, chunk[i], i)
				}
			}
		}
	}
	for _, want := range []string{
		"growth past 64 entries",
		"append past a window",
		"AppendColumns into an empty block",
		"AppendColumns into a non-empty block",
		"reset then a larger dimension",
	} {
		if !covered[want] {
			t.Errorf("the seeds never covered %q", want)
		}
	}
}

// TestColumnsGrowthAllocsIndependentOfDim pins the one-block layout:
// filling a fresh block to n entries costs the same number of
// allocations at every dimension. A block growing one column per
// metric would allocate dim times as often.
func TestColumnsGrowthAllocsIndependentOfDim(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 9, 33, 100, 1000} {
		var vecs [MaxMetrics + 1][]Vector
		for dim := 1; dim <= MaxMetrics; dim++ {
			vecs[dim] = fillColumns(rand.New(rand.NewPCG(uint64(n), 3)), new(Columns), n, dim)
		}
		allocs := func(dim int) float64 {
			return testing.AllocsPerRun(20, func() {
				var c Columns
				for _, v := range vecs[dim] {
					c.Append(v)
				}
			})
		}
		want := allocs(1)
		for dim := 2; dim <= MaxMetrics; dim++ {
			if got := allocs(dim); got != want {
				t.Errorf("n=%d: filling a block costs %v allocations at dim %d, %v at dim 1", n, got, dim, want)
			}
		}
	}
}
