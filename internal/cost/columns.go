package cost

import (
	"fmt"
	"math"
)

// Columns is a struct-of-arrays mirror of a sequence of cost Vectors:
// one contiguous []float64 per metric, parallel to append order. Batch
// dominance kernels sweep these columns instead of chasing a pointer
// per plan, so an admission probe against an n-plan frontier touches n
// consecutive doubles per metric — the layout the compiler can keep in
// cache lines and vector registers.
//
// The dimension is fixed by the first Append into an empty block; every
// later Append must match it (buckets hold plans of one dimension, so
// in practice the dimension is chosen once per bucket). Kernels
// dispatch on that stored dimension once per sweep — via dim1..dim4
// specializations with hoisted per-metric bounds — not once per
// element, which is what makes the inner loops a single fused
// compare-and-branch per entry.
//
// All kernels are semantics-preserving batch forms of the per-Vector
// relations in this package: for saturated (finite, ≤ Saturation)
// components the fused form max(xᵢ-bᵢ, …) ≤ 0 decides exactly the same
// predicate as the member-wise xᵢ ≤ bᵢ comparisons, because IEEE-754
// subtraction of finite doubles rounds to zero only when the operands
// are equal. Callers that admit α = +Inf must handle it before the
// sweep, exactly as Vector.ApproxDominates does.
type Columns struct {
	col [MaxMetrics][]float64
	n   int
	dim int8
}

// Len returns the number of entries in the block.
//
//rmq:hotpath
func (c *Columns) Len() int { return c.n }

// Dim returns the block's metric dimension (0 when never appended to).
//
//rmq:hotpath
func (c *Columns) Dim() int { return int(c.dim) }

// Reset empties the block, keeping capacity for reuse.
//
//rmq:hotpath
func (c *Columns) Reset() {
	for d := 0; d < int(c.dim); d++ {
		c.col[d] = c.col[d][:0]
	}
	c.n = 0
}

// Append adds one vector at the end of the block. The first append into
// an empty block fixes the dimension.
//
//rmq:hotpath
func (c *Columns) Append(v Vector) {
	if c.n == 0 {
		c.dim = v.N
	} else if v.N != c.dim {
		panic(fmt.Sprintf("cost: Columns dimension mismatch %d vs %d", v.N, c.dim)) //rmq:allow-alloc(allocates only while crashing on a dimension bug)
	}
	for d := 0; d < int(c.dim); d++ {
		c.col[d] = append(c.col[d], v.V[d]) //rmq:allow-alloc(amortized column growth, same policy as the plan slice it mirrors)
	}
	c.n++
}

// At reconstructs the i-th entry as a Vector.
//
//rmq:hotpath
func (c *Columns) At(i int) Vector {
	var v Vector
	v.N = c.dim
	for d := 0; d < int(c.dim); d++ {
		v.V[d] = c.col[d][i]
	}
	return v
}

// Move copies entry src over entry dst. Eviction sweeps use it to
// compact surviving entries in place, in lockstep with the plan slice
// the block mirrors.
//
//rmq:hotpath
func (c *Columns) Move(dst, src int) {
	for d := 0; d < int(c.dim); d++ {
		c.col[d][dst] = c.col[d][src]
	}
}

// Truncate shortens the block to n entries, keeping capacity.
//
//rmq:hotpath
func (c *Columns) Truncate(n int) {
	for d := 0; d < int(c.dim); d++ {
		c.col[d] = c.col[d][:n]
	}
	c.n = n
}

// Reserve empties the block and gives it exact capacity for n entries
// of dimension dim, in one allocation cut into one column per metric.
// Each column is capped at its own region, so an Append past n moves
// every column out together and frees the allocation. Bulk builds
// (snapshot import, a warm start's bucket adoption) reserve once so the
// appends that follow never reallocate. It fixes the dimension, exactly
// as the first Append would.
//
//rmq:hotpath
func (c *Columns) Reserve(dim int8, n int) {
	buf := make([]float64, int(dim)*n) //rmq:allow-alloc(one sized allocation per bulk-built block)
	c.dim, c.n = dim, 0
	for d := 0; d < int(dim); d++ {
		c.col[d], buf = buf[:0:n], buf[n:]
	}
}

// AppendColumns appends every entry of src, which must match the
// block's dimension unless the block is empty.
//
//rmq:hotpath
func (c *Columns) AppendColumns(src *Columns) {
	if src.n == 0 {
		return
	}
	if c.n == 0 {
		c.dim = src.dim
	} else if src.dim != c.dim {
		panic(fmt.Sprintf("cost: Columns dimension mismatch %d vs %d", src.dim, c.dim)) //rmq:allow-alloc(allocates only while crashing on a dimension bug)
	}
	for d := 0; d < int(c.dim); d++ {
		c.col[d] = append(c.col[d], src.col[d][:src.n]...) //rmq:allow-alloc(callers reserve exact capacity first; otherwise amortized growth)
	}
	c.n += src.n
}

// ApproxDominatedBy reports whether any entry approximately dominates
// v with factor alpha: ∃j ∀i colᵢ[j] ≤ α·vᵢ. It is the batch form of
// Vector.ApproxDominates with v as the right-hand side, and decides
// bit-identically to that per-entry loop: the bounds α·vᵢ are hoisted
// once (the same products the per-entry loop would compute), and with
// α = 1 the bound is vᵢ itself since 1·x == x exactly.
//
//rmq:hotpath
func (c *Columns) ApproxDominatedBy(v Vector, alpha float64) bool {
	n := c.n
	if math.IsInf(alpha, 1) {
		return n > 0
	}
	switch c.dim {
	case 1:
		return anyLE1(c.col[0][:n], alpha*v.V[0])
	case 2:
		return anyLE2(c.col[0][:n], c.col[1][:n], alpha*v.V[0], alpha*v.V[1])
	case 3:
		return anyLE3(c.col[0][:n], c.col[1][:n], c.col[2][:n],
			alpha*v.V[0], alpha*v.V[1], alpha*v.V[2])
	case 4:
		return anyLE4(c.col[0][:n], c.col[1][:n], c.col[2][:n], c.col[3][:n],
			alpha*v.V[0], alpha*v.V[1], alpha*v.V[2], alpha*v.V[3])
	}
	return n > 0 // dimension 0: every entry vacuously dominates
}

// DominatesAny reports whether v weakly dominates any entry:
// ∃j ∀i vᵢ ≤ colᵢ[j]. Eviction uses it as a pre-check — if the new
// plan dominates nothing, the per-plan strict-dominance walk is
// skipped entirely.
//
//rmq:hotpath
func (c *Columns) DominatesAny(v Vector) bool {
	n := c.n
	switch c.dim {
	case 1:
		return anyGE1(c.col[0][:n], v.V[0])
	case 2:
		return anyGE2(c.col[0][:n], c.col[1][:n], v.V[0], v.V[1])
	case 3:
		return anyGE3(c.col[0][:n], c.col[1][:n], c.col[2][:n], v.V[0], v.V[1], v.V[2])
	case 4:
		return anyGE4(c.col[0][:n], c.col[1][:n], c.col[2][:n], c.col[3][:n],
			v.V[0], v.V[1], v.V[2], v.V[3])
	}
	return n > 0
}

// The fixed-dimension sweeps below are the actual kernels: one fused
// comparison per entry, no per-element dimension branch. anyLEn reports
// ∃j ∀i xᵢ[j] ≤ bᵢ; anyGEn reports ∃j ∀i bᵢ ≤ xᵢ[j]. Both use the
// subtraction form max(x-b, …) ≤ 0, exact for the finite saturated
// components the cost model produces (bounds may be +Inf from α·x
// overflow, which subtracts to -Inf and compares correctly).

//rmq:hotpath
func anyLE1(x0 []float64, b0 float64) bool {
	for _, v := range x0 {
		if v <= b0 {
			return true
		}
	}
	return false
}

//rmq:hotpath
func anyLE2(x0, x1 []float64, b0, b1 float64) bool {
	x1 = x1[:len(x0)]
	for i, v := range x0 {
		if max(v-b0, x1[i]-b1) <= 0 {
			return true
		}
	}
	return false
}

//rmq:hotpath
func anyLE3(x0, x1, x2 []float64, b0, b1, b2 float64) bool {
	x1 = x1[:len(x0)]
	x2 = x2[:len(x0)]
	for i, v := range x0 {
		if max(v-b0, x1[i]-b1, x2[i]-b2) <= 0 {
			return true
		}
	}
	return false
}

//rmq:hotpath
func anyLE4(x0, x1, x2, x3 []float64, b0, b1, b2, b3 float64) bool {
	x1 = x1[:len(x0)]
	x2 = x2[:len(x0)]
	x3 = x3[:len(x0)]
	for i, v := range x0 {
		if max(v-b0, x1[i]-b1, x2[i]-b2, x3[i]-b3) <= 0 {
			return true
		}
	}
	return false
}

//rmq:hotpath
func anyGE1(x0 []float64, b0 float64) bool {
	for _, v := range x0 {
		if b0 <= v {
			return true
		}
	}
	return false
}

//rmq:hotpath
func anyGE2(x0, x1 []float64, b0, b1 float64) bool {
	x1 = x1[:len(x0)]
	for i, v := range x0 {
		if max(b0-v, b1-x1[i]) <= 0 {
			return true
		}
	}
	return false
}

//rmq:hotpath
func anyGE3(x0, x1, x2 []float64, b0, b1, b2 float64) bool {
	x1 = x1[:len(x0)]
	x2 = x2[:len(x0)]
	for i, v := range x0 {
		if max(b0-v, b1-x1[i], b2-x2[i]) <= 0 {
			return true
		}
	}
	return false
}

//rmq:hotpath
func anyGE4(x0, x1, x2, x3 []float64, b0, b1, b2, b3 float64) bool {
	x1 = x1[:len(x0)]
	x2 = x2[:len(x0)]
	x3 = x3[:len(x0)]
	for i, v := range x0 {
		if max(b0-v, b1-x1[i], b2-x2[i], b3-x3[i]) <= 0 {
			return true
		}
	}
	return false
}
