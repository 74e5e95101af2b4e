package cost

import (
	"fmt"
	"math"
)

// Columns is a struct-of-arrays mirror of a sequence of cost Vectors:
// one column-major []float64 block holding one column per metric,
// parallel to append order. Column d occupies buf[d·stride : d·stride+n],
// so every column has the same capacity (stride) and the whole block is
// one allocation. Batch dominance kernels sweep these columns instead of
// chasing a pointer per plan, so an admission probe against an n-plan
// frontier touches n consecutive doubles per metric — the layout the
// compiler can keep in cache lines and vector registers.
//
// The block grows by doubling its stride. A growth step allocates
// dim·stride doubles and hands the allocator's size-class slack to the
// columns (stride = cap/dim), so a block costs one allocation per growth
// step whatever its dimension, not one per metric.
//
// The dimension is fixed by the first Append into an empty block; every
// later Append must match it (buckets hold plans of one dimension, so
// in practice the dimension is chosen once per bucket). Kernels
// dispatch on that stored dimension once per sweep — via dim1..dim3
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
	buf    []float64 // len(buf) == cap(buf) ≥ dim·stride
	n      int32
	stride int32
	dim    int8
}

// firstStride is the per-column capacity a block's first growth step
// asks for (the size class may round it up). Most buckets hold one to
// three plans per output class, so a larger first block would cost more
// heap than the growth steps it saves.
const firstStride = 1

// Len returns the number of entries in the block.
//
//rmq:hotpath
func (c *Columns) Len() int { return int(c.n) }

// Dim returns the block's metric dimension (0 when never appended to).
//
//rmq:hotpath
func (c *Columns) Dim() int { return int(c.dim) }

// from returns the block from column d on. The kernels cut every column
// after the first to the first one's length, so the sweeps slice column
// 0 to n entries and pass the others as from(d): one bounds check each.
//
//rmq:hotpath
func (c *Columns) from(d int) []float64 { return c.buf[d*int(c.stride):] }

// Reset empties the block, keeping its allocation for reuse.
//
//rmq:hotpath
func (c *Columns) Reset() { c.n = 0 }

// setDim fixes the dimension of an empty block and re-cuts its
// allocation into columns of that dimension: a block emptied by Reset
// keeps its allocation, but the stride it had was sized for the old
// dimension.
//
//rmq:hotpath
func (c *Columns) setDim(dim int8) {
	c.dim, c.stride = dim, 0
	if dim > 0 {
		c.stride = int32(len(c.buf) / int(dim))
	}
}

// grow moves the block's entries into a fresh allocation with room for
// at least want entries per column. The allocator rounds the request up
// to its size class, and the slack goes to every column.
//
//rmq:hotpath
func (c *Columns) grow(want int) {
	dim, n := int(c.dim), int(c.n)
	buf := append([]float64(nil), make([]float64, dim*want)...) //rmq:allow-alloc(one allocation per growth step of a class's block; the stride doubles, so growth is amortized)
	buf = buf[:cap(buf)]
	stride := len(buf) / dim
	for d := 0; d < dim; d++ {
		copy(buf[d*stride:], c.from(d)[:n])
	}
	c.buf, c.stride = buf, int32(stride)
}

// Append adds one vector at the end of the block. The first append into
// an empty block fixes the dimension.
//
//rmq:hotpath
func (c *Columns) Append(v Vector) {
	if c.n == 0 {
		c.setDim(v.N)
	} else if v.N != c.dim {
		panic(fmt.Sprintf("cost: Columns dimension mismatch %d vs %d", v.N, c.dim)) //rmq:allow-alloc(allocates only while crashing on a dimension bug)
	}
	if c.n == c.stride && c.dim > 0 {
		c.grow(max(2*int(c.n), firstStride))
	}
	n, s := int(c.n), int(c.stride)
	for d := 0; d < int(c.dim); d++ {
		c.buf[d*s+n] = v.V[d]
	}
	c.n++
}

// At reconstructs the i-th entry as a Vector.
//
//rmq:hotpath
func (c *Columns) At(i int) Vector {
	var v Vector
	v.N = c.dim
	s := int(c.stride)
	for d := 0; d < int(c.dim); d++ {
		v.V[d] = c.buf[d*s+i]
	}
	return v
}

// Move copies entry src over entry dst. Eviction sweeps use it to
// compact surviving entries in place, in lockstep with the plan slice
// the block mirrors.
//
//rmq:hotpath
func (c *Columns) Move(dst, src int) {
	s := int(c.stride)
	for d := 0; d < int(c.dim); d++ {
		c.buf[d*s+dst] = c.buf[d*s+src]
	}
}

// Truncate shortens the block to n entries, keeping capacity.
//
//rmq:hotpath
func (c *Columns) Truncate(n int) { c.n = int32(n) }

// ReserveIn empties the block and makes window its allocation: room
// for len(window)/dim entries of dimension dim. Bulk builds (snapshot
// import, a warm start's bucket adoption) size each block once this
// way, so the appends that follow never reallocate. The block writes
// only inside the window's length and moves to an allocation of its own
// when it outgrows it, so the windows of many blocks can be carved from
// one chunk; cut each with cap equal to len. It fixes the dimension,
// exactly as the first Append would.
//
//rmq:hotpath
func (c *Columns) ReserveIn(dim int8, window []float64) {
	c.buf = window[:len(window):len(window)]
	c.n = 0
	c.setDim(dim)
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
		c.setDim(src.dim)
	} else if src.dim != c.dim {
		panic(fmt.Sprintf("cost: Columns dimension mismatch %d vs %d", src.dim, c.dim)) //rmq:allow-alloc(allocates only while crashing on a dimension bug)
	}
	n, m := int(c.n), int(src.n)
	if c.dim > 0 && n+m > int(c.stride) {
		c.grow(max(n+m, 2*n))
	}
	s := int(c.stride)
	for d := 0; d < int(c.dim); d++ {
		copy(c.buf[d*s+n:], src.from(d)[:m])
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
	n := int(c.n)
	if math.IsInf(alpha, 1) {
		return n > 0
	}
	switch c.dim {
	case 1:
		return anyLE1(c.buf[:n], alpha*v.V[0])
	case 2:
		return anyLE2(c.buf[:n], c.from(1), alpha*v.V[0], alpha*v.V[1])
	case 3:
		return anyLE3(c.buf[:n], c.from(1), c.from(2),
			alpha*v.V[0], alpha*v.V[1], alpha*v.V[2])
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
	n := int(c.n)
	switch c.dim {
	case 1:
		return anyGE1(c.buf[:n], v.V[0])
	case 2:
		return anyGE2(c.buf[:n], c.from(1), v.V[0], v.V[1])
	case 3:
		return anyGE3(c.buf[:n], c.from(1), c.from(2), v.V[0], v.V[1], v.V[2])
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
