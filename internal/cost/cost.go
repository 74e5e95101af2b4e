// Package cost implements plan cost vectors and the Pareto dominance
// relations of the paper's formal model (Section 3).
//
// A plan's cost is a vector with one component per cost metric; lower is
// always better. Plan p1 dominates p2 (p1 ⪯ p2) if p1 is no worse in every
// metric; p1 strictly dominates p2 (p1 ≺ p2) if additionally the vectors
// differ. p1 approximately dominates p2 with factor α ≥ 1 (p1 ⪯α p2) if
// p1 ≤ α·p2 component-wise. The α-approximate Pareto set and the
// ε-indicator-style quality metric of Section 6.1 are built on these
// relations (see internal/quality).
//
// Besides the scalar Vector relations the package provides Columns, a
// struct-of-arrays block (one column-major []float64 allocation holding
// a column per metric, parallel to append order) with batch forms of
// two of them: ApproxDominatedBy
// (the admission test of Algorithm 3) and DominatesAny (the eviction
// pre-check) each sweep a whole frontier per call. The kernels dispatch
// once per sweep on the block's fixed dimension (specialized loops for
// 1–4 metrics with the α·vᵢ bounds hoisted) and decide bit-identically
// to the per-Vector loops — the plan cache's admission path is that one
// sweep, built on that equivalence.
package cost

import (
	"fmt"
	"math"
	"strings"
)

// MaxMetrics is the largest number of cost metrics supported: the
// paper's three (time, buffer space, disc space), all the cost model
// defines. Vectors are fixed-size arrays so they are comparable value
// types and allocation-free.
const MaxMetrics = 3

// Saturation is the largest representable cost component. Cardinalities of
// 100-table cross products overflow float64, so the cost model saturates
// here; dominance and ratio computations remain well defined.
const Saturation = 1e250

// Vector is a plan cost vector. Only the first Dim(ension) components are
// meaningful; the rest must be zero. The zero value is a zero-cost vector
// of dimension 0.
type Vector struct {
	V [MaxMetrics]float64
	N int8 // number of meaningful components (the paper's l)
}

// New returns a vector with the given components.
func New(components ...float64) Vector {
	if len(components) > MaxMetrics {
		panic(fmt.Sprintf("cost: %d components exceeds MaxMetrics", len(components)))
	}
	var v Vector
	v.N = int8(len(components))
	copy(v.V[:], components)
	return v
}

// Zero returns the zero vector of dimension n.
//
//rmq:hotpath
func Zero(n int) Vector {
	if n < 0 || n > MaxMetrics {
		panic(fmt.Sprintf("cost: dimension %d out of range", n)) //rmq:allow-alloc(allocates only while crashing on a dimension bug)
	}
	return Vector{N: int8(n)}
}

// Dim returns the number of metrics in the vector.
//
//rmq:hotpath
func (v Vector) Dim() int { return int(v.N) }

// At returns the i-th component.
//
//rmq:hotpath
func (v Vector) At(i int) float64 { return v.V[i] }

// Add returns the component-wise sum, saturated at Saturation.
//
//rmq:hotpath
func (v Vector) Add(o Vector) Vector {
	v.checkDim(o)
	for i := 0; i < int(v.N); i++ {
		v.V[i] = sat(v.V[i] + o.V[i])
	}
	return v
}

// Max returns the component-wise maximum.
//
//rmq:hotpath
func (v Vector) Max(o Vector) Vector {
	v.checkDim(o)
	for i := 0; i < int(v.N); i++ {
		if o.V[i] > v.V[i] {
			v.V[i] = o.V[i]
		}
	}
	return v
}

// Min returns the component-wise minimum. Plan-cache buckets use it to
// maintain a running "corner" vector that weakly dominates every member
// — the lower bound recombination builds its admission floors on.
//
//rmq:hotpath
func (v Vector) Min(o Vector) Vector {
	v.checkDim(o)
	for i := 0; i < int(v.N); i++ {
		if o.V[i] < v.V[i] {
			v.V[i] = o.V[i]
		}
	}
	return v
}

// Scale returns the vector scaled by f ≥ 0, saturated at Saturation.
func (v Vector) Scale(f float64) Vector {
	for i := 0; i < int(v.N); i++ {
		v.V[i] = sat(v.V[i] * f)
	}
	return v
}

func (v Vector) checkDim(o Vector) {
	if v.N != o.N {
		panic(fmt.Sprintf("cost: dimension mismatch %d vs %d", v.N, o.N)) //rmq:allow-alloc(allocates only while crashing on a dimension bug)
	}
}

func sat(x float64) float64 {
	if x > Saturation {
		return Saturation
	}
	return x
}

// Sat clamps a scalar to the saturation bound. Cost models use it when
// deriving components from (potentially astronomically large) cardinality
// estimates.
//
//rmq:hotpath
func Sat(x float64) float64 { return sat(x) }

// Dominates reports v ⪯ o: v is no worse than o in every metric.
//
//rmq:hotpath
func (v Vector) Dominates(o Vector) bool {
	v.checkDim(o)
	for i := 0; i < int(v.N); i++ {
		if v.V[i] > o.V[i] {
			return false
		}
	}
	return true
}

// StrictlyDominates reports v ≺ o: v ⪯ o and v ≠ o.
//
//rmq:hotpath
func (v Vector) StrictlyDominates(o Vector) bool {
	v.checkDim(o)
	strict := false
	for i := 0; i < int(v.N); i++ {
		switch {
		case v.V[i] > o.V[i]:
			return false
		case v.V[i] < o.V[i]:
			strict = true
		}
	}
	return strict
}

// ApproxDominates reports v ⪯α o: v ≤ α·o component-wise. α must be ≥ 1;
// with α = 1 this is plain (weak) dominance. α = +Inf approximates
// everything.
//
//rmq:hotpath
func (v Vector) ApproxDominates(o Vector, alpha float64) bool {
	v.checkDim(o)
	if math.IsInf(alpha, 1) {
		return true
	}
	for i := 0; i < int(v.N); i++ {
		if v.V[i] > alpha*o.V[i] {
			return false
		}
	}
	return true
}

// Equal reports component-wise equality.
//
//rmq:hotpath
func (v Vector) Equal(o Vector) bool {
	v.checkDim(o)
	return v.V == o.V
}

// ratioFloor guards ratio computations against zero-valued components
// (e.g. a join pipeline that writes no temp pages has disc cost 0).
const ratioFloor = 1e-9

// DominationFactor returns the smallest α ≥ 1 such that v ⪯α o, i.e. the
// factor by which v would have to be discounted to approximately dominate
// o. It is the per-pair building block of the ε-indicator quality metric.
func (v Vector) DominationFactor(o Vector) float64 {
	v.checkDim(o)
	alpha := 1.0
	for i := 0; i < int(v.N); i++ {
		a := math.Max(v.V[i], ratioFloor)
		b := math.Max(o.V[i], ratioFloor)
		if r := a / b; r > alpha {
			alpha = r
		}
	}
	return alpha
}

// String renders the vector as "(c0, c1, ...)" in compact scientific
// notation.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < int(v.N); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.3g", v.V[i])
	}
	b.WriteByte(')')
	return b.String()
}
