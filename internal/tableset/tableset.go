// Package tableset provides a compact value-type bitset over query tables.
//
// A query in the paper's formal model is a set of tables to be joined
// (Section 3); every plan node is associated with the set of tables it
// joins (p.rel). Sets of up to 128 tables are supported, which covers the
// paper's largest experiments (100-table queries) with headroom. The zero
// value is the empty set. Set values are comparable and therefore usable
// as map keys, which is what the plan cache (P[rel]) and the dynamic
// programming baseline rely on.
package tableset

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxTables is the largest table index (exclusive) a Set can hold.
const MaxTables = 128

// Set is a set of table indices in [0, MaxTables). It is a small value
// type: copy it freely, compare it with ==.
type Set struct {
	lo, hi uint64
}

// Empty returns the empty set.
func Empty() Set { return Set{} }

// Single returns the set containing exactly table t.
//
//rmq:hotpath
func Single(t int) Set {
	checkIndex(t)
	if t < 64 {
		return Set{lo: 1 << uint(t)}
	}
	return Set{hi: 1 << uint(t-64)}
}

// FromSlice builds a set from the given table indices.
func FromSlice(tables []int) Set {
	var s Set
	for _, t := range tables {
		s = s.Add(t)
	}
	return s
}

// Range returns the set {0, 1, ..., n-1}.
func Range(n int) Set {
	if n < 0 || n > MaxTables {
		panic(fmt.Sprintf("tableset: Range(%d) out of bounds", n))
	}
	var s Set
	switch {
	case n == 0:
	case n <= 64:
		s.lo = allOnes(n)
	default:
		s.lo = ^uint64(0)
		s.hi = allOnes(n - 64)
	}
	return s
}

func allOnes(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

func checkIndex(t int) {
	if t < 0 || t >= MaxTables {
		panic(fmt.Sprintf("tableset: table index %d out of bounds [0, %d)", t, MaxTables)) //rmq:allow-alloc(allocates only while crashing on an index bug)
	}
}

// Add returns the set with table t added.
//
//rmq:hotpath
func (s Set) Add(t int) Set {
	checkIndex(t)
	if t < 64 {
		s.lo |= 1 << uint(t)
	} else {
		s.hi |= 1 << uint(t-64)
	}
	return s
}

// Remove returns the set with table t removed.
func (s Set) Remove(t int) Set {
	checkIndex(t)
	if t < 64 {
		s.lo &^= 1 << uint(t)
	} else {
		s.hi &^= 1 << uint(t-64)
	}
	return s
}

// Contains reports whether table t is in the set.
//
//rmq:hotpath
func (s Set) Contains(t int) bool {
	checkIndex(t)
	if t < 64 {
		return s.lo&(1<<uint(t)) != 0
	}
	return s.hi&(1<<uint(t-64)) != 0
}

// Union returns s ∪ o.
//
//rmq:hotpath
func (s Set) Union(o Set) Set { return Set{lo: s.lo | o.lo, hi: s.hi | o.hi} }

// Intersect returns s ∩ o.
func (s Set) Intersect(o Set) Set { return Set{lo: s.lo & o.lo, hi: s.hi & o.hi} }

// Minus returns s \ o.
func (s Set) Minus(o Set) Set { return Set{lo: s.lo &^ o.lo, hi: s.hi &^ o.hi} }

// Disjoint reports whether s and o share no tables.
func (s Set) Disjoint(o Set) bool { return s.lo&o.lo == 0 && s.hi&o.hi == 0 }

// SubsetOf reports whether every table of s is in o.
func (s Set) SubsetOf(o Set) bool { return s.lo&^o.lo == 0 && s.hi&^o.hi == 0 }

// IsEmpty reports whether the set has no tables.
//
//rmq:hotpath
func (s Set) IsEmpty() bool { return s.lo == 0 && s.hi == 0 }

// Hash64 returns a well-mixed 64-bit hash of the set, for callers
// maintaining their own open-addressed tables keyed by sets.
//
//rmq:hotpath
func (s Set) Hash64() uint64 {
	h := s.lo*0x9e3779b97f4a7c15 ^ (s.hi*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// Words returns the set's two 64-bit words (tables 0–63 in lo, 64–127
// in hi) for serializers and word-at-a-time walks. FromWords is the
// inverse.
//
//rmq:hotpath
func (s Set) Words() (lo, hi uint64) { return s.lo, s.hi }

// FromWords rebuilds a set from the words returned by Words.
func FromWords(lo, hi uint64) Set { return Set{lo: lo, hi: hi} }

// Count returns the number of tables in the set.
//
//rmq:hotpath
func (s Set) Count() int { return bits.OnesCount64(s.lo) + bits.OnesCount64(s.hi) }

// Min returns the smallest table index in the set. It panics on the empty
// set.
func (s Set) Min() int {
	if s.lo != 0 {
		return bits.TrailingZeros64(s.lo)
	}
	if s.hi != 0 {
		return 64 + bits.TrailingZeros64(s.hi)
	}
	panic("tableset: Min of empty set")
}

// Tables returns the table indices in ascending order.
func (s Set) Tables() []int {
	out := make([]int, 0, s.Count())
	for lo := s.lo; lo != 0; lo &= lo - 1 {
		out = append(out, bits.TrailingZeros64(lo))
	}
	for hi := s.hi; hi != 0; hi &= hi - 1 {
		out = append(out, 64+bits.TrailingZeros64(hi))
	}
	return out
}

// ForEach calls fn for every table index in ascending order.
//
//rmq:hotpath
func (s Set) ForEach(fn func(t int)) {
	for lo := s.lo; lo != 0; lo &= lo - 1 {
		fn(bits.TrailingZeros64(lo))
	}
	for hi := s.hi; hi != 0; hi &= hi - 1 {
		fn(64 + bits.TrailingZeros64(hi))
	}
}

// String renders the set as "{t0,t1,...}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(t int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", t)
	})
	b.WriteByte('}')
	return b.String()
}

// SubsetsOf enumerates every non-empty proper subset of s that contains
// s.Min(), calling fn with the subset and its complement within s. This is
// the canonical way to enumerate unordered two-way partitions of a table
// set exactly once each, as needed by the dynamic programming baseline.
// Enumeration stops early if fn returns false. SubsetsOf reports whether
// the enumeration ran to completion.
//
// Only sets confined to the low 64 tables are supported (the DP baseline
// is only feasible for small queries anyway); it panics otherwise.
func (s Set) SubsetsOf(fn func(left, right Set) bool) bool {
	if s.hi != 0 {
		panic("tableset: SubsetsOf requires tables < 64")
	}
	if s.Count() < 2 {
		return true
	}
	anchor := uint64(1) << uint(bits.TrailingZeros64(s.lo))
	rest := s.lo &^ anchor
	// Enumerate all subsets of rest (including empty, excluding rest
	// itself to keep both sides non-empty... the anchor side always has
	// the anchor, so "left" ranges over anchor ∪ (subset of rest) with
	// subset ≠ rest).
	for sub := (rest - 1) & rest; ; sub = (sub - 1) & rest {
		left := Set{lo: anchor | sub}
		right := Set{lo: rest &^ sub}
		if !fn(left, right) {
			return false
		}
		if sub == 0 {
			break
		}
	}
	return true
}
