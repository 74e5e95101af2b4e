// Package plan defines the physical query plan model of the paper's
// formal framework (Section 3): bushy binary trees of scan and join
// operators over a set of base tables.
//
// A plan is either ScanPlan(table, scanOp) or JoinPlan(outer, inner,
// joinOp). Every plan carries the set of tables it joins (p.rel), its
// estimated output cardinality, its cost vector, and its output data
// representation. The representation (pipelined stream vs. materialized
// temp) is the "output data format" that Algorithms 2 and 3 key their
// pruning on via SameOutput: plans with different representations are
// incomparable because the representation affects the applicability and
// cost of operators higher up in the tree (e.g. block-nested-loop join
// must be able to rescan its inner input).
package plan

import (
	"fmt"
	"strings"

	"rmq/internal/cost"
	"rmq/internal/tableset"
)

// OutputProp is the data representation a plan produces.
type OutputProp uint8

const (
	// Pipelined output is a one-pass stream of tuples.
	Pipelined OutputProp = iota
	// Materialized output resides in storage and can be rescanned. Base
	// table scans are materialized by definition; joins produce
	// materialized output only via their Mat variants, paying write time
	// and temp disc space.
	Materialized

	// NumOutputProps is the number of output representations.
	NumOutputProps = 2
)

// String returns the conventional name of the output property.
func (o OutputProp) String() string {
	switch o {
	case Pipelined:
		return "pipe"
	case Materialized:
		return "mat"
	default:
		return fmt.Sprintf("OutputProp(%d)", uint8(o))
	}
}

// ScanOp is a scan operator implementation.
type ScanOp uint8

const (
	// SeqScan reads the table sequentially through a small buffer.
	SeqScan ScanOp = iota
	// PinScan pins the whole table in the buffer pool, trading buffer
	// space for reduced time (the paper's footnote 2 motivates exactly
	// such operator versions with different buffer budgets).
	PinScan

	// NumScanOps is the number of scan operator implementations.
	NumScanOps = 2
)

// String returns the operator name.
func (op ScanOp) String() string {
	switch op {
	case SeqScan:
		return "SeqScan"
	case PinScan:
		return "PinScan"
	default:
		return fmt.Sprintf("ScanOp(%d)", uint8(op))
	}
}

// Output returns the representation a scan produces. Base tables are
// stored relations, so every scan output is rescannable (materialized).
func (op ScanOp) Output() OutputProp { return Materialized }

// AllScanOps lists every scan operator; ScanOps in the pseudo-code.
//
//rmq:hotpath
func AllScanOps() []ScanOp { return scanOps }

var scanOps = []ScanOp{SeqScan, PinScan}

// JoinAlg is a join algorithm family.
type JoinAlg uint8

const (
	// BNL10, BNL100 and BNL1000 are block-nested-loop joins with buffer
	// budgets of 10, 100 and 1000 pages: three "versions of the standard
	// join operators that work with different amounts of buffer space"
	// (paper, footnote 2). They must be able to rescan the inner input.
	BNL10 JoinAlg = iota
	BNL100
	BNL1000
	// Hash is an in-memory hash join: fastest, buffer-hungry.
	Hash
	// GraceHash partitions both inputs to disc first: small buffer, temp
	// disc space, higher time.
	GraceHash
	// SortMerge sorts both inputs externally and merges: moderate buffer,
	// temp disc space for sort runs.
	SortMerge

	// NumJoinAlgs is the number of join algorithm families.
	NumJoinAlgs = 6
)

// String returns the algorithm name.
func (a JoinAlg) String() string {
	switch a {
	case BNL10:
		return "BNL10"
	case BNL100:
		return "BNL100"
	case BNL1000:
		return "BNL1000"
	case Hash:
		return "Hash"
	case GraceHash:
		return "GraceHash"
	case SortMerge:
		return "SortMerge"
	default:
		return fmt.Sprintf("JoinAlg(%d)", uint8(a))
	}
}

// BufferBudget returns the buffer budget in pages for the BNL variants
// and 0 for the other algorithms (their buffer use is input-dependent).
//
//rmq:hotpath
func (a JoinAlg) BufferBudget() float64 {
	switch a {
	case BNL10:
		return 10
	case BNL100:
		return 100
	case BNL1000:
		return 1000
	default:
		return 0
	}
}

// NeedsMaterializedInner reports whether the algorithm must rescan its
// inner input and therefore requires a materialized inner plan.
func (a JoinAlg) NeedsMaterializedInner() bool {
	switch a {
	case BNL10, BNL100, BNL1000:
		return true
	default:
		return false
	}
}

// JoinOp is a concrete join operator: an algorithm family plus the choice
// of whether the operator materializes its output.
type JoinOp uint8

// NumJoinOps is the number of concrete join operators (every algorithm in
// a pipelining and a materializing variant).
const NumJoinOps = NumJoinAlgs * 2

// MakeJoinOp builds the operator for an algorithm and a materialization
// choice.
//
//rmq:hotpath
func MakeJoinOp(alg JoinAlg, materialize bool) JoinOp {
	op := JoinOp(alg) << 1
	if materialize {
		op |= 1
	}
	return op
}

// Alg returns the algorithm family of the operator.
//
//rmq:hotpath
func (op JoinOp) Alg() JoinAlg { return JoinAlg(op >> 1) }

// Materializes reports whether the operator writes its output to a temp
// so downstream operators can rescan it.
//
//rmq:hotpath
func (op JoinOp) Materializes() bool { return op&1 == 1 }

// Output returns the representation the operator produces.
//
//rmq:hotpath
func (op JoinOp) Output() OutputProp {
	if op.Materializes() {
		return Materialized
	}
	return Pipelined
}

// String returns the operator name, with a "+Mat" suffix for the
// materializing variants.
func (op JoinOp) String() string {
	if op.Materializes() {
		return op.Alg().String() + "+Mat"
	}
	return op.Alg().String()
}

// joinOpsByInner[innerOutput] lists the operators applicable when the
// inner input has the given representation; JoinOps in the pseudo-code.
var joinOpsByInner [NumOutputProps][]JoinOp

// joinOpsByInnerOut[innerOutput][opOutput] further splits the
// applicable operators by the representation they produce, preserving
// the relative order of joinOpsByInner. Admission pre-filters that have
// ruled out one output representation price only the other's slice.
var joinOpsByInnerOut [NumOutputProps][NumOutputProps][]JoinOp

func init() {
	for alg := JoinAlg(0); alg < NumJoinAlgs; alg++ {
		for _, mat := range []bool{false, true} {
			op := MakeJoinOp(alg, mat)
			joinOpsByInner[Materialized] = append(joinOpsByInner[Materialized], op)
			joinOpsByInnerOut[Materialized][op.Output()] = append(joinOpsByInnerOut[Materialized][op.Output()], op)
			if !alg.NeedsMaterializedInner() {
				joinOpsByInner[Pipelined] = append(joinOpsByInner[Pipelined], op)
				joinOpsByInnerOut[Pipelined][op.Output()] = append(joinOpsByInnerOut[Pipelined][op.Output()], op)
			}
		}
	}
}

// JoinOps returns the join operators applicable to the given outer and
// inner input plans (the JoinOps(outer, inner) of Algorithm 3). The
// returned slice is shared; callers must not modify it.
func JoinOps(outer, inner *Plan) []JoinOp {
	return joinOpsByInner[inner.Output]
}

// JoinOpsFor returns the operators applicable for an inner input with the
// given representation. The returned slice is shared and must not be
// modified.
//
//rmq:hotpath
func JoinOpsFor(inner OutputProp) []JoinOp { return joinOpsByInner[inner] }

// JoinOpsProducing returns the operators applicable for an inner input
// with the given representation that produce output representation out,
// in JoinOpsFor order. The returned slice is shared and must not be
// modified.
func JoinOpsProducing(inner, out OutputProp) []JoinOp { return joinOpsByInnerOut[inner][out] }

// Plan is an immutable physical plan node. Scan plans have Outer == nil;
// join plans have both children set. Plans are shared freely (the plan
// cache aliases sub-plans across plans), so they must never be mutated
// after construction — transformations build new nodes instead.
type Plan struct {
	// The field order packs the node into 88 bytes on 64-bit platforms,
	// inside the 96-byte allocation size class: the fields of a word or
	// more come first and the small ones share the last word, with no
	// padding between. TestPlanNodeSize pins it.

	// Rel is the set of tables joined by the plan (p.rel).
	Rel tableset.Set
	// Cost is the plan's cost vector under the run's cost model.
	Cost cost.Vector
	// Card is the estimated output cardinality in rows.
	Card float64

	// Outer and Inner are the children of join plans (nil for scans).
	Outer *Plan
	Inner *Plan

	// Table is the scanned table of scan plans.
	Table int

	// RelID is the interned id of Rel under the constructing cost model's
	// interner (see costmodel.Model.Interner). The plan cache indexes its
	// buckets by it, avoiding a hash of Rel on every probe, so every plan
	// entering a cache carries it; the zero ID names no set. Random plans
	// and climbing moves leave it zero: a plan gets its ids when it leaves
	// stage A of an RMQ iteration, as the climber returns it.
	RelID tableset.ID
	// Output is the data representation the plan produces.
	Output OutputProp

	// Scan is the operator of scan plans (when Outer == nil); Join is
	// the operator of join plans.
	Scan ScanOp
	Join JoinOp

	// Aux is scratch bookkeeping space for optimizers operating on
	// mutable Scratch-owned nodes (the climbing hot path marks
	// known-unimprovable subtrees here). It has no defined meaning on
	// immutable plans: Scratch.Import and Scratch.Freeze both reset it.
	Aux uint8
}

// IsJoin reports whether the plan is a join plan (p.isJoin); scan plans
// join exactly one table.
//
//rmq:hotpath
func (p *Plan) IsJoin() bool { return p.Outer != nil }

// SameOutput reports whether two plans produce the same output data
// representation (the SameOutput test of Algorithms 2 and 3). Plans for
// different table sets are never compared; callers group by Rel first.
//
//rmq:hotpath
func SameOutput(p1, p2 *Plan) bool { return p1.Output == p2.Output }

// String renders the plan as a nested expression, e.g.
// "Hash(SeqScan(t0), BNL100+Mat(...))".
func (p *Plan) String() string {
	var b strings.Builder
	p.render(&b)
	return b.String()
}

func (p *Plan) render(b *strings.Builder) {
	if !p.IsJoin() {
		fmt.Fprintf(b, "%s(t%d)", p.Scan, p.Table)
		return
	}
	b.WriteString(p.Join.String())
	b.WriteByte('(')
	p.Outer.render(b)
	b.WriteString(", ")
	p.Inner.render(b)
	b.WriteByte(')')
}

// NumNodes returns the number of nodes in the plan tree (2n-1 for a plan
// joining n tables).
func (p *Plan) NumNodes() int {
	if !p.IsJoin() {
		return 1
	}
	return 1 + p.Outer.NumNodes() + p.Inner.NumNodes()
}

// Validate checks structural invariants of the plan tree: children join
// disjoint table sets, Rel is the union of the children's sets, scan
// plans join exactly one table, and every join operator is applicable to
// its inner input's representation. It returns the first violation found.
func (p *Plan) Validate() error {
	if !p.IsJoin() {
		if p.Inner != nil {
			return fmt.Errorf("scan plan with inner child: %v", p)
		}
		if p.Rel.Count() != 1 || !p.Rel.Contains(p.Table) {
			return fmt.Errorf("scan plan rel %v does not match table %d", p.Rel, p.Table)
		}
		if p.Output != p.Scan.Output() {
			return fmt.Errorf("scan plan output %v does not match operator %v", p.Output, p.Scan)
		}
		return nil
	}
	if p.Inner == nil {
		return fmt.Errorf("join plan without inner child: %v", p)
	}
	if err := p.Outer.Validate(); err != nil {
		return err
	}
	if err := p.Inner.Validate(); err != nil {
		return err
	}
	if !p.Outer.Rel.Disjoint(p.Inner.Rel) {
		return fmt.Errorf("join children overlap: %v and %v", p.Outer.Rel, p.Inner.Rel)
	}
	if p.Rel != p.Outer.Rel.Union(p.Inner.Rel) {
		return fmt.Errorf("join rel %v is not the union of %v and %v", p.Rel, p.Outer.Rel, p.Inner.Rel)
	}
	if p.Join.Alg().NeedsMaterializedInner() && p.Inner.Output != Materialized {
		return fmt.Errorf("join %v requires materialized inner, got %v", p.Join, p.Inner.Output)
	}
	if p.Output != p.Join.Output() {
		return fmt.Errorf("join plan output %v does not match operator %v", p.Output, p.Join)
	}
	return nil
}
