package plan

import (
	"strings"
	"testing"
	"unsafe"

	"rmq/internal/cost"
	"rmq/internal/tableset"
)

func scan(t int, op ScanOp) *Plan {
	return &Plan{
		Rel:    tableset.Single(t),
		Cost:   cost.New(1, 1),
		Card:   100,
		Output: op.Output(),
		Table:  t,
		Scan:   op,
	}
}

func join(op JoinOp, outer, inner *Plan) *Plan {
	return &Plan{
		Rel:    outer.Rel.Union(inner.Rel),
		Cost:   cost.New(1, 1),
		Card:   100,
		Output: op.Output(),
		Join:   op,
		Outer:  outer,
		Inner:  inner,
	}
}

func TestScanOpProperties(t *testing.T) {
	if NumScanOps != len(AllScanOps()) {
		t.Fatalf("NumScanOps = %d, AllScanOps = %d", NumScanOps, len(AllScanOps()))
	}
	for _, op := range AllScanOps() {
		if op.Output() != Materialized {
			t.Errorf("%v output = %v, want materialized (base tables are rescannable)", op, op.Output())
		}
		if op.String() == "" || strings.HasPrefix(op.String(), "ScanOp(") {
			t.Errorf("%v has no name", op)
		}
	}
}

func TestJoinOpEncoding(t *testing.T) {
	for alg := JoinAlg(0); alg < NumJoinAlgs; alg++ {
		for _, mat := range []bool{false, true} {
			op := MakeJoinOp(alg, mat)
			if op.Alg() != alg {
				t.Errorf("MakeJoinOp(%v, %v).Alg = %v", alg, mat, op.Alg())
			}
			if op.Materializes() != mat {
				t.Errorf("MakeJoinOp(%v, %v).Materializes = %v", alg, mat, op.Materializes())
			}
			wantOut := Pipelined
			if mat {
				wantOut = Materialized
			}
			if op.Output() != wantOut {
				t.Errorf("%v output = %v, want %v", op, op.Output(), wantOut)
			}
		}
	}
}

func TestJoinOpNames(t *testing.T) {
	op := MakeJoinOp(Hash, false)
	if op.String() != "Hash" {
		t.Errorf("name = %q", op.String())
	}
	op = MakeJoinOp(Hash, true)
	if op.String() != "Hash+Mat" {
		t.Errorf("name = %q", op.String())
	}
}

func TestBufferBudgets(t *testing.T) {
	want := map[JoinAlg]float64{BNL10: 10, BNL100: 100, BNL1000: 1000, Hash: 0, GraceHash: 0, SortMerge: 0}
	for alg, budget := range want {
		if got := alg.BufferBudget(); got != budget {
			t.Errorf("%v budget = %g, want %g", alg, got, budget)
		}
	}
}

func TestJoinOpsApplicability(t *testing.T) {
	matOps := JoinOpsFor(Materialized)
	pipeOps := JoinOpsFor(Pipelined)
	if len(matOps) != NumJoinOps {
		t.Errorf("materialized inner admits %d ops, want all %d", len(matOps), NumJoinOps)
	}
	for _, op := range pipeOps {
		if op.Alg().NeedsMaterializedInner() {
			t.Errorf("%v applicable to pipelined inner but needs materialized", op)
		}
	}
	// Every non-BNL op must be applicable to pipelined inners.
	wantPipe := 0
	for alg := JoinAlg(0); alg < NumJoinAlgs; alg++ {
		if !alg.NeedsMaterializedInner() {
			wantPipe += 2
		}
	}
	if len(pipeOps) != wantPipe {
		t.Errorf("pipelined inner admits %d ops, want %d", len(pipeOps), wantPipe)
	}
}

func TestJoinOpsMatchesInnerOutput(t *testing.T) {
	s0, s1 := scan(0, SeqScan), scan(1, SeqScan)
	j := join(MakeJoinOp(Hash, false), s0, s1) // pipelined output
	if got := JoinOps(s0, j); len(got) != len(JoinOpsFor(Pipelined)) {
		t.Errorf("JoinOps with pipelined inner = %d ops", len(got))
	}
	if got := JoinOps(j, s0); len(got) != len(JoinOpsFor(Materialized)) {
		t.Errorf("JoinOps with materialized inner = %d ops", len(got))
	}
}

func TestIsJoinAndSameOutput(t *testing.T) {
	s := scan(0, SeqScan)
	if s.IsJoin() {
		t.Error("scan reported as join")
	}
	j := join(MakeJoinOp(Hash, false), scan(0, SeqScan), scan(1, SeqScan))
	if !j.IsJoin() {
		t.Error("join reported as scan")
	}
	if SameOutput(s, j) {
		t.Error("materialized scan and pipelined join share output format")
	}
	if !SameOutput(s, scan(1, PinScan)) {
		t.Error("two materialized plans differ in output format")
	}
}

func TestNumNodes(t *testing.T) {
	j := join(MakeJoinOp(Hash, false),
		join(MakeJoinOp(Hash, false), scan(0, SeqScan), scan(1, SeqScan)),
		scan(2, SeqScan))
	if got := j.NumNodes(); got != 5 {
		t.Errorf("NumNodes = %d, want 5 (2·3-1)", got)
	}
	if got := scan(0, SeqScan).NumNodes(); got != 1 {
		t.Errorf("scan NumNodes = %d", got)
	}
}

func TestString(t *testing.T) {
	j := join(MakeJoinOp(BNL10, true), scan(0, SeqScan), scan(1, PinScan))
	if got := j.String(); got != "BNL10+Mat(SeqScan(t0), PinScan(t1))" {
		t.Errorf("String = %q", got)
	}
}

func TestValidateAcceptsGoodPlan(t *testing.T) {
	j := join(MakeJoinOp(BNL100, false), scan(0, SeqScan), scan(1, SeqScan))
	if err := j.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejectsOverlap(t *testing.T) {
	j := join(MakeJoinOp(Hash, false), scan(0, SeqScan), scan(0, SeqScan))
	j.Rel = tableset.Single(0)
	if err := j.Validate(); err == nil {
		t.Error("overlapping children accepted")
	}
}

func TestValidateRejectsWrongRel(t *testing.T) {
	j := join(MakeJoinOp(Hash, false), scan(0, SeqScan), scan(1, SeqScan))
	j.Rel = j.Rel.Add(5)
	if err := j.Validate(); err == nil {
		t.Error("wrong rel accepted")
	}
}

func TestValidateRejectsInapplicableBNL(t *testing.T) {
	pipeJoin := join(MakeJoinOp(Hash, false), scan(0, SeqScan), scan(1, SeqScan))
	bad := join(MakeJoinOp(BNL10, false), scan(2, SeqScan), pipeJoin)
	if err := bad.Validate(); err == nil {
		t.Error("BNL over pipelined inner accepted")
	}
}

func TestValidateRejectsWrongOutputProp(t *testing.T) {
	s := scan(0, SeqScan)
	s.Output = Pipelined
	if err := s.Validate(); err == nil {
		t.Error("scan with wrong output accepted")
	}
}

func TestValidateRejectsScanWithWrongRel(t *testing.T) {
	s := scan(0, SeqScan)
	s.Rel = tableset.FromSlice([]int{0, 1})
	if err := s.Validate(); err == nil {
		t.Error("scan with two tables accepted")
	}
}

// TestPlanNodeSize pins the plan node: stores and pooled caches retain
// one per cached plan (cache.Shared.Bytes budgets by it), so the node
// is most of a warm cache's memory. Ordering the fields by size keeps it
// in the 96-byte allocation size class.
func TestPlanNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Plan{}); got > 96 {
		t.Errorf("unsafe.Sizeof(Plan{}) = %d bytes, want ≤ 96", got)
	}
}
