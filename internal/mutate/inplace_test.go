package mutate

import (
	"math/rand/v2"
	"testing"

	"rmq/internal/catalog"
	"rmq/internal/costmodel"
	"rmq/internal/plan"
)

// buildMove evaluates the derived quantities of a structural move using
// the cost model, mirroring what the climbing move search computes.
func buildMove(m *costmodel.Model, kind MoveKind, rootOp, childOp plan.JoinOp, childOuter, childInner, fixed *plan.Plan, childIsInner bool, rootCard float64) *Move {
	childCard := m.Card(childOuter.Rel.Union(childInner.Rel))
	childCost := m.JoinCostParts(childOp, childOuter.Cost, childOuter.Card, childInner.Cost, childInner.Card, childCard)
	childRel := childOuter.Rel.Union(childInner.Rel)
	var rootCost = childCost
	if childIsInner {
		rootCost = m.JoinCostParts(rootOp, fixed.Cost, fixed.Card, childCost, childCard, rootCard)
	} else {
		rootCost = m.JoinCostParts(rootOp, childCost, childCard, fixed.Cost, fixed.Card, rootCard)
	}
	return &Move{
		Kind: kind, Op: rootOp, Cost: rootCost,
		ChildOp: childOp, ChildCost: childCost, ChildCard: childCard,
		ChildRel: childRel,
	}
}

// inplaceModel builds a 4-table model and the scratch plan
// (t0 ⋈ t1) ⋈ (t2 ⋈ t3) for the in-place transformation tests.
func inplaceModel(t *testing.T) (*costmodel.Model, *plan.Plan) {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 7))
	cat := catalog.Generate(catalog.GenSpec{Tables: 4, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng)
	m := costmodel.New(cat, costmodel.AllMetrics())
	outer := m.NewJoin(plan.MakeJoinOp(plan.Hash, true), m.NewScan(0, plan.SeqScan), m.NewScan(1, plan.PinScan))
	inner := m.NewJoin(plan.MakeJoinOp(plan.SortMerge, true), m.NewScan(2, plan.SeqScan), m.NewScan(3, plan.SeqScan))
	root := m.NewJoin(plan.MakeJoinOp(plan.BNL100, false), outer, inner)
	return m, plan.NewScratch().Import(root)
}

// checkApplied validates the rewritten tree and cross-checks every
// stored cost and cardinality against a bottom-up recosting.
func checkApplied(t *testing.T, m *costmodel.Model, n *plan.Plan) {
	t.Helper()
	if err := n.Validate(); err != nil {
		t.Fatalf("invalid plan after Apply: %v", err)
	}
	re := m.Recost(n)
	if !re.Cost.Equal(n.Cost) {
		t.Fatalf("stored cost %v differs from recost %v", n.Cost, re.Cost)
	}
	if re.Card != n.Card {
		t.Fatalf("stored card %g differs from recost %g", n.Card, re.Card)
	}
}

func TestApplyAndUndoAllKinds(t *testing.T) {
	m, root := inplaceModel(t)
	before := root.String()
	beforeCost := root.Cost

	cases := []struct {
		name string
		mv   func() *Move
	}{
		{"opExchange", func() *Move {
			op := plan.MakeJoinOp(plan.GraceHash, false)
			return &Move{Kind: OpExchange, Op: op, Cost: m.JoinCost(op, root.Outer, root.Inner, root.Card)}
		}},
		{"commute", func() *Move {
			op := plan.MakeJoinOp(plan.Hash, false)
			return &Move{Kind: Commute, Op: op, Cost: m.JoinCost(op, root.Inner, root.Outer, root.Card)}
		}},
		{"assocLeft", func() *Move {
			cop := plan.MakeJoinOp(plan.Hash, false)
			rop := PickRootOp(root.Join, cop.Output())
			return buildMove(m, AssocLeft, rop, cop, root.Outer.Inner, root.Inner, root.Outer.Outer, true, root.Card)
		}},
		{"exchangeLeft", func() *Move {
			cop := plan.MakeJoinOp(plan.SortMerge, true)
			rop := PickRootOp(root.Join, root.Outer.Inner.Output)
			return buildMove(m, ExchangeLeft, rop, cop, root.Outer.Outer, root.Inner, root.Outer.Inner, false, root.Card)
		}},
		{"assocRight", func() *Move {
			cop := plan.MakeJoinOp(plan.GraceHash, true)
			rop := PickRootOp(root.Join, root.Inner.Inner.Output)
			return buildMove(m, AssocRight, rop, cop, root.Outer, root.Inner.Outer, root.Inner.Inner, false, root.Card)
		}},
		{"exchangeRight", func() *Move {
			cop := plan.MakeJoinOp(plan.Hash, true)
			rop := PickRootOp(root.Join, cop.Output())
			return buildMove(m, ExchangeRight, rop, cop, root.Outer, root.Inner.Inner, root.Inner.Outer, true, root.Card)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mv := tc.mv()
			u := Apply(root, mv)
			if root.String() == before && tc.name != "opExchange" {
				t.Fatal("Apply changed nothing")
			}
			if !root.Cost.Equal(mv.Cost) {
				t.Fatalf("applied cost %v, move predicted %v", root.Cost, mv.Cost)
			}
			checkApplied(t, m, root)
			u.Revert()
			if root.String() != before || !root.Cost.Equal(beforeCost) {
				t.Fatalf("Undo did not restore the plan:\nwant %s\ngot  %s", before, root.String())
			}
			checkApplied(t, m, root)
		})
	}
}

func TestApplyScanSwap(t *testing.T) {
	m, root := inplaceModel(t)
	leaf := root.Outer.Outer
	before := root.String()
	mv := &Move{Kind: ScanSwap, Scan: plan.PinScan, Cost: m.ScanCost(leaf.Table, plan.PinScan)}
	u := Apply(leaf, mv)
	if leaf.Scan != plan.PinScan || !leaf.Cost.Equal(m.ScanCost(leaf.Table, plan.PinScan)) {
		t.Fatal("scan swap not applied")
	}
	if err := leaf.Validate(); err != nil {
		t.Fatal(err)
	}
	u.Revert()
	if root.String() != before {
		t.Fatal("Undo did not restore the scan")
	}
}

func TestApplyPreservesRelAndCard(t *testing.T) {
	m, root := inplaceModel(t)
	rel, card := root.Rel, root.Card
	cop := plan.MakeJoinOp(plan.Hash, false)
	rop := PickRootOp(root.Join, cop.Output())
	mv := buildMove(m, AssocLeft, rop, cop, root.Outer.Inner, root.Inner, root.Outer.Outer, true, root.Card)
	Apply(root, mv)
	if root.Rel != rel || root.Card != card {
		t.Fatal("structural move changed the node's table set or cardinality")
	}
	if root.Inner.Rel != mv.ChildRel {
		t.Fatal("recycled child rel not installed")
	}
	// The recycled child held another set's id; the move clears it, and
	// the child gets its id when the climber interns the plan it returns.
	if root.Inner.RelID != 0 || root.RelID != m.RelID(rel) {
		t.Fatalf("after the move the child carries id %d and the node id %d, want 0 and %d",
			root.Inner.RelID, root.RelID, m.RelID(rel))
	}
}

func TestApplyAllocFree(t *testing.T) {
	m, root := inplaceModel(t)
	cop := plan.MakeJoinOp(plan.Hash, false)
	rop := PickRootOp(root.Join, cop.Output())
	mv := buildMove(m, AssocLeft, rop, cop, root.Outer.Inner, root.Inner, root.Outer.Outer, true, root.Card)
	allocs := testing.AllocsPerRun(200, func() {
		u := Apply(root, mv)
		u.Revert()
	})
	if allocs != 0 {
		t.Errorf("Apply+Revert allocates: %v allocs/run, want 0", allocs)
	}
}

func TestSnapshotRevert(t *testing.T) {
	_, root := inplaceModel(t)
	before := *root
	u := Snapshot(root)
	root.Join = plan.MakeJoinOp(plan.GraceHash, true)
	root.Card = 42
	root.RelID = 0
	u.Revert()
	if *root != before {
		t.Fatal("Snapshot.Revert did not restore the node")
	}
}
