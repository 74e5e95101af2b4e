package costmodel

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"

	"rmq/internal/catalog"
	"rmq/internal/cost"
	"rmq/internal/plan"
)

// metricSubsets enumerates every non-empty metric subset, so the
// reduced-dimension paths (ti/bi/di = -1) are all exercised.
func metricSubsets() [][]Metric {
	return [][]Metric{
		{Time}, {Buffer}, {Disc},
		{Time, Buffer}, {Time, Disc}, {Buffer, Disc},
		{Time, Buffer, Disc},
	}
}

func randVec(rng *rand.Rand, dim int) cost.Vector {
	vals := make([]float64, dim)
	for i := range vals {
		vals[i] = math.Exp(rng.Float64()*40 - 5)
	}
	return cost.New(vals...)
}

// TestEvalMatchesJoinCostParts is the bit-for-bit cross-check promised
// by eval.go: for every metric subset, every concrete operator and
// random inputs (including saturating magnitudes), JoinEval.OpCostAll
// and OpEval.Cost must agree exactly with JoinCostParts.
func TestEvalMatchesJoinCostParts(t *testing.T) {
	rng0 := rand.New(rand.NewPCG(1, 1))
	cat := catalog.Generate(catalog.GenSpec{Tables: 6, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng0)
	for _, metrics := range metricSubsets() {
		m := New(cat, metrics)
		rng := rand.New(rand.NewPCG(2, uint64(len(metrics))))
		var ev JoinEval
		var out [16]cost.Vector
		for trial := 0; trial < 500; trial++ {
			oc := randVec(rng, len(metrics))
			ic := randVec(rng, len(metrics))
			ocard := math.Exp(rng.Float64() * 500) // up to ~1e217 rows
			icard := math.Exp(rng.Float64() * 500)
			outCard := math.Exp(rng.Float64() * 575)
			m.PrepareJoin(&ev, ocard, icard, outCard)
			base := m.CombineChildren(oc, ic)
			ops := make([]plan.JoinOp, 0, plan.NumJoinOps)
			for op := plan.JoinOp(0); op < plan.NumJoinOps; op++ {
				ops = append(ops, op)
			}
			ev.OpCostAll(ops, base, &out)
			for _, op := range ops {
				want := m.JoinCostParts(op, oc, ocard, ic, icard, outCard)
				if got := out[op]; !got.Equal(want) {
					t.Fatalf("metrics %v op %v: OpCostAll %v, JoinCostParts %v", metrics, op, got, want)
				}
				var oe OpEval
				m.PrepareOp(&oe, op, ocard, icard, outCard)
				if got := oe.Cost(base); !got.Equal(want) {
					t.Fatalf("metrics %v op %v: OpEval.Cost %v, JoinCostParts %v", metrics, op, got, want)
				}
			}
		}
	}
}

// TestCombineChildrenIsOperatorFloor checks the property the climbing
// move search prunes on: the children combination weakly dominates
// every operator's complete cost, i.e. CombineChildren(a, b) ⪯ the
// OpCostAll price of every op over CombineChildren(a, b) for all
// inputs, including the saturated regime.
func TestCombineChildrenIsOperatorFloor(t *testing.T) {
	rng0 := rand.New(rand.NewPCG(3, 3))
	cat := catalog.Generate(catalog.GenSpec{Tables: 6, Graph: catalog.Star, Selectivity: catalog.Steinbrunn}, rng0)
	for _, metrics := range metricSubsets() {
		m := New(cat, metrics)
		rng := rand.New(rand.NewPCG(4, uint64(len(metrics))))
		var ev JoinEval
		var out [16]cost.Vector
		ops := make([]plan.JoinOp, 0, plan.NumJoinOps)
		for op := plan.JoinOp(0); op < plan.NumJoinOps; op++ {
			ops = append(ops, op)
		}
		for trial := 0; trial < 300; trial++ {
			a := randVec(rng, len(metrics))
			b := randVec(rng, len(metrics))
			m.PrepareJoin(&ev, math.Exp(rng.Float64()*560), math.Exp(rng.Float64()*560), math.Exp(rng.Float64()*575))
			base := m.CombineChildren(a, b)
			ev.OpCostAll(ops, base, &out)
			for k, op := range ops {
				if got := out[k]; !base.Dominates(got) {
					t.Fatalf("metrics %v op %v: floor %v does not dominate cost %v", metrics, op, base, got)
				}
			}
		}
	}
}

// TestCombineChildrenSymmetric: the children combination must not
// depend on argument order (the move search relies on this when pricing
// commuted pairs against one base).
func TestCombineChildrenSymmetric(t *testing.T) {
	rng0 := rand.New(rand.NewPCG(5, 5))
	cat := catalog.Generate(catalog.GenSpec{Tables: 4, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng0)
	m := New(cat, AllMetrics())
	rng := rand.New(rand.NewPCG(6, 6))
	for trial := 0; trial < 200; trial++ {
		a := randVec(rng, 3)
		b := randVec(rng, 3)
		if !m.CombineChildren(a, b).Equal(m.CombineChildren(b, a)) {
			t.Fatalf("CombineChildren not symmetric for %v, %v", a, b)
		}
	}
}

func TestEvalAllocFree(t *testing.T) {
	rng0 := rand.New(rand.NewPCG(7, 7))
	cat := catalog.Generate(catalog.GenSpec{Tables: 4, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng0)
	m := New(cat, AllMetrics())
	var ev JoinEval
	var oe OpEval
	var out [16]cost.Vector
	base := cost.New(10, 20, 30)
	ops := plan.JoinOpsFor(plan.Materialized)
	allocs := testing.AllocsPerRun(200, func() {
		m.PrepareJoin(&ev, 1e6, 1e5, 1e7)
		ev.OpCostAll(ops, base, &out)
		m.PrepareOp(&oe, ops[0], 1e6, 1e5, 1e7)
		if oe.Cost(base).Dim() != 3 || out[1].Dim() != 3 {
			t.Fatal("lost dimensions")
		}
	})
	if allocs != 0 {
		t.Errorf("evaluator hot path allocates: %v allocs/run, want 0", allocs)
	}
}

// TestFloorCostLowerBoundsEveryOperator: the admission pre-filter of
// the frontier recombination is sound only if FloorCost never exceeds
// any prepared operator's actual cost for the matching output
// representation — checked here over random cardinalities.
func TestFloorCostLowerBoundsEveryOperator(t *testing.T) {
	rng0 := rand.New(rand.NewPCG(17, 17))
	cat := catalog.Generate(catalog.GenSpec{Tables: 4, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng0)
	for _, metrics := range [][]Metric{AllMetrics(), {Time}, {Buffer, Disc}} {
		m := New(cat, metrics)
		var ev JoinEval
		var costs [16]cost.Vector
		rng := rand.New(rand.NewPCG(18, 18))
		for trial := 0; trial < 200; trial++ {
			oc := math.Exp(rng.Float64() * 30)
			ic := math.Exp(rng.Float64() * 30)
			out := oc * ic * rng.Float64()
			m.PrepareJoin(&ev, oc, ic, out)
			ev.PrepareFloors()
			comps := make([]float64, len(metrics))
			for i := range comps {
				comps[i] = math.Exp(rng.Float64() * 20)
			}
			base := cost.New(comps...)
			for _, inner := range []plan.OutputProp{plan.Pipelined, plan.Materialized} {
				ops := plan.JoinOpsFor(inner)
				ev.OpCostAll(ops, base, &costs)
				for k, op := range ops {
					floor := ev.FloorCost(base, op.Output())
					vec := costs[k]
					if !floor.Dominates(vec) {
						t.Fatalf("floor %v exceeds op %v cost %v (metrics %v)", floor, op, vec, metrics)
					}
				}
			}
		}
	}
}

// TestBuiltinMaxMatchesMathMax backs the cost model's use of the
// builtin max (pages, the BNL term, combine, catalog.Table.Pages): it
// agrees with math.Max bit for bit on random inputs and on the
// boundaries the model meets, signed zeros and +Inf included.
func TestBuiltinMaxMatchesMathMax(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, catalog.RowsPerPage, cost.Saturation, math.Inf(1), 0.5, 1e-300}
	rng := rand.New(rand.NewPCG(9, 9))
	for range 1000 {
		vals = append(vals, math.Exp(rng.Float64()*600-20), -math.Exp(rng.Float64()*40))
	}
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: builtin %v (%#x), math.Max %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, a := range vals {
		for _, b := range vals[:8] {
			same("max(a, b)", max(a, b), math.Max(a, b))
			same("max(b, a)", max(b, a), math.Max(b, a))
		}
		same("pages", pages(a), math.Max(1, a/catalog.RowsPerPage))
		same("Table.Pages", catalog.Table{Rows: a}.Pages(), math.Max(1, a/catalog.RowsPerPage))
	}
}

// TestRuleCostAllMask checks the masked kernel of the climbing move
// search against the sequential selection it replaces: the vectors are
// OpCostAll's, the mask holds exactly the candidates whose root floor
// weakly dominates the incumbent, and a candidate the mask drops is
// never the pick of a strict-dominance selection over every candidate
// (priced under random root operators) starting at that incumbent.
func TestRuleCostAllMask(t *testing.T) {
	rng0 := rand.New(rand.NewPCG(7, 7))
	cat := catalog.Generate(catalog.GenSpec{Tables: 6, Graph: catalog.Cycle, Selectivity: catalog.Steinbrunn}, rng0)
	picks, dropped := 0, 0
	for _, metrics := range metricSubsets() {
		m := New(cat, metrics)
		rng := rand.New(rand.NewPCG(8, uint64(len(metrics))))
		var ev JoinEval
		var got, want [16]cost.Vector
		for trial := 0; trial < 2000; trial++ {
			ops := plan.JoinOpsFor(plan.OutputProp(trial % 2))
			card := func() float64 { return math.Exp(rng.Float64() * 60) }
			m.PrepareJoin(&ev, card(), card(), card())
			childBase := m.CombineChildren(randVec(rng, len(metrics)), randVec(rng, len(metrics)))
			fixed := randVec(rng, len(metrics))
			if trial%5 == 0 {
				fixed = cost.Zero(len(metrics)) // the operator-exchange form
			}
			// An incumbent near the candidates' floors, so masks vary.
			incumbent := m.CombineChildren(fixed, childBase)
			for i := range len(metrics) {
				incumbent.V[i] *= math.Exp(rng.Float64()*4 - 0.5)
			}
			mask := ev.RuleCostAll(ops, childBase, fixed, incumbent, &got)
			ev.OpCostAll(ops, childBase, &want)
			var roots [2]OpEval
			for i := range roots {
				m.PrepareOp(&roots[i], plan.JoinOp(rng.IntN(plan.NumJoinOps)), card(), card(), card())
			}
			best, pick := incumbent, -1
			for k := range ops {
				if !got[k].Equal(want[k]) {
					t.Fatalf("metrics %v op %v: RuleCostAll %v, OpCostAll %v", metrics, ops[k], got[k], want[k])
				}
				floor := m.CombineChildren(fixed, got[k])
				if inMask := mask&(1<<k) != 0; inMask != floor.Dominates(incumbent) {
					t.Fatalf("metrics %v op %v: mask bit %v, floor %v vs incumbent %v", metrics, ops[k], inMask, floor, incumbent)
				}
				if vec := roots[ops[k]&1].Cost(floor); vec.StrictlyDominates(best) {
					best, pick = vec, k
				}
			}
			if pick >= 0 {
				picks++
				if mask&(1<<pick) == 0 {
					t.Fatalf("metrics %v: the selection picks op %v, which the mask drops", metrics, ops[pick])
				}
			}
			dropped += len(ops) - bits.OnesCount16(mask)
		}
	}
	if picks == 0 || dropped == 0 {
		t.Fatalf("degenerate test inputs: %d picks, %d dropped candidates", picks, dropped)
	}
}
