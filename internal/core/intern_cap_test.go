package core

import (
	"math"
	"testing"

	"rmq/internal/cache"
	"rmq/internal/cost"
	"rmq/internal/opt"
	"rmq/internal/plan"
	"rmq/internal/snapshot"
	"rmq/internal/tableset"
)

// TestRMQPastInternerCap runs the optimizer against a store whose
// interner is full. A first attached run fills the store; then the
// interner is padded to MaxInterned with sets over tables 64–127, which
// the 12-table catalog never uses, so every table set the second run
// meets for the first time gets NoID. The second run must still return
// a frontier that is non-dominated per output representation and
// priced exactly like a fresh costing, keep NoID sets
// out of the store, and leave a store that snapshots and restores.
func TestRMQPastInternerCap(t *testing.T) {
	sh := cache.NewShared(tableset.NewInterner(), 1)
	in := sh.Interner()

	first := New(Config{Shared: sh})
	first.Init(sharedProblem(t, sh, 12, 42), 7)
	for i := 0; i < 20; i++ {
		first.Step()
	}
	first.Frontier() // completes a pending stage B, so the store holds every publish
	known := tableset.ID(in.Len())
	for k := uint64(1); in.Len() < tableset.MaxInterned; k++ {
		in.Intern(highSet(k))
	}
	if id := in.Intern(tableset.Single(0).Add(64)); id != tableset.NoID {
		t.Fatalf("interner past MaxInterned assigned id %d", id)
	}

	p := sharedProblem(t, sh, 12, 42)
	second := New(Config{Shared: sh})
	second.Init(p, 8)
	for i := 0; i < 40; i++ {
		second.Step()
	}
	front := second.Frontier()
	if len(front) == 0 {
		t.Fatal("run past the interner cap found no plan")
	}
	for i, a := range front {
		for j, b := range front {
			if i != j && plan.SameOutput(a, b) && a.Cost.Dominates(b.Cost) {
				t.Fatalf("frontier plan %d dominates plan %d of its output: %v vs %v", i, j, a.Cost, b.Cost)
			}
		}
		if got := p.Model.Recost(a).Cost; !sameBits(got, a.Cost) {
			t.Fatalf("frontier plan %d costs %v, recosting gives %v", i, a.Cost, got)
		}
	}

	noID := 0
	before := storeFrontiers(t, sh, func(bs cache.BucketSnapshot) {
		if bs.ID > known {
			t.Errorf("store gained bucket %d for %v, a set first met past the cap", bs.ID, bs.Set)
		}
		for _, pl := range bs.Plans {
			noID += countNoID(pl)
		}
	})
	if noID == 0 {
		t.Fatal("no stored plan has a NoID sub-plan; the run never mixed interned and NoID sets")
	}

	data, err := snapshot.Encode(1, []snapshot.TaggedStore{{Tag: "t", Store: sh}})
	if err != nil {
		t.Fatal(err)
	}
	var restored *cache.Shared
	if _, err := snapshot.Decode(data, func(_ string, st cache.StoreState) (*cache.Shared, error) {
		restored = cache.NewShared(tableset.NewInterner(), st.Retention)
		return restored, nil
	}); err != nil {
		t.Fatal(err)
	}
	after := storeFrontiers(t, restored, func(cache.BucketSnapshot) {})
	if len(after) != len(before) {
		t.Fatalf("restored store holds %d sets, want %d", len(after), len(before))
	}
	for set, want := range before {
		got := after[set]
		if len(got) != len(want) {
			t.Fatalf("set %v: restored %d plans, want %d", set, len(got), len(want))
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("set %v plan %d: restored cost %v, want %v", set, i, got[i], want[i])
			}
		}
	}
}

// highSet maps k ≥ 1 to a distinct non-empty set over tables 64–127.
func highSet(k uint64) tableset.Set {
	var s tableset.Set
	for b := 0; k != 0; b, k = b+1, k>>1 {
		if k&1 != 0 {
			s = s.Add(64 + b)
		}
	}
	return s
}

// storeFrontiers returns the cost vectors of every stored frontier,
// keyed by table set, calling visit on each exported bucket.
func storeFrontiers(t *testing.T, sh *cache.Shared, visit func(cache.BucketSnapshot)) map[tableset.Set][]cost.Vector {
	t.Helper()
	out := make(map[tableset.Set][]cost.Vector)
	if _, _, err := sh.Export(0, func(bs cache.BucketSnapshot) error {
		visit(bs)
		out[bs.Set] = opt.Costs(bs.Plans)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// countNoID counts the nodes of p's tree that carry no interned id.
func countNoID(p *plan.Plan) int {
	n := 0
	if p.RelID == tableset.NoID {
		n++
	}
	if p.IsJoin() {
		n += countNoID(p.Outer) + countNoID(p.Inner)
	}
	return n
}

// sameBits reports whether two cost vectors are equal bit for bit.
func sameBits(a, b cost.Vector) bool {
	if a.Dim() != b.Dim() {
		return false
	}
	for i := 0; i < a.Dim(); i++ {
		if math.Float64bits(a.At(i)) != math.Float64bits(b.At(i)) {
			return false
		}
	}
	return true
}
