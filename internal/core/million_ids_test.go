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

// TestRMQPastMillionIDs runs the optimizer against a store whose
// interner holds more than 2^20 ids. A first attached run fills the
// store; then the interner is padded past 2^20 ids with sets over tables
// 64–127, which the 12-table catalog never uses, so every table set the
// second run meets for the first time gets an id above 2^20. The second
// run must still return a frontier that is non-dominated per output
// representation and priced exactly like a fresh costing, publish every
// set of its frontier plans to the store, sets first met past the
// padding among them, and leave a store that snapshots and restores.
func TestRMQPastMillionIDs(t *testing.T) {
	sh := cache.NewShared(tableset.NewInterner(), 1)
	in := sh.Interner()

	first := New(Config{Shared: sh})
	first.Init(sharedProblem(t, sh, 12, 42), 7)
	for i := 0; i < 20; i++ {
		first.Step()
	}
	first.Frontier() // completes a pending stage B, so the store holds every publish
	for k := uint64(1); in.Len() <= 1<<20; k++ {
		in.Intern(highSet(k))
	}
	padded := tableset.ID(in.Len())

	p := sharedProblem(t, sh, 12, 42)
	second := New(Config{Shared: sh})
	second.Init(p, 8)
	for i := 0; i < 40; i++ {
		second.Step()
	}
	front := second.Frontier()
	if len(front) == 0 {
		t.Fatal("run past 2^20 ids found no plan")
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

	late := 0
	before := storeFrontiers(t, sh, func(bs cache.BucketSnapshot) {
		if bs.ID > padded {
			late++
		}
	})
	if late == 0 {
		t.Fatal("the store has no bucket for a set first met past 2^20 ids")
	}
	var walk func(*plan.Plan)
	walk = func(pl *plan.Plan) {
		if len(before[pl.Rel]) == 0 {
			t.Fatalf("set %v (id %d) of a frontier plan has no store bucket", pl.Rel, pl.RelID)
		}
		if pl.IsJoin() {
			walk(pl.Outer)
			walk(pl.Inner)
		}
	}
	for _, pl := range front {
		walk(pl)
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
