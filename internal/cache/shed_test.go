package cache

import (
	"testing"

	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// shedFixture publishes a dense exact-retention frontier (a cost curve
// of n mutually non-dominated plans over one table set) into a shared
// store and returns the store plus the bucket holding them.
func shedFixture(t *testing.T, n int) (*Shared, *sharedBucket) {
	t.Helper()
	sh, caches, syncs := sharedFixture(t, 1, 1)
	rel := tableset.FromSlice([]int{0, 1})
	for i := 0; i < n; i++ {
		// Strictly increasing first metric, strictly decreasing second:
		// every plan is exactly non-dominated, but neighbors are within a
		// small factor of each other, so a coarser α prunes most of them.
		insert(caches[0], rel, plan.Pipelined, 1, 100+float64(i), 1000/(1+float64(i)/10))
	}
	if got := syncs[0].Publish(caches[0]); got != n {
		t.Fatalf("Publish = %d, want %d", got, n)
	}
	return sh, sh.bucketAt(sh.in.Intern(rel))
}

func TestShedReprunesAndCoversRemoved(t *testing.T) {
	const n = 40
	sh, sb := shedFixture(t, n)
	before := append([]*plan.Plan(nil), sb.b.plans...)
	bytesBefore := sh.Bytes()

	removed := sh.Shed(2)
	if removed == 0 {
		t.Fatal("Shed(2) over a dense exact frontier removed nothing")
	}
	if got := sh.EffectiveRetention(); got != 2 {
		t.Errorf("EffectiveRetention = %v, want 2", got)
	}
	if got := sh.Retention(); got != 1 {
		t.Errorf("declared Retention changed to %v", got)
	}
	if _, plans := sh.Stats(); plans != n-removed {
		t.Errorf("Stats plans = %d, want %d", plans, n-removed)
	}
	if sh.Bytes() >= bytesBefore {
		t.Errorf("Bytes did not shrink: %d -> %d", bytesBefore, sh.Bytes())
	}

	// Anytime contract: every removed plan is α-dominated by a survivor,
	// so the shed frontier is a valid α=2 approximation of the original.
	kept := make(map[*plan.Plan]bool, len(sb.b.plans))
	for _, p := range sb.b.plans {
		kept[p] = true
	}
	for _, p := range before {
		if kept[p] {
			continue
		}
		if WouldAdmit(sb.b.plans, p.Cost, p.Output, 2) {
			t.Errorf("removed plan %v is not α-covered by any survivor", p.Cost)
		}
	}

	// Epochs stayed ascending (outstanding sync marks remain valid) and
	// the derived class mirrors match the survivors.
	var last uint64
	var total int
	for i, e := range sb.b.epochs {
		if e <= last {
			t.Fatalf("epochs not ascending at %d: %d after %d", i, e, last)
		}
		last = e
	}
	for out := range sb.b.cols {
		total += sb.b.cols[out].Len()
	}
	if total != len(sb.b.plans) {
		t.Errorf("column sizes sum %d, plans %d", total, len(sb.b.plans))
	}
	checkMirrors(t, &sb.b)
}

func TestShedTightensFutureAdmissions(t *testing.T) {
	sh, caches, syncs := sharedFixture(t, 1, 1)
	rel := tableset.FromSlice([]int{0, 1})
	insert(caches[0], rel, plan.Pipelined, 1, 10, 10)
	syncs[0].Publish(caches[0])

	if got := sh.Shed(4); got != 0 {
		t.Fatalf("Shed removed %d from a single-plan store", got)
	}

	// A plan within α=4 of the retained one: the private cache (exact)
	// admits it, the store (now effectively α=4) must reject it.
	insert(caches[0], rel, plan.Pipelined, 1, 9, 11)
	if got := syncs[0].Publish(caches[0]); got != 0 {
		t.Errorf("store admitted %d plans inside the effective-α cell", got)
	}
	// A plan outside the α=4 cell still gets in.
	insert(caches[0], rel, plan.Pipelined, 1, 1, 100)
	if got := syncs[0].Publish(caches[0]); got != 1 {
		t.Errorf("store admitted %d plans outside the cell, want 1", got)
	}
}

func TestShedRaiseOnly(t *testing.T) {
	sh, _ := shedFixture(t, 40)
	sh.Shed(8)
	if got := sh.EffectiveRetention(); got != 8 {
		t.Fatalf("EffectiveRetention = %v, want 8", got)
	}
	sh.Shed(2) // a later, looser request must not lower the knob
	if got := sh.EffectiveRetention(); got != 8 {
		t.Errorf("EffectiveRetention lowered to %v", got)
	}
	if got := sh.Shed(8); got != 0 {
		t.Errorf("repeat Shed(8) removed %d plans, want 0 (idempotent)", got)
	}
	if got := sh.Shed(0); got != 0 {
		t.Errorf("Shed(0) removed %d plans, want no-op", got)
	}
}

func TestShedKeepsSyncValid(t *testing.T) {
	sh, caches, syncs := sharedFixture(t, 2, 1)
	a, b := caches[0], caches[1]
	rel := tableset.FromSlice([]int{0, 1})
	for i := 0; i < 20; i++ {
		insert(a, rel, plan.Pipelined, 1, 100+float64(i), 1000/(1+float64(i)/10))
	}
	syncs[0].Publish(a)
	syncs[1].Pull(b) // b has marks at the pre-shed epochs

	if sh.Shed(2) == 0 {
		t.Fatal("Shed removed nothing")
	}

	// New work after the shed: b's stale marks must still yield a valid
	// pull (it may re-import survivors; its exact cache dedups them).
	insert(a, rel, plan.Pipelined, 1, 1, 5000)
	syncs[0].Publish(a)
	syncs[1].Pull(b)
	got := b.Get(rel)
	found := false
	for _, p := range got {
		if p.Cost.At(0) == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("post-shed publish not pulled; frontier %v", costsOf(got))
	}
	for i, p := range got {
		for j, q := range got {
			if i != j && better(p, q) {
				t.Fatalf("pulled frontier holds dominated pair %v, %v", p.Cost, q.Cost)
			}
		}
	}
}
