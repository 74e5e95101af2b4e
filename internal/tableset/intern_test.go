package tableset

import "testing"

func TestInternerAssignsDenseIDs(t *testing.T) {
	in := NewInterner()
	a := Single(3)
	b := Range(5)
	idA := in.Intern(a)
	idB := in.Intern(b)
	if idA == 0 || idB == 0 {
		t.Fatal("Intern returned the zero ID for fresh sets")
	}
	if idA == idB {
		t.Fatal("distinct sets share an id")
	}
	if got := in.Intern(a); got != idA {
		t.Fatalf("re-interning a set changed its id: %d vs %d", got, idA)
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
	if in.SetOf(idA) != a || in.SetOf(idB) != b {
		t.Fatal("SetOf does not round-trip")
	}
}

func TestInternerZeroIDIsInvalid(t *testing.T) {
	in := NewInterner()
	if id := in.Intern(Empty()); id == 0 {
		t.Fatal("even the empty set gets a real id")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetOf(0) did not panic")
		}
	}()
	in.SetOf(0)
}

func TestInternerSteadyStateAllocFree(t *testing.T) {
	in := NewInterner()
	sets := make([]Set, 64)
	for i := range sets {
		sets[i] = Range(i + 1)
		in.Intern(sets[i])
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, s := range sets {
			if in.Intern(s) == 0 {
				t.Fatal("lost an interned set")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Intern allocates: %v allocs/run", allocs)
	}
}

func TestCapHintGrowsWithInterner(t *testing.T) {
	in := NewInterner()
	if in.CapHint() < 1 {
		t.Fatalf("CapHint = %d on fresh interner", in.CapHint())
	}
	for i := 0; i < 1000; i++ {
		in.Intern(Single(i % 64).Union(Single(64 + (i/64)%64)))
	}
	if in.CapHint() < in.Len()+1 {
		t.Errorf("CapHint %d below Len+1 %d", in.CapHint(), in.Len()+1)
	}
}
