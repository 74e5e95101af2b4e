package tableset

import (
	"sync"
	"testing"
)

// TestSharedInternerMatchesPrivate pins that a store's interner and a
// run's interner, fed the same sets, assign the same ids, and that the
// read accessors agree with Intern under sequential use.
func TestSharedInternerMatchesPrivate(t *testing.T) {
	priv, shared := NewInterner(), NewInterner()
	sets := []Set{Single(0), Single(3), Single(0).Add(3), Single(7), Single(3)}
	for _, s := range sets {
		if p, sh := priv.Intern(s), shared.Intern(s); p != sh {
			t.Fatalf("Intern(%v): private %d, shared %d", s, p, sh)
		}
	}
	if p, sh := priv.Len(), shared.Len(); p != sh {
		t.Fatalf("Len: private %d, shared %d", p, sh)
	}
	for _, s := range sets {
		if got := shared.SetOf(shared.Intern(s)); got != s {
			t.Fatalf("SetOf(Intern(%v)) = %v", s, got)
		}
	}
	if shared.CapHint() < shared.Len() {
		t.Fatalf("CapHint %d < Len %d", shared.CapHint(), shared.Len())
	}
}

// TestSharedInternerConcurrent hammers one interner from many
// goroutines interning overlapping set streams and checks that every
// goroutine observed one consistent id assignment (run under -race).
func TestSharedInternerConcurrent(t *testing.T) {
	in := NewInterner()
	const workers = 8
	const n = 300
	var wg sync.WaitGroup
	got := make([]map[Set]ID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make(map[Set]ID, n)
			for i := 0; i < n; i++ {
				// Overlapping streams: every worker interns the same sets,
				// in a worker-dependent order.
				s := Single((i + w) % 40).Add(40 + (i % 23))
				ids[s] = in.Intern(s)
				if in.SetOf(ids[s]) != s {
					panic("SetOf disagrees with Intern")
				}
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for s, id := range got[0] {
			if other, seen := got[w][s]; seen && other != id {
				t.Fatalf("worker %d: id of %v = %d, worker 0 saw %d", w, s, other, id)
			}
		}
	}
	if in.Len() > 40*23 {
		t.Fatalf("interned %d sets, want ≤ %d distinct", in.Len(), 40*23)
	}
}
