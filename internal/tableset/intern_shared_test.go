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

// TestInternerGrowsUnderReaders re-interns known sets from reader
// goroutines, without the mutex on the interner's fast path, while
// writer goroutines intern enough new sets to replace the id table
// several times. Readers must always get the known ids back, writers
// that race on the same new set must agree on its id, and the ids must
// end up unique and dense (run under -race).
func TestInternerGrowsUnderReaders(t *testing.T) {
	in := NewInterner()
	known := make([]Set, 100)
	knownIDs := make([]ID, len(known))
	for i := range known {
		known[i] = Single(i).Add(127 - i%20)
		knownIDs[i] = in.Intern(known[i])
	}
	const writers, perWriter = 4, 3000
	// Writers w and w+1 share half their stream, in opposite orders.
	stream := func(w int) []Set {
		out := make([]Set, perWriter)
		for i := range out {
			k := w*perWriter/2 + i
			out[i] = FromWords(uint64(k)<<1|1, uint64(k)*0x9e3779b97f4a7c15|1<<63)
		}
		if w%2 == 1 {
			for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
				out[i], out[j] = out[j], out[i]
			}
		}
		return out
	}
	tablesBefore := len(*in.table.Load())

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (n*7 + r) % len(known)
				if id := in.Intern(known[i]); id != knownIDs[i] {
					panic("re-interned known set changed id")
				}
				if in.SetOf(knownIDs[i]) != known[i] {
					panic("SetOf disagrees with Intern")
				}
				if v := in.Sets(); v[knownIDs[i]] != known[i] || len(v) > in.CapHint() {
					panic("Sets view disagrees with Intern")
				}
			}
		}(r)
	}
	got := make([][]ID, writers)
	var ws sync.WaitGroup
	for w := 0; w < writers; w++ {
		ws.Add(1)
		go func(w int) {
			defer ws.Done()
			sets := stream(w)
			ids := make([]ID, len(sets))
			for i, s := range sets {
				ids[i] = in.Intern(s)
			}
			got[w] = ids
		}(w)
	}
	ws.Wait()
	close(stop)
	readers.Wait()

	if grown := len(*in.table.Load()); grown < 8*tablesBefore {
		t.Fatalf("id table grew %d → %d slots, want several doublings", tablesBefore, grown)
	}
	byID := make(map[ID]Set)
	for i, s := range known {
		byID[knownIDs[i]] = s
	}
	for w := 0; w < writers; w++ {
		for i, s := range stream(w) {
			id := got[w][i]
			if prev, ok := byID[id]; ok && prev != s {
				t.Fatalf("id %d names both %v and %v", id, prev, s)
			}
			byID[id] = s
			if in.Intern(s) != id {
				t.Fatalf("writer %d: id of %v moved from %d", w, s, id)
			}
		}
	}
	if in.Len() != len(byID) {
		t.Fatalf("Len %d, %d distinct ids handed out", in.Len(), len(byID))
	}
	view := in.Sets()
	for id := ID(1); int(id) <= in.Len(); id++ {
		s, ok := byID[id]
		if !ok {
			t.Fatalf("ids not dense: %d never handed out (Len %d)", id, in.Len())
		}
		if view[id] != s || in.SetOf(id) != s {
			t.Fatalf("id %d: Sets %v, SetOf %v, Intern gave it to %v", id, view[id], in.SetOf(id), s)
		}
	}
}
