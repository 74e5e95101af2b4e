package tableset

import (
	"math"
	"sync"
	"sync/atomic"
)

// ID is the interned identifier of a Set. IDs are dense small integers
// assigned in first-seen order, from 1, so subsystems that repeatedly
// look up the same table sets (the plan cache) can replace hash probes
// with array indexing. The zero ID names no set.
type ID int32

// Interner assigns dense IDs to table sets. It is safe for concurrent
// use and has one owner: a session's shared plan store, whose workers'
// cost models all intern through it, or a single optimizer run, whose
// cost model, plan cache and pipelined frontier stage share it. Ids are
// permanent, so id-indexed side tables built by different users of one
// interner (per-worker plan caches, the shared store) stay mutually
// consistent for their whole lifetime. An interner only grows, so its
// users intern only sets worth an id: RMQ interns a plan's sets when
// the plan leaves its climb, not the transient sets of random plans and
// climbing moves, and a store's interner therefore names exactly the
// sets the store caches. The zero Interner is not usable; call
// NewInterner.
//
// Reads take no lock. The interner keeps two arrays, each published
// through an atomic pointer: the sets by id, append-only, and an
// open-addressed table of ids keyed by set hash, kept at most half
// full. A new set is written to the set array (and the id count
// raised) before its id is stored in the table, so a reader that finds
// an id also finds its set. Intern of a known set probes the table it
// loaded; a miss, which may come from a table that has since been
// replaced by a larger one, re-probes the current table under the
// mutex and assigns the next dense id there.
type Interner struct {
	mu    sync.Mutex                     // serializes id assignment
	table atomic.Pointer[[]atomic.Int32] // slot → id, 0 = empty; power-of-two length
	sets  atomic.Pointer[[]Set]          // sets[id] for id < next; len == cap
	next  atomic.Int64                   // the next id to assign; 1 + the ids assigned
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	in := &Interner{}
	table := make([]atomic.Int32, 512)
	sets := make([]Set, 256) // index 0 is unused
	in.table.Store(&table)
	in.sets.Store(&sets)
	in.next.Store(1)
	return in
}

// Intern returns the id of s, assigning the next dense id on first sight.
// A set already interned resolves without a lock (the steady-state
// path: almost every set repeats); only a miss takes the mutex.
//
//rmq:hotpath
func (in *Interner) Intern(s Set) ID {
	table := *in.table.Load()
	sets := *in.sets.Load()
	mask := uint64(len(table) - 1)
	for i := s.Hash64() & mask; ; i = (i + 1) & mask {
		id := table[i].Load()
		if id == 0 {
			return in.internLocked(s)
		}
		if int(id) >= len(sets) {
			// Assigned after the set array we loaded was outgrown.
			sets = *in.sets.Load()
		}
		if sets[id] == s {
			return ID(id)
		}
	}
}

// internLocked is Intern's miss path: under the mutex, it re-probes the
// current table and assigns the next dense id if s is still new.
func (in *Interner) internLocked(s Set) ID {
	in.mu.Lock()
	defer in.mu.Unlock()
	table := *in.table.Load()
	sets := *in.sets.Load()
	mask := uint64(len(table) - 1)
	i := s.Hash64() & mask
	for ; ; i = (i + 1) & mask {
		id := table[i].Load()
		if id == 0 {
			break
		}
		if sets[id] == s {
			return ID(id)
		}
	}
	return in.assign(s, table, i)
}

// assign hands out the next dense id to s, whose empty probe slot in
// table is slot; callers hold the mutex. It panics rather than wrap
// past the int32 range.
func (in *Interner) assign(s Set, table []atomic.Int32, slot uint64) ID {
	next := in.next.Load()
	if next > math.MaxInt32 {
		panic("tableset: interner exhausted the int32 id range")
	}
	sets := *in.sets.Load()
	if int(next) == len(sets) {
		grown := append(sets, s) //rmq:allow-alloc(amortized growth on first sight of a set)
		grown = grown[:cap(grown)]
		in.sets.Store(&grown)
		sets = grown
	} else {
		sets[next] = s
	}
	in.next.Store(next + 1)
	if 2*int(next) > len(table) {
		in.table.Store(rehash(sets[:next+1], 2*len(table)))
	} else {
		table[slot].Store(int32(next))
	}
	return ID(next)
}

// rehash builds a table of the given power-of-two size holding the ids
// of sets[1:].
func rehash(sets []Set, size int) *[]atomic.Int32 {
	table := make([]atomic.Int32, size) //rmq:allow-alloc(amortized growth on first sight of a set)
	mask := uint64(size - 1)
	for id := 1; id < len(sets); id++ {
		i := sets[id].Hash64() & mask
		for table[i].Load() != 0 {
			i = (i + 1) & mask
		}
		table[i].Store(int32(id))
	}
	return &table
}

// SetOf returns the set with the given id. It panics for ids never
// assigned, the zero ID among them.
func (in *Interner) SetOf(id ID) Set {
	if id <= 0 || int64(id) >= in.next.Load() {
		panic("tableset: SetOf of unassigned id")
	}
	return (*in.sets.Load())[id]
}

// Sets returns the interned sets indexed by ID, as of the call: Sets()[id]
// is the set with that id for every id below len(Sets()), and index 0
// (no id) holds the empty set. The slice is a read-only view, not a copy;
// callers must not modify it. Ids are permanent and assigned only at
// the end, so the view stays valid however many sets are interned
// after it was taken.
func (in *Interner) Sets() []Set {
	next := in.next.Load()
	return (*in.sets.Load())[:next:next]
}

// Len returns the number of interned sets.
func (in *Interner) Len() int { return int(in.next.Load()) - 1 }

// CapHint returns the number of ids the interner has reserved storage
// for. Side tables indexed by ID (the plan cache's bucket table) size
// themselves from it so they grow geometrically in lockstep with the
// interner instead of creeping up one id at a time.
//
//rmq:hotpath
func (in *Interner) CapHint() int { return len(*in.sets.Load()) }
