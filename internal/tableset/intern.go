package tableset

import (
	"math"
	"sync"
)

// ID is the interned identifier of a Set. IDs are dense small integers
// assigned in first-seen order, from 1, so subsystems that repeatedly
// look up the same table sets (the plan cache, the cardinality memo) can
// replace hash probes with array indexing. The zero ID names no set.
type ID int32

// Interner assigns dense IDs to table sets. It is safe for concurrent
// use and has one owner: a session's shared plan store, whose workers'
// cost models all intern through it, or a single optimizer run, whose
// cost model, plan cache and pipelined frontier stage share it. Ids are
// permanent, so id-indexed side tables built by different users of one
// interner (per-worker plan caches, cardinality memos, the shared
// store) stay mutually consistent for their whole lifetime. An interner
// only grows: a run's lives as long as the run, and a session replaces
// a store whose interner has outgrown its sets with a compacted copy
// over a fresh one. The zero Interner is not usable; call NewInterner.
type Interner struct {
	mu   sync.RWMutex
	ids  map[Set]ID
	sets []Set // sets[id] is the set with that id; index 0 is unused
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{
		ids:  make(map[Set]ID, 256),
		sets: make([]Set, 1, 256),
	}
}

// Intern returns the id of s, assigning the next dense id on first sight.
// Reads resolve under the read lock (the steady-state path: almost
// every set repeats), and only a genuinely new set takes the write
// lock, re-checking after the lock gap.
//
//rmq:hotpath
func (in *Interner) Intern(s Set) ID {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[s]; ok {
		return id
	}
	return in.assign(s)
}

// assign hands out the next dense id; callers hold the write lock. It
// panics rather than wrap past the int32 range.
func (in *Interner) assign(s Set) ID {
	if len(in.sets) > math.MaxInt32 {
		panic("tableset: interner exhausted the int32 id range")
	}
	id := ID(len(in.sets))
	in.sets = append(in.sets, s) //rmq:allow-alloc(first sight of a set; the steady-state repeat lookup returns above)
	in.ids[s] = id               //rmq:allow-alloc(first sight of a set)
	return id
}

// SetOf returns the set with the given id. It panics for ids never
// assigned, the zero ID among them.
func (in *Interner) SetOf(id ID) Set {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if id <= 0 || int(id) >= len(in.sets) {
		panic("tableset: SetOf of unassigned id")
	}
	return in.sets[id]
}

// Sets returns the interned sets indexed by ID, as of the call: Sets()[id]
// is the set with that id for every id below len(Sets()), and index 0
// (no id) holds the empty set. The slice is a read-only view, not a copy;
// callers must not modify it. Ids are permanent and assigned only at
// the end, so the view stays valid however many sets are interned
// after it was taken.
func (in *Interner) Sets() []Set {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.sets[:len(in.sets):len(in.sets)]
}

// Len returns the number of interned sets.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.sets) - 1
}

// CapHint returns the number of ids the interner has reserved storage
// for. Side tables indexed by ID (the plan cache's bucket table, the
// cardinality memo) size themselves from it so they grow geometrically
// in lockstep with the interner instead of creeping up one id at a
// time.
//
//rmq:hotpath
func (in *Interner) CapHint() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return cap(in.sets)
}
