package tableset

import "sync"

// ID is the interned identifier of a Set. IDs are dense small integers
// assigned in first-seen order, so subsystems that repeatedly look up the
// same table sets (the plan cache, the cardinality memo) can replace hash
// probes with array indexing. The zero value NoID means "not interned":
// hand-built plans and sets beyond the interner capacity carry NoID and
// callers fall back to Set-keyed paths.
type ID int32

// NoID is the invalid interned id (the zero value of ID).
const NoID ID = 0

// MaxInterned bounds the number of distinct sets an Interner assigns ids
// to. The bound exists for the same reason as the cardinality memo cap:
// very long optimizer runs encounter an unbounded stream of transient
// table sets, and the dense side tables indexed by ID (cache buckets,
// cardinality entries) must not grow without limit. Past the bound,
// Intern returns NoID and callers use their Set-keyed fallback.
const MaxInterned = 1 << 20

// Interner assigns dense IDs to table sets. The zero Interner is not
// usable; call NewInterner or NewSharedInterner. A plain interner is not
// safe for concurrent use; it is owned by one optimizer run's cost model
// and shared with the run's plan cache. A shared-mode interner
// (NewSharedInterner) is safe for concurrent use: it is the id authority
// of a session-scoped shared plan cache, so every worker's cost model
// and every run of the session agree on one id namespace.
type Interner struct {
	// mu guards ids and sets in shared mode; nil selects the unlocked
	// single-owner paths, so private runs pay nothing for the mode.
	mu   *sync.RWMutex
	ids  map[Set]ID
	sets []Set // sets[id] is the set with that id; index 0 is unused
}

// NewInterner returns an empty interner for a single owner.
func NewInterner() *Interner {
	return &Interner{
		ids:  make(map[Set]ID, 256),
		sets: make([]Set, 1, 256),
	}
}

// NewSharedInterner returns an empty interner that is safe for
// concurrent use. Interned ids are permanent, so id-indexed side tables
// built by different owners over the same shared interner (per-worker
// plan caches, cardinality memos, the session's shared frontier store)
// stay mutually consistent for their whole lifetime.
func NewSharedInterner() *Interner {
	in := NewInterner()
	in.mu = new(sync.RWMutex)
	return in
}

// Concurrent reports whether the interner is safe for concurrent use
// (constructed by NewSharedInterner).
func (in *Interner) Concurrent() bool { return in.mu != nil }

// Intern returns the id of s, assigning the next dense id on first sight.
// It returns NoID once MaxInterned distinct sets have been assigned.
//
//rmq:hotpath
func (in *Interner) Intern(s Set) ID {
	if in.mu != nil {
		return in.internShared(s)
	}
	if id, ok := in.ids[s]; ok {
		return id
	}
	return in.assign(s)
}

// internShared is Intern under the shared-mode lock: reads resolve under
// the read lock (the steady-state path — almost every set repeats), and
// only a genuinely new set upgrades to the write lock, re-checking after
// the lock gap.
func (in *Interner) internShared(s Set) ID {
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

// assign hands out the next dense id; callers hold the write lock in
// shared mode.
func (in *Interner) assign(s Set) ID {
	if len(in.sets) > MaxInterned {
		return NoID
	}
	id := ID(len(in.sets))
	in.sets = append(in.sets, s) //rmq:allow-alloc(first sight of a set; the steady-state repeat lookup returns above)
	in.ids[s] = id               //rmq:allow-alloc(first sight of a set)
	return id
}

// Lookup returns the id of s if it was interned before, NoID otherwise.
// It never assigns a new id.
func (in *Interner) Lookup(s Set) ID {
	if in.mu != nil {
		in.mu.RLock()
		defer in.mu.RUnlock()
	}
	return in.ids[s]
}

// SetOf returns the set with the given id. It panics for NoID or ids
// never assigned.
func (in *Interner) SetOf(id ID) Set {
	if in.mu != nil {
		in.mu.RLock()
		defer in.mu.RUnlock()
	}
	if id <= 0 || int(id) >= len(in.sets) {
		panic("tableset: SetOf of unassigned id")
	}
	return in.sets[id]
}

// Sets returns the interned sets indexed by ID, as of the call: Sets()[id]
// is the set with that id for every id below len(Sets()), and index 0
// (NoID) holds the empty set. The slice is a read-only view, not a copy;
// callers must not modify it. Ids are permanent and assigned only at
// the end, so the view stays valid however many sets are interned
// after it was taken.
func (in *Interner) Sets() []Set {
	if in.mu != nil {
		in.mu.RLock()
		defer in.mu.RUnlock()
	}
	return in.sets[:len(in.sets):len(in.sets)]
}

// Len returns the number of interned sets.
func (in *Interner) Len() int {
	if in.mu != nil {
		in.mu.RLock()
		defer in.mu.RUnlock()
	}
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
	if in.mu != nil {
		in.mu.RLock()
		defer in.mu.RUnlock()
	}
	return cap(in.sets)
}
