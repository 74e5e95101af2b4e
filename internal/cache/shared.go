package cache

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// Shared is a session-scoped, concurrency-safe plan cache: the frontier
// store that lets (a) all parallel workers of one run and (b) successive
// runs of one session share the α-approximate sub-plan frontiers that
// the paper's cache amortizes almost all iteration work through, instead
// of each worker and each run rebuilding them from zero.
//
// # Concurrency model
//
// A Shared never sits on any hot path directly. Each worker keeps its
// own private Cache exactly as before (single-goroutine, unlocked,
// allocation-free probes) and exchanges deltas with the Shared store
// through a per-worker SyncState between iterations. Internally the
// store is sharded per table set: every bucket carries its own mutex,
// so publishes to different table sets never contend, and the bucket
// table itself grows under a read-write lock that lookups take only in
// read mode. Two lock-free monotone counters make the steady state
// cheap: a per-bucket admission-epoch mirror lets pullers skip
// unchanged buckets without locking them, and a store-wide version
// counter lets a puller skip the whole scan with a single atomic load
// when nothing was published anywhere — the 0-alloc read probe of a
// warmed-up session.
//
// Buckets live in chunks, numbered by slot in creation order, and each
// chunk's epoch mirrors sit beside it in a dense array of 8-byte words.
// A puller's changed-bucket scan streams those words against its own
// per-slot marks and touches a bucket only when the two differ, so
// scanning a warm store costs 8 bytes per bucket, not a bucket header.
//
// Bucket ids come from the store's interner, which every participating
// cost model must be built over, so plan.RelID values agree across
// workers and runs. Plans themselves are immutable once cached (climbed
// plans are frozen out of the scratch arena before they escape), so
// passing plan pointers between workers needs no copying and no further
// locking.
//
// # Retention
//
// Admissions into the store prune with the retention factor α given at
// construction. Retention 1 keeps the exact per-output Pareto frontiers
// of everything ever published (maximum warm-start fidelity); a
// retention α > 1 keeps only α-approximate frontiers, which bounds the
// number of retained plans per table set polynomially (Lemma 6) and so
// bounds the session's memory growth at a controlled loss of frontier
// detail.
type Shared struct {
	in     *tableset.Interner
	retain float64

	// effRetain is the effective retention precision as float bits
	// (0 = unset: retain applies). Shed raises it under memory
	// pressure; admissions prune under it. The declared retain — what
	// Retention() returns and requests assert against — never changes.
	effRetain atomic.Uint64

	// version counts publishes that changed the store; SyncState.Pull's
	// fast path compares it against the last pulled value.
	version atomic.Uint64
	// repSeq is the replication watermark: every bucket change takes the
	// next value and records it in the bucket's lastVer (under the bucket
	// lock), so Export can ship only buckets changed since a remote
	// puller's cursor. It is distinct from version — version's ordering
	// contract (advanced strictly after the epoch mirror) belongs to
	// SyncState.Pull and must not be reused as an export cursor.
	repSeq atomic.Uint64
	// iters counts optimizer iterations performed against the store, by
	// every worker of every attached run. The α schedule of an attached
	// optimizer is driven by this cumulative counter rather than the
	// worker's private one: α is the precision the cache has been refined
	// to, so N workers pooling their work into one cache refine it N
	// times faster, and a warmed session resumes at the precision it
	// already reached instead of redoing the coarse passes.
	iters atomic.Int64
	sets  atomic.Int64
	plans atomic.Int64

	// mu guards the bucket tables (growth and slot creation) and the
	// cost chunk, not the buckets themselves; each sharedBucket has its
	// own lock.
	mu sync.RWMutex //rmq:lock store 1
	// slots maps a tableset.ID to 1 + the slot of its bucket (0: none).
	slots []int32
	// chunks holds the buckets by slot: slot i is entry
	// i%sharedBucketsPerSlab of chunks[i/sharedBucketsPerSlab]. Chunks
	// never move; the list only grows, and n slots are in use.
	chunks []bucketChunk
	n      int
	// costs is the chunk ImportBucket carves restored class cost blocks
	// from (see reserveCols).
	costs []float64
}

// bucketChunk is one chunk of a store's buckets and, beside it, their
// admission-epoch mirrors: mirrors[i] is buckets[i]'s epoch, stored
// under the bucket's lock before the store's version advances, and
// loaded by pullers without it.
type bucketChunk struct {
	buckets []sharedBucket  // len sharedBucketsPerSlab
	mirrors []atomic.Uint64 // len sharedBucketsPerSlab
}

// slotAt returns the bucket in slot i and its epoch mirror. chunks is
// the store's chunk list, read under mu or copied under it: the entries
// below a length observed under mu never change.
func slotAt(chunks []bucketChunk, i int) (*sharedBucket, *atomic.Uint64) {
	ch := chunks[i/sharedBucketsPerSlab]
	return &ch.buckets[i%sharedBucketsPerSlab], &ch.mirrors[i%sharedBucketsPerSlab]
}

// bucketSlabBytes is the size of the chunks a store or cache allocates
// its buckets in, and of the chunks bulk builds carve bucket arrays from
// (see carve). Buckets live as long as their store or cache, so
// carving them from shared chunks pins nothing extra, and a restore or
// warm start that creates tens of thousands of buckets makes a few
// hundred allocations instead. It is the Go runtime's largest small-
// object size class, so a chunk loses less than one bucket to size-class
// rounding — less than a bucket allocated on its own does.
const bucketSlabBytes = 32 << 10

// Buckets per chunk, for private caches and for shared stores.
const (
	bucketsPerSlab       = int(bucketSlabBytes / unsafe.Sizeof(Bucket{}))
	sharedBucketsPerSlab = int(bucketSlabBytes / unsafe.Sizeof(sharedBucket{}))
)

// bucketSlab holds the chunks a bulk build carves bucket arrays from:
// plans and epochs for a warm start's adopted buckets, class cost
// blocks for those and for a restore's imported ones.
type bucketSlab struct {
	plans  []*plan.Plan
	epochs []uint64
	costs  []float64
}

// carve cuts an n-element window with cap n from the front of *chunk,
// starting a fresh bucketSlabBytes chunk when the current one is too
// short; a request over a sixteenth of a chunk gets an allocation of its
// own, so a chunk loses at most that much at its end. Windows never
// overlap, and a slice cut with cap equal to len reallocates instead of
// growing into its neighbour.
//
//rmq:hotpath
func carve[T any](chunk *[]T, n int) []T {
	if n > len(*chunk) {
		var elem T
		per := bucketSlabBytes / int(unsafe.Sizeof(elem))
		if n > per/16 {
			return make([]T, n) //rmq:allow-alloc(one sized allocation for a bucket too large to share a chunk)
		}
		*chunk = make([]T, per) //rmq:allow-alloc(a chunk of bucket arrays, shared by the buckets of one bulk build)
	}
	w := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return w
}

// sharedBucket is one table set's slot in the store: the ordinary
// Bucket (admitting through its per-class column sweep, exactly as in a
// private Cache) behind a per-bucket mutex. The lock-free mirror of its
// admission epoch, which lets pullers skip unchanged buckets without
// taking the lock, lives outside it in its chunk's dense mirror array
// (see bucketChunk), so a scan never loads the header of an unchanged
// bucket.
type sharedBucket struct {
	mu sync.Mutex //rmq:lock bucket 2
	// lastVer is the store's repSeq value at this bucket's most recent
	// change, guarded by mu rather than atomic: Export must never
	// observe a cursor ≥ some change's sequence while missing the change
	// itself, and the bucket critical section gives that for free where a
	// lock-free mirror would need seq_cst fences.
	lastVer uint64
	b       Bucket
}

// NewShared returns an empty shared store that owns the given interner.
// retain is the retention precision α; values below 1 (including 0)
// select exact retention.
func NewShared(in *tableset.Interner, retain float64) *Shared {
	if retain < 1 {
		retain = 1
	}
	return &Shared{in: in, retain: retain}
}

// Interner returns the store's id authority. Cost models of every
// worker that publishes into or pulls from the store must be built over
// it (costmodel.NewWithInterner).
func (s *Shared) Interner() *tableset.Interner { return s.in }

// Retention returns the store's retention precision α.
func (s *Shared) Retention() float64 { return s.retain }

// Stats returns the number of table sets and plans currently retained.
func (s *Shared) Stats() (sets, plans int) {
	return int(s.sets.Load()), int(s.plans.Load())
}

// NextIteration advances and returns the store's cumulative iteration
// counter. Attached optimizers call it once per step and feed the
// result to their precision schedule, so the α driving admissions
// reflects the total work ever invested in the store's frontiers.
func (s *Shared) NextIteration() int { return int(s.iters.Add(1)) }

// Iterations returns the cumulative iteration count.
func (s *Shared) Iterations() int { return int(s.iters.Load()) }

// bucketAt returns the shared bucket for id, its epoch mirror and its
// slot, creating the bucket if absent. The id table grows
// geometrically, seeded from the interner's reserved capacity; buckets
// and mirrors come from the current chunk.
func (s *Shared) bucketAt(id tableset.ID) (sb *sharedBucket, mirror *atomic.Uint64, slot int) {
	s.mu.RLock()
	if int(id) < len(s.slots) && s.slots[id] != 0 {
		slot = int(s.slots[id]) - 1
		sb, mirror = slotAt(s.chunks, slot)
		s.mu.RUnlock()
		return sb, mirror, slot
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.slots) {
		grown := make([]int32, max(2*len(s.slots), s.in.CapHint(), int(id)+1)) //rmq:allow-alloc(geometric table growth, amortized)
		copy(grown, s.slots)
		s.slots = grown
	}
	if s.slots[id] == 0 {
		if s.n == len(s.chunks)*sharedBucketsPerSlab {
			s.chunks = append(s.chunks, bucketChunk{ //rmq:allow-alloc(the chunk list grows once per chunk)
				buckets: make([]sharedBucket, sharedBucketsPerSlab),  //rmq:allow-alloc(a chunk of shared buckets, one per table set, created on first contact)
				mirrors: make([]atomic.Uint64, sharedBucketsPerSlab), //rmq:allow-alloc(the chunk's epoch mirrors, 8 bytes per bucket)
			})
		}
		sb, _ = slotAt(s.chunks, s.n)
		sb.b.id = id
		s.n++
		s.slots[id] = int32(s.n)
		s.sets.Add(1)
	}
	slot = int(s.slots[id]) - 1
	sb, mirror = slotAt(s.chunks, slot)
	return sb, mirror, slot
}

// admit is the store's one admission block, shared by Publish and
// MergeBucket. It offers plans to sb at precision retain and publishes
// the change in the order readers rely on. Under the bucket lock it
// inserts the plans, stamps lastVer from repSeq (Export's cursor) and
// stores the bucket's epoch mirror. After the unlock it adds to the
// plan count and only then advances version: atomic operations are
// totally ordered, so a puller that observes the new version also
// observes the bucket change. It returns the bucket's admission epochs before and
// after, and the new version (0 when nothing was admitted, in which
// case neither counter moves).
//
//rmq:hotpath
func (s *Shared) admit(sb *sharedBucket, mirror *atomic.Uint64, plans []*plan.Plan, retain float64) (before, after, version uint64) {
	sb.mu.Lock()
	before = sb.b.epoch
	n0 := len(sb.b.plans)
	for _, p := range plans {
		sb.b.Insert(p, retain)
	}
	after = sb.b.epoch
	grew := len(sb.b.plans) - n0
	if after != before {
		sb.lastVer = s.repSeq.Add(1)
		mirror.Store(after)
	}
	sb.mu.Unlock()
	if after == before {
		return before, after, 0
	}
	s.plans.Add(int64(grew))
	return before, after, s.version.Add(1)
}

// SyncState is one worker's handle on a Shared store. It remembers, per
// shared bucket, how far the worker has pulled and rides the private
// cache's own admission epochs for publishing, so both directions of a
// sync move only deltas. A SyncState belongs to exactly one goroutine
// (like the private cache it syncs); the Shared store it points at is
// the concurrency-safe rendezvous.
type SyncState struct {
	shared  *Shared
	seen    uint64       // Shared.version at the end of the last Pull
	pulled  []uint64     // per shared-bucket slot: admission mark already imported
	changed []int32      // scratch for the changed-bucket scan: slots
	buf     []*plan.Plan // scratch for copying deltas out of locked buckets
	slab    bucketSlab   // chunks adopted buckets' arrays are carved from
}

// NewSync returns a fresh sync handle on the store. A handle whose
// marks are all zero pulls the store's entire contents on its first
// Pull — the session warm start.
func (s *Shared) NewSync() *SyncState { return &SyncState{shared: s} }

// Publish pushes every plan admitted to c since the previous Publish
// into the shared store, walking only c's dirty buckets. It reports the
// number of plans the store admitted.
//
// Plans this worker publishes are excluded from its own future Pulls
// when no other worker's plans interleaved in the same bucket, so a
// solitary worker's sync loop is a pair of no-ops in the steady state.
//
//rmq:hotpath
func (st *SyncState) Publish(c *Cache) (published int) {
	if len(c.dirty) == 0 {
		return 0
	}
	sh := st.shared
	retain := sh.EffectiveRetention()
	for _, b := range c.dirty {
		b.dirty = false
		fresh := b.Since(b.syncMark)
		b.syncMark = b.epoch
		if len(fresh) == 0 {
			continue
		}
		sb, mirror, slot := sh.bucketAt(b.id)
		before, after, nv := sh.admit(sb, mirror, fresh, retain)
		if after == before {
			continue
		}
		published += int(after - before)
		// When our own version bump is the only one since this worker's
		// last Pull, absorb it into the seen mark — otherwise every
		// solitary publish would defeat Pull's single-atomic-load fast
		// path and trigger a full no-op table scan (version is add-only,
		// so the check is exact).
		if nv == st.seen+1 {
			st.seen = nv
		}
		// What this worker just published it need not pull back; the
		// mark advance is exact only when its pull mark sat at the
		// pre-publish epoch (no other worker interleaved unseen plans).
		st.grow(slot + 1)
		if st.pulled[slot] == before {
			st.pulled[slot] = after
		}
	}
	c.dirty = c.dirty[:0]
	return published
}

// Pull imports every plan published to the store since the previous
// Pull into c, at exact precision (α = 1: only dominated candidates are
// rejected), and reports how many were admitted. On a fresh SyncState
// this imports the whole store — the warm start that hands a new run
// the session's accumulated sub-plan frontiers before its first
// iteration.
//
// The steady-state fast path is a single atomic load: when nothing was
// published since the last Pull, it returns without scanning, locking
// or allocating.
//
// A bucket the handle has never pulled (mark 0) into a private bucket
// that has never admitted (epoch 0) is adopted in one step instead of
// offered plan by plan (see adopt) — the warm start's common case.
//
//rmq:hotpath
func (st *SyncState) Pull(c *Cache) (imported int) {
	sh := st.shared
	v := sh.version.Load()
	if v == st.seen {
		return 0
	}
	// Publishes that land during the scan below may or may not be seen;
	// recording the pre-scan version means the next Pull rescans anything
	// that could have been missed, and the per-bucket marks make rescans
	// exact.
	st.seen = v
	// Take the chunk list and the slot count under the table read lock,
	// then scan without it: the chunks below n never move and their
	// buckets were initialized before n covered them, and new buckets
	// land in slots past n, which the next Pull scans. The scan compares
	// the dense epoch mirrors against the handle's marks, so an
	// unchanged bucket costs one 8-byte load and is never locked.
	sh.mu.RLock()
	n, ids, chunks := sh.n, len(sh.slots), sh.chunks
	sh.mu.RUnlock()
	st.grow(n)
	st.changed = st.changed[:0]
	for base := 0; base < n; base += sharedBucketsPerSlab {
		mirrors := chunks[base/sharedBucketsPerSlab].mirrors[:min(sharedBucketsPerSlab, n-base)]
		marks := st.pulled[base : base+len(mirrors)]
		for i := range mirrors {
			if mirrors[i].Load() != marks[i] {
				st.changed = append(st.changed, int32(base+i)) //rmq:allow-alloc(reused scratch; grows to the changed-bucket high-water mark)
			}
		}
	}
	if len(st.changed) > 0 {
		// Size the private table once for the whole import rather than
		// doubling it bucket by bucket through a warm start.
		c.growTable(ids)
	}
	for _, slot := range st.changed {
		sb, _ := slotAt(chunks, int(slot))
		id := sb.b.id // written once at creation, before the slot was published
		sb.mu.Lock()
		if st.pulled[slot] == 0 && len(sb.b.plans) > 0 && c.unborn(id) {
			imported += c.bucketAt(id).adopt(&sb.b, &st.slab)
			st.pulled[slot] = sb.b.epoch
			sb.mu.Unlock()
			continue
		}
		st.buf = append(st.buf[:0], sb.b.Since(st.pulled[slot])...) //rmq:allow-alloc(reused scratch; grows to the delta high-water mark)
		st.pulled[slot] = sb.b.epoch
		sb.mu.Unlock()
		if len(st.buf) == 0 {
			continue
		}
		pb := c.bucketAt(id)
		unpublished := pb.syncMark != pb.epoch
		for _, p := range st.buf {
			if pb.Insert(p, 1) {
				imported++
			}
		}
		// Everything just imported is already in the store, so advance
		// the publish mark past it — unless the bucket held plans not yet
		// published, which must not be skipped over.
		if !unpublished {
			pb.syncMark = pb.epoch
		}
	}
	return imported
}

// unborn reports whether the cache's bucket for id is absent or has
// never admitted a plan.
//
//rmq:hotpath
func (c *Cache) unborn(id tableset.ID) bool {
	return int(id) >= len(c.buckets) || c.buckets[id] == nil || c.buckets[id].epoch == 0
}

// adopt fills an unborn private bucket with the shared bucket src's
// whole frontier — the state offering src's plans one by one through
// Insert at α = 1 would reach, built directly. That shortcut is exact
// because src is a per-output-class antichain (every write path of a
// shared bucket keeps it one: Insert, MergeBucket and shed by
// construction, ImportBucket by check). Into an empty bucket each
// offer is then admitted, since no earlier plan weakly dominates it,
// and evicts nothing, since it weakly dominates no earlier plan. So
// the Insert loop would keep src's plans in src's order, stamp epochs
// 1..n, append each class's costs in class order — src's columns — and
// fold the corner over the plans in order; count the plans, enlist the
// bucket as dirty, and leave it fully published (syncMark = epoch,
// since the bucket had nothing unpublished). The caller holds src's
// lock. It returns the number of plans adopted.
//
// The bucket's plans, epochs and class cost blocks are windows carved
// from slab's chunks, each with cap equal to len: a warm start adopts
// tens of thousands of buckets at a few allocations per chunk rather
// than several per bucket. Insert clears the windows a growing or
// evicting bucket abandons, so none keeps an evicted plan reachable.
//
//rmq:hotpath
func (b *Bucket) adopt(src *Bucket, slab *bucketSlab) int {
	n := len(src.plans)
	b.plans = carve(&slab.plans, n)
	copy(b.plans, src.plans)
	b.epochs = carve(&slab.epochs, n)
	for i := range b.epochs {
		b.epochs[i] = uint64(i + 1)
	}
	b.epoch = uint64(n)
	var counts [plan.NumOutputProps]int
	for out := range counts {
		counts[out] = src.cols[out].Len()
	}
	b.reserveCols(b.plans[0].Cost.N, counts, &slab.costs)
	for out := range b.cols {
		b.cols[out].AppendColumns(&src.cols[out])
	}
	b.corner = b.plans[0].Cost
	for _, p := range b.plans[1:] {
		b.corner = b.corner.Min(p.Cost)
	}
	if c := b.cache; c != nil {
		c.plans += n
		if c.track && !b.dirty {
			b.dirty = true
			c.dirty = append(c.dirty, b) //rmq:allow-alloc(grows once per bucket per sync interval)
		}
	}
	b.syncMark = b.epoch
	return n
}

// Sync is one full exchange: publish this worker's new plans, then pull
// everyone else's. Optimizers call it between iterations.
func (st *SyncState) Sync(c *Cache) (published, imported int) {
	published = st.Publish(c)
	imported = st.Pull(c)
	return published, imported
}

// grow widens the pulled-mark table to at least n entries.
func (st *SyncState) grow(n int) {
	if len(st.pulled) < n {
		st.pulled = append(st.pulled, make([]uint64, n-len(st.pulled))...) //rmq:allow-alloc(mark table growth, once per store growth)
	}
}
