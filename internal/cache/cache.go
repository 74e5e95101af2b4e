// Package cache implements the partial-plan Pareto cache of Algorithm 1
// (the P variable) together with PruneApprox, the pruning function of
// Algorithm 3 (α-approximate pruning, which bounds the number of cached
// plans per table set polynomially, Lemma 6).
//
// The cache maps every table set encountered so far (a potentially useful
// intermediate result) to the non-dominated partial plans generating it.
// It is the mechanism by which RMQ shares partial plans across iterations
// of the main loop: newly generated plans are decomposed and dominated
// sub-plans are replaced by cached Pareto partial plans, possibly with
// different join orders.
//
// # Admission
//
// The frontier-approximation inner loop is admission-test bound: almost
// every recombined candidate is rejected. The frontier data layout is
// therefore columnar: every bucket mirrors, per output representation,
// its plans' cost vectors in one cost.Columns block (a single
// column-major allocation holding one column per metric, parallel to
// admission order, that grows as a whole), and the admission test of
// Algorithm 3 — does any same-output plan α-dominate the candidate? — is
// one batch sweep over that block (Bucket.Admits). Lemma 6 keeps each
// table set's frontier small, so the plain sweep is the whole admission
// path; it decides bit-identically to the per-plan reference scan
// (WouldAdmit). Eviction is pre-checked through the same columns
// (DominatesAny): a new plan that dominates no same-output plan cannot
// evict anything, so the per-plan strict-dominance walk is skipped — on
// the frontier's fast path an admission costs one batch sweep.
//
// The columns are pure derived state, maintained incrementally under the
// same lock discipline as the plan slice they shadow: admissions
// append, evictions compact in lockstep with the surviving plans,
// wholesale rewrites rebuild them from the plan slice (rebuildMirrors
// after shed, importMirrors on snapshot import) — the wire formats
// serialize plans only — and a warm start that adopts a whole shared
// bucket copies them (SyncState.Pull). Those two bulk builds carve each
// bucket's blocks, and an adopted bucket's plan and epoch arrays, from
// shared 32 KiB chunks (see carve and reserveCols), so they do not
// allocate per bucket.
//
// Every bucket is a per-output-class antichain: no plan weakly dominates
// another plan of its class. Insert keeps that by construction (it
// admits only plans no member α-dominates and evicts the members the
// newcomer weakly dominates), shed keeps a subset, and ImportBucket
// rejects frontiers that break it. The warm start's bucket adoption is
// exact only because of it.
//
// # Generations and deltas
//
// Every bucket stamps admissions with a monotone epoch; plans are kept
// in admission order so the plans admitted after a given mark form a
// suffix (Since). The marks power delta-based merging of parallel
// worker frontiers (see internal/opt.DeltaFrontier) and the shared
// store's publish and pull deltas.
//
// # Concurrency model
//
// A Cache is single-goroutine: one optimizer run owns it and probes it
// lock-free. Cross-worker and cross-run sharing happens through the
// session-scoped Shared store instead: each worker keeps its private
// Cache and exchanges admission deltas with the store between
// iterations through a SyncState (publish what the private cache
// admitted, pull what other workers published, warm-start by pulling
// everything on first contact). The store is the only concurrent
// structure — per-bucket mutexes over ordinary Buckets, with lock-free
// epoch mirrors and a store-wide version counter so steady-state syncs
// are a single atomic load. The mirrors sit in dense arrays beside the
// store's bucket chunks, so a pull's changed-bucket scan reads 8 bytes
// per unchanged bucket and locks only the changed ones. See shared.go
// for the full model and the retention bound.
//
//rmq:deterministic
package cache

import (
	"rmq/internal/cost"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// SigBetter is the coarsened comparison of Algorithm 3: p1 is
// significantly better than p2 under factor α if it produces the same
// output representation and approximately dominates it (p1 ⪯α p2).
func SigBetter(p1, p2 *plan.Plan, alpha float64) bool {
	return plan.SameOutput(p1, p2) && p1.Cost.ApproxDominates(p2.Cost, alpha)
}

// WouldAdmit reports whether a plan with the given cost vector and output
// representation would pass PruneApprox's admission test against plans.
// It is the per-plan reference scan; buckets answer the same question
// through the columnar Bucket.Admits, and the differential tests pin the
// two to identical decisions.
func WouldAdmit(plans []*plan.Plan, vec cost.Vector, out plan.OutputProp, alpha float64) bool {
	for _, p := range plans {
		if p.Output == out && p.Cost.ApproxDominates(vec, alpha) {
			return false
		}
	}
	return true
}

// PruneApprox is the pruning function of Algorithm 3: the new plan is
// admitted only if no existing same-output plan approximately dominates
// it under factor α; on admission, existing plans that the new plan
// (weakly) dominates are evicted. It returns the updated slice and
// whether the new plan was admitted. With α = 1 the result is a plain
// Pareto set per output format; larger α yields the sparser
// α-approximate frontiers whose size Lemma 6 bounds. It is the
// reference implementation of Bucket.Insert.
func PruneApprox(plans []*plan.Plan, newPlan *plan.Plan, alpha float64) ([]*plan.Plan, bool) {
	if !WouldAdmit(plans, newPlan.Cost, newPlan.Output, alpha) {
		return plans, false
	}
	keep := plans[:0]
	for _, p := range plans {
		if !SigBetter(newPlan, p, 1) {
			keep = append(keep, p)
		}
	}
	return append(keep, newPlan), true
}

// Bucket holds the frontier of one table set. Obtaining the bucket once
// and operating on it directly avoids repeated map lookups in the
// frontier-approximation inner loops. Plans are kept in admission order,
// so delta consumers (Since) see newly admitted plans as a suffix.
type Bucket struct {
	plans  []*plan.Plan
	epochs []uint64 // admission epoch per plan; ascending
	epoch  uint64   // admissions ever (evictions do not decrease it)
	cache  *Cache

	// id is the interned id of the bucket's table set; shared-cache
	// synchronization uses it to address the session store without
	// re-interning.
	id tableset.ID
	// dirty marks membership on the cache's dirty list; syncMark is the
	// admission epoch up to which the bucket's plans have been published
	// to the session's shared cache (see SyncState in shared.go).
	dirty    bool
	syncMark uint64

	// cols holds the frontier's cost vectors per output class, one
	// column-major block per class in the class's admission order. Every
	// dominance predicate of Algorithm 3 compares only same-output plans,
	// so per-class blocks cover all of admission and eviction (see the
	// package doc).
	cols [plan.NumOutputProps]cost.Columns
	// corner is the running component-wise minimum over every admission
	// (N == 0 until the first). Evictions may leave it lower than the
	// current frontier's true minimum, which only loosens (never
	// unsounds) the floors built on it: a lower bound of a superset
	// bounds the subset.
	corner cost.Vector
}

// Plans returns the bucket's frontier in admission order; callers must
// not modify it.
func (b *Bucket) Plans() []*plan.Plan { return b.plans }

// Epoch returns the bucket's admission mark: the number of plans ever
// admitted. Pass it to Since later to enumerate what arrived in between.
func (b *Bucket) Epoch() uint64 { return b.epoch }

// Since returns the bucket plans admitted after mark (0 = everything),
// in admission order. Plans admitted after mark but already evicted
// again do not appear; dominance-based consumers lose nothing, since
// every evicted plan is weakly dominated by a surviving same-output
// plan. Callers must not modify the returned slice.
//
//rmq:hotpath
func (b *Bucket) Since(mark uint64) []*plan.Plan {
	return b.plans[epochSuffix(b.epochs, mark):]
}

// epochSuffix returns the index of the first entry of the ascending
// epochs slice strictly greater than mark — the start of the "admitted
// since mark" suffix.
//
//rmq:hotpath
func epochSuffix(epochs []uint64, mark uint64) int {
	lo, hi := 0, len(epochs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if epochs[mid] > mark {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Admits reports whether a plan with the given cost and output
// representation would be admitted under factor α: one batch sweep over
// the output class's cost columns, bit-identical to the WouldAdmit scan.
//
// Recombination also probes it with admission floors — component-wise
// lower bounds on a whole group of candidates. Every join operator's cost
// is the children's cost combination plus non-negative operator terms,
// so when the bucket rejects the floor it provably rejects every
// candidate above it (q ⪯α floor and floor ≤ vec imply q ⪯α vec) and the
// caller can skip pricing the group.
//
//rmq:hotpath
func (b *Bucket) Admits(vec cost.Vector, out plan.OutputProp, alpha float64) bool {
	return !b.cols[out].ApproxDominatedBy(vec, alpha)
}

// Corner returns a component-wise lower bound on every plan of the
// frontier (all output representations); it is meaningful only once the
// bucket has admitted a plan. It is the running minimum over all
// admissions — after evictions it may sit below the surviving frontier,
// which keeps it a valid (merely looser) lower bound. Combining two
// buckets' corners lower-bounds every recombination candidate of the two
// frontiers: the whole-visit admission floor.
func (b *Bucket) Corner() cost.Vector {
	return b.corner
}

// Insert prunes newPlan into the bucket under factor α — the PruneApprox
// step of Algorithm 3 — and reports whether it was admitted. The
// surviving frontier is bit-identical to the PruneApprox reference (same
// admission decision, same plans, same order).
//
// The eviction walk is gated by a DominatesAny column sweep over the
// new plan's output class: SigBetter requires SameOutput, so when the
// new plan dominates no class member there is provably nothing to evict
// and the per-plan walk is skipped entirely — the common case, since
// most admissions extend the frontier rather than replace part of it.
// The class columns are updated in lockstep with the plan slice either
// way.
//
//rmq:hotpath
func (b *Bucket) Insert(newPlan *plan.Plan, alpha float64) bool {
	if !b.Admits(newPlan.Cost, newPlan.Output, alpha) {
		return false
	}
	evicted := 0
	out := newPlan.Output
	cols := &b.cols[out]
	if cols.DominatesAny(newPlan.Cost) {
		// Evict plans the new one weakly dominates, preserving admission
		// order; SigBetter requires SameOutput, so only one output class
		// changes and its columns compact in lockstep (cj walks the class
		// as a subsequence of the bucket's admission order).
		keep := b.plans[:0]
		keepEp := b.epochs[:0]
		ck, cj := 0, 0
		for i, p := range b.plans {
			inClass := p.Output == out
			if SigBetter(newPlan, p, 1) {
				evicted++
			} else {
				keep = append(keep, p) //rmq:allow-alloc(appends into b.plans[:0]; capacity already exists)
				keepEp = append(keepEp, b.epochs[i])
				if inClass {
					cols.Move(ck, cj)
					ck++
				}
			}
			if inClass {
				cj++
			}
		}
		// The slots past the survivors still point at plans, evicted ones
		// among them; clear them so evicted plans stay collectable.
		clear(b.plans[len(keep):])
		b.plans = keep
		b.epochs = keepEp
		cols.Truncate(ck)
	}
	if len(b.plans) == cap(b.plans) {
		b.growArrays()
	}
	b.plans = append(b.plans, newPlan) //rmq:allow-alloc(growArrays made room)
	b.epoch++
	b.epochs = append(b.epochs, b.epoch) //rmq:allow-alloc(growArrays made room)
	if c := b.cache; c != nil {
		c.plans += 1 - evicted
		if c.track && !b.dirty {
			b.dirty = true
			c.dirty = append(c.dirty, b) //rmq:allow-alloc(grows once per bucket per sync interval)
		}
	}
	cols.Append(newPlan.Cost)
	if b.corner.N == 0 {
		b.corner = newPlan.Cost
	} else {
		b.corner = b.corner.Min(newPlan.Cost)
	}
	return true
}

// growArrays moves the bucket's plans and epochs, which are full, into
// arrays of twice their length and at least 8: most buckets stay that
// small, so a bucket's first admission makes one sized allocation each
// instead of a doubling ladder. It clears the abandoned plan array. A
// restored or adopted bucket's arrays are windows of chunks shared with
// other buckets (see ImportBucket and adopt), which would otherwise
// keep every plan the bucket held then reachable, evicted or not.
//
//rmq:hotpath
func (b *Bucket) growArrays() {
	n := len(b.plans)
	size := max(2*n, 8)
	plans := make([]*plan.Plan, n, size) //rmq:allow-alloc(admission retains the plan; growth is amortized and the hot rejecting case returns before this)
	copy(plans, b.plans)
	clear(b.plans)
	epochs := make([]uint64, n, size) //rmq:allow-alloc(admission retains the mark; growth is amortized)
	copy(epochs, b.epochs)
	b.plans, b.epochs = plans, epochs
}

// Cache is the plan cache P: for each table set, the frontier of
// non-dominated partial plans found so far. Not safe for concurrent use;
// each optimizer run owns one.
//
// Buckets are indexed by the interned table-set id (tableset.ID) rather
// than a Set-keyed map, so the probes of the frontier-approximation inner
// loop are array loads instead of hashes. The cache therefore shares the
// interner of the cost model whose plans it stores: plan.RelID values
// index directly into the bucket table, and every cached plan carries
// one.
type Cache struct {
	in      *tableset.Interner
	buckets []*Bucket // indexed by tableset.ID; index 0 unused
	// track enables dirty-bucket tracking for shared-cache publication:
	// buckets that admit a plan enqueue themselves on dirty exactly once,
	// so a SyncState publish touches only what changed since the last one.
	track bool
	dirty []*Bucket
	sets  int
	plans int
	slab  []Bucket // buckets allocated but not yet handed out
}

// New returns an empty cache over the given interner, which must be the
// one of the cost model constructing the cached plans (see
// costmodel.Model.Interner) so that plan RelIDs agree with bucket
// indices. Lookups by a plan's interned id (BucketFor, Insert,
// SyncState.Pull) never consult the interner.
func New(in *tableset.Interner) *Cache {
	return &Cache{in: in}
}

// newBucket returns an empty bucket wired to the cache, carved from the
// cache's current chunk of buckets (see bucketSlabBytes).
func (c *Cache) newBucket() *Bucket {
	if len(c.slab) == 0 {
		c.slab = make([]Bucket, bucketsPerSlab) //rmq:allow-alloc(a chunk of buckets, one per table set, created on first contact)
	}
	b := &c.slab[0]
	c.slab = c.slab[1:]
	b.cache = c
	return b
}

// growTable widens the bucket table to hold every id below n. It grows
// to at least the interner's reserved capacity, so a table over an
// interner that already holds every set earlier runs met is sized
// once, and at least doubles, so a run meeting freshly interned sets
// one at a time recopies it only logarithmically often.
func (c *Cache) growTable(n int) {
	if n <= len(c.buckets) {
		return
	}
	grown := make([]*Bucket, max(2*len(c.buckets), c.in.CapHint(), n)) //rmq:allow-alloc(geometric table growth, amortized)
	copy(grown, c.buckets)
	c.buckets = grown
}

// bucketAt returns the bucket with the given id, creating it if absent.
func (c *Cache) bucketAt(id tableset.ID) *Bucket {
	// growTable consults the interner and is not inlined, so the bounds
	// test stays here, on the hot path.
	if int(id) >= len(c.buckets) {
		c.growTable(int(id) + 1)
	}
	b := c.buckets[id]
	if b == nil {
		b = c.newBucket()
		b.id = id
		c.buckets[id] = b
		c.sets++
	}
	return b
}

// Bucket returns the bucket for the table set, creating it if absent.
func (c *Cache) Bucket(rel tableset.Set) *Bucket { return c.bucketAt(c.in.Intern(rel)) }

// BucketFor returns the bucket holding plans for p's table set, addressed
// by the plan's interned id; a plan without one (RelID 0) is a bug.
func (c *Cache) BucketFor(p *plan.Plan) *Bucket {
	if p.RelID == 0 {
		panic("cache: plan without an interned table-set id")
	}
	return c.bucketAt(p.RelID)
}

// GetID returns the cached frontier for the interned table-set id; nil if
// nothing is cached. Callers must not modify the returned slice.
func (c *Cache) GetID(id tableset.ID) []*plan.Plan {
	if int(id) < len(c.buckets) {
		if b := c.buckets[id]; b != nil {
			return b.plans
		}
	}
	return nil
}

// Get returns the cached frontier for the table set (P[rel]); nil if
// nothing is cached. Callers must not modify the returned slice.
func (c *Cache) Get(rel tableset.Set) []*plan.Plan { return c.GetID(c.in.Intern(rel)) }

// Insert prunes newPlan into the frontier of its table set using
// PruneApprox semantics with the given α and reports whether it was
// admitted.
func (c *Cache) Insert(newPlan *plan.Plan, alpha float64) bool {
	return c.BucketFor(newPlan).Insert(newPlan, alpha)
}

// TrackDirty enables dirty-bucket tracking: from now on every bucket
// that admits a plan registers itself (once) on an internal dirty list,
// which SyncState.Publish drains to push deltas into a session's shared
// cache. Tracking costs one flag test per admission and is off for
// private runs.
func (c *Cache) TrackDirty() { c.track = true }

// NumSets returns the number of distinct table sets with cached plans.
func (c *Cache) NumSets() int { return c.sets }

// NumPlans returns the total number of cached plans across all table
// sets.
func (c *Cache) NumPlans() int { return c.plans }
