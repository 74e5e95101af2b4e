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
// its plans' cost vectors in a cost.Columns block (one contiguous column
// per metric, parallel to admission order), and the admission test of
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
// bucket copies them (SyncState.Pull).
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
// suffix (Since). Join-node recombination uses this to become
// incremental: BeginRecomb remembers, per (parent, outer-child,
// inner-child) partition, the child epochs and precision of the last
// visit, skips visits whose children are unchanged at the same-or-
// coarser α, and otherwise narrows recombination to the pairs involving
// a newly admitted child plan. The same marks power delta-based merging
// of parallel worker frontiers (see internal/opt.DeltaFrontier).
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
// are a single atomic load. See shared.go for the full model and the
// retention bound.
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

// maxRecombStates bounds the per-bucket partition memo; partitions past
// the bound recombine fully on every visit (correct, just not
// incremental). Only pathologically long runs on huge queries reach it.
const maxRecombStates = 4096

// recombLinearCutoff is the partition-memo size up to which lookups
// scan the memo slice directly instead of hashing a bucketPair map key.
// Most buckets see a handful of partitions for the lifetime of a run,
// and the steady-state re-approximation loop performs one lookup per
// join node per iteration — the map hash was its single largest cost.
const recombLinearCutoff = 8

// bucketPair keys the partition memo of incremental recombination.
// Buckets are stable for the lifetime of a cache, so the child bucket
// identities name the partition.
type bucketPair struct {
	outer, inner *Bucket
}

// recombState remembers one partition's last visit: which partition it
// is, how far into each child frontier the pairs have been offered, and
// the coarsest α any of those offers still covers exactly.
type recombState struct {
	key                  bucketPair
	outerMark, innerMark uint64
	// covered is the maximum α at which any already-formed pair was last
	// offered. Offers at α' ≥ covered of previously offered pairs are
	// provably no-ops (rejection persists under eviction, admitted plans
	// re-reject), so delta visits are exact; a visit at α' < covered must
	// re-offer the full cross product, since a finer precision can admit
	// previously rejected candidates.
	covered float64
}

// Visit describes the pair ranges one join-node recombination must
// offer, as computed by BeginRecomb.
type Visit struct {
	// Outers and Inners are the children's full current frontiers, in
	// admission order. Callers must not modify them.
	Outers, Inners []*plan.Plan
	// NewOuters and NewInners are the suffixes of Outers/Inners admitted
	// since the partition's last visit (empty on full visits).
	NewOuters, NewInners []*plan.Plan
	// Full requests the complete cross product (first visit, or a finer
	// α than every earlier offer).
	Full bool
	// Skip reports that no pair needs offering: the children are
	// unchanged since the last visit at a same-or-coarser α.
	Skip bool
}

// Bucket holds the frontier of one table set. Obtaining the bucket once
// and operating on it directly avoids repeated map lookups in the
// frontier-approximation inner loops. Plans are kept in admission order,
// so delta consumers (Since, BeginRecomb) see newly admitted plans as a
// suffix.
type Bucket struct {
	plans  []*plan.Plan
	epochs []uint64 // admission epoch per plan; ascending
	epoch  uint64   // admissions ever (evictions do not decrease it)
	cache  *Cache

	// id is the interned id of the bucket's table set (NoID for overflow
	// buckets); shared-cache synchronization uses it to address the
	// session store without re-interning.
	id tableset.ID
	// dirty marks membership on the cache's dirty list; syncMark is the
	// admission epoch up to which the bucket's plans have been published
	// to the session's shared cache (see SyncState in shared.go).
	dirty    bool
	syncMark uint64

	// cols holds the frontier's cost vectors per output class, column-
	// wise in the class's admission order. Every dominance predicate of
	// Algorithm 3 compares only same-output plans, so per-class columns
	// cover all of admission and eviction (see the package doc).
	cols [plan.NumOutputProps]cost.Columns
	// corner is the running component-wise minimum over every admission.
	// Evictions may leave it lower than the current frontier's true
	// minimum, which only loosens (never unsounds) the floors built on
	// it: a lower bound of a superset bounds the subset.
	corner    cost.Vector
	hasCorner bool

	recombs   []recombState
	recombIdx map[bucketPair]int

	// scanCovered is the finest α at which the bucket's full scan-
	// operator set has been offered (0 = never); see BeginScans.
	scanCovered float64
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
	if b.plans == nil {
		// Batch the first allocations: most buckets stay this small, so
		// one sized allocation replaces a doubling ladder.
		b.plans = make([]*plan.Plan, 0, 8) //rmq:allow-alloc(one sized allocation on a bucket's first admission)
		b.epochs = make([]uint64, 0, 8)    //rmq:allow-alloc(one sized allocation on a bucket's first admission)
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
	old := b.plans
	b.plans = append(b.plans, newPlan) //rmq:allow-alloc(admission retains the plan; growth is amortized and the hot rejecting case returns before this)
	if cap(b.plans) != cap(old) {
		// Growing abandoned the old array. Clear it: a restored bucket's
		// array is a window of a slab shared with other buckets (see
		// ImportBucket), which would otherwise keep every plan the bucket
		// held at restore time reachable, evicted or not.
		clear(old)
	}
	b.epoch++
	b.epochs = append(b.epochs, b.epoch) //rmq:allow-alloc(admission retains the mark; growth is amortized)
	if c := b.cache; c != nil {
		c.plans += 1 - evicted
		if c.track && !b.dirty {
			b.dirty = true
			c.dirty = append(c.dirty, b) //rmq:allow-alloc(grows once per bucket per sync interval)
		}
	}
	cols.Append(newPlan.Cost)
	if b.hasCorner {
		b.corner = b.corner.Min(newPlan.Cost)
	} else {
		b.corner = newPlan.Cost
		b.hasCorner = true
	}
	return true
}

// BeginRecomb plans an incremental recombination of this bucket from the
// two child buckets at precision α: it looks up the partition's last
// visit, fills v with the pair ranges that still need offering (see
// Visit), and records the children's current admission marks for the
// next visit. Offering exactly the returned ranges yields a bucket
// state bit-identical to recombining the full cross product on every
// visit, provided pairs are offered in admission order with the old×new
// pairs first (the order of the full product restricted to fresh
// pairs). v is an out-parameter so the steady-state loop — which Skips
// almost every visit — never copies the full Visit through a return.
//
//rmq:hotpath
func (b *Bucket) BeginRecomb(outer, inner *Bucket, alpha float64, v *Visit) {
	*v = Visit{Outers: outer.plans, Inners: inner.plans}
	i := b.findRecomb(bucketPair{outer, inner})
	if i < 0 {
		v.Full = true
		b.addRecomb(bucketPair{outer, inner}, recombState{
			key:       bucketPair{outer, inner},
			outerMark: outer.epoch, innerMark: inner.epoch, covered: alpha,
		})
		return
	}
	st := &b.recombs[i]
	if alpha < st.covered {
		// Finer precision than some earlier offer: previously rejected
		// candidates may now be admissible — redo the full product.
		st.covered = alpha
		st.outerMark, st.innerMark = outer.epoch, inner.epoch
		v.Full = true
		return
	}
	if outer.epoch == st.outerMark && inner.epoch == st.innerMark {
		// Epoch counters unchanged means no admissions since the marks:
		// the converged steady state, decided without the Since binary
		// searches below. (Epochs above the marks can still yield empty
		// suffixes when every newcomer was evicted again.)
		v.Skip = true
		return
	}
	v.NewOuters = outer.Since(st.outerMark)
	v.NewInners = inner.Since(st.innerMark)
	if len(v.NewOuters) == 0 && len(v.NewInners) == 0 {
		v.Skip = true
		return
	}
	if alpha > st.covered {
		st.covered = alpha
	}
	st.outerMark, st.innerMark = outer.epoch, inner.epoch
}

// findRecomb returns the index of the partition's memo entry, or -1.
// Small memos — almost all of them — are scanned linearly; only past
// recombLinearCutoff does the bucket build and consult the map. The
// linear scan replaces the aeshash-per-lookup that dominated the
// steady-state profile.
//
//rmq:hotpath
func (b *Bucket) findRecomb(key bucketPair) int {
	if b.recombIdx != nil {
		if i, ok := b.recombIdx[key]; ok {
			return i
		}
		return -1
	}
	for i := range b.recombs {
		if b.recombs[i].key == key {
			return i
		}
	}
	return -1
}

// addRecomb records a new partition's memo entry, upgrading the lookup
// structure to a map once the memo outgrows the linear-scan cutoff.
func (b *Bucket) addRecomb(key bucketPair, st recombState) {
	if len(b.recombs) >= maxRecombStates {
		return
	}
	if b.recombIdx != nil {
		b.recombIdx[key] = len(b.recombs) //rmq:allow-alloc(per-partition memo, filled once per partition)
	} else if len(b.recombs) == recombLinearCutoff {
		b.recombIdx = make(map[bucketPair]int, 4*recombLinearCutoff) //rmq:allow-alloc(per-partition memo map, built once per bucket on outgrowing the linear scan)
		for j := range b.recombs {
			b.recombIdx[b.recombs[j].key] = j //rmq:allow-alloc(one-time map upgrade, amortized over the bucket's lifetime)
		}
		b.recombIdx[key] = len(b.recombs) //rmq:allow-alloc(one-time map upgrade, amortized over the bucket's lifetime)
	}
	b.recombs = append(b.recombs, st) //rmq:allow-alloc(per-partition memo, filled once per partition)
}

// BeginScans reports whether a scan-leaf visit at precision α must
// offer the bucket's scan-operator set, and records the offer when it
// does. Scan candidates are a fixed set with deterministic costs, so
// once all of them have been offered at some α₀, re-offering at any
// α ≥ α₀ is provably a no-op: a candidate rejected at α₀ stays rejected
// (its dominator — or that dominator's surviving evictor, by transitive
// weak dominance — still α-dominates it), and a candidate admitted at
// α₀ left a same-output plan with its exact cost that re-rejects it at
// any α ≥ 1. Only a finer α than every earlier offer can change the
// outcome, so only that re-offers. Callers gate it on the same
// incremental flag as BeginRecomb; the differential trajectory tests
// hold the memoized and full paths bit-identical.
//
//rmq:hotpath
func (b *Bucket) BeginScans(alpha float64) bool {
	if b.scanCovered != 0 && alpha >= b.scanCovered {
		return false
	}
	b.scanCovered = alpha
	return true
}

// Cache is the plan cache P: for each table set, the frontier of
// non-dominated partial plans found so far. Not safe for concurrent use;
// each optimizer run owns one.
//
// Buckets are indexed by the interned table-set id (tableset.ID) rather
// than a Set-keyed map, so the probes of the frontier-approximation inner
// loop are array loads instead of hashes. The cache therefore shares the
// interner of the cost model whose plans it stores: plan.RelID values
// index directly into the bucket table. Plans with RelID == tableset.NoID
// (hand-built, or past the interner capacity) take a Set-keyed overflow
// path.
type Cache struct {
	in      *tableset.Interner
	buckets []*Bucket // indexed by tableset.ID; index 0 unused
	// tableHint is the interner's reserved id capacity when the cache
	// was created, the size of the bucket table's first allocation.
	tableHint int
	overflow  map[tableset.Set]*Bucket
	// private marks a cache whose interner was created internally rather
	// than shared by the plans' cost model. Plan RelIDs then belong to a
	// foreign id namespace and must be ignored — every probe interns the
	// set instead, which is correct but forgoes the indexed fast path.
	private bool
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
// indices. A nil interner gives the cache a private one; plan RelIDs
// (assigned by some other interner) are then ignored entirely. New reads
// the interner's reserved capacity to size the bucket table, so with a
// single-owner interner it must run on the goroutine that interns; after
// that, lookups by a plan's interned id (BucketFor, GetFor, Insert,
// SyncState.Pull) never consult the interner.
func New(in *tableset.Interner) *Cache {
	c := &Cache{in: in}
	if in == nil {
		c.in = tableset.NewInterner()
		c.private = true
	}
	c.tableHint = c.in.CapHint()
	return c
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

// growTable widens the bucket table to hold every id below n. The first
// allocation takes the interner's capacity at New, so a pooled problem's
// interner, which already holds every set earlier runs met, sizes the
// table once; after that the table at least doubles, so a run meeting
// freshly interned sets one at a time recopies it only logarithmically
// often. It never consults the interner: a private interner belongs to
// the goroutine that climbs, which may be interning while this cache
// approximates frontiers (see core.RMQ.Step).
func (c *Cache) growTable(n int) {
	if n <= len(c.buckets) {
		return
	}
	grown := make([]*Bucket, max(2*len(c.buckets), c.tableHint, n)) //rmq:allow-alloc(geometric table growth, amortized)
	copy(grown, c.buckets)
	c.buckets = grown
}

// bucketAt returns the bucket with the given id, creating it if absent.
func (c *Cache) bucketAt(id tableset.ID) *Bucket {
	c.growTable(int(id) + 1)
	b := c.buckets[id]
	if b == nil {
		b = c.newBucket()
		b.id = id
		c.buckets[id] = b
		c.sets++
	}
	return b
}

// overflowBucket returns the Set-keyed bucket for sets without a valid
// interned id, creating it if absent.
func (c *Cache) overflowBucket(rel tableset.Set) *Bucket {
	b := c.overflow[rel]
	if b == nil {
		if c.overflow == nil {
			c.overflow = make(map[tableset.Set]*Bucket)
		}
		b = c.newBucket()
		c.overflow[rel] = b
		c.sets++
	}
	return b
}

// Bucket returns the bucket for the table set, creating it if absent.
func (c *Cache) Bucket(rel tableset.Set) *Bucket {
	if id := c.in.Intern(rel); id != tableset.NoID {
		return c.bucketAt(id)
	}
	return c.overflowBucket(rel)
}

// BucketFor returns the bucket holding plans for p's table set, using the
// interned id carried by the plan when it has one. Hot loops that walk
// model-built plans should prefer it over Bucket.
func (c *Cache) BucketFor(p *plan.Plan) *Bucket {
	if p.RelID != tableset.NoID && !c.private {
		return c.bucketAt(p.RelID)
	}
	return c.Bucket(p.Rel)
}

// GetID returns the cached frontier for the interned table-set id; nil if
// nothing is cached. Callers must not modify the returned slice.
func (c *Cache) GetID(id tableset.ID) []*plan.Plan {
	if id > tableset.NoID && int(id) < len(c.buckets) {
		if b := c.buckets[id]; b != nil {
			return b.plans
		}
	}
	return nil
}

// GetFor returns the cached frontier for p's table set, via the plan's
// interned id when present.
func (c *Cache) GetFor(p *plan.Plan) []*plan.Plan {
	if p.RelID != tableset.NoID && !c.private {
		return c.GetID(p.RelID)
	}
	return c.Get(p.Rel)
}

// Get returns the cached frontier for the table set (P[rel]); nil if the
// set was never seen. Callers must not modify the returned slice.
func (c *Cache) Get(rel tableset.Set) []*plan.Plan {
	if id := c.in.Lookup(rel); id != tableset.NoID {
		return c.GetID(id)
	}
	if b := c.overflow[rel]; b != nil {
		return b.plans
	}
	return nil
}

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
