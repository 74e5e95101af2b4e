package cache

import (
	"fmt"
	"slices"

	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// This file is the serialization-neutral view of the Shared store: a
// snapshot codec (internal/snapshot) reads buckets out through Export
// and writes them back through ImportBucket/RestoreState without ever
// touching bucket internals. The view deliberately exposes admission
// order and admission epochs verbatim — restoring them exactly is what
// keeps delta consumers (SyncState marks, the incremental-recombination
// memo keyed on child epochs) valid against a restored store, and what
// makes re-encoding a restored store byte-identical to the snapshot it
// came from.

// BucketSnapshot is one bucket's exported state: the table set it
// caches, its admission counter, and the retained frontier in admission
// order with the admission epoch of each plan. Plans are immutable and
// shared with the live store; callers must not modify them.
type BucketSnapshot struct {
	Set tableset.Set
	// ID is the interned id of Set in the store the snapshot came from
	// or goes to. Export and ExportDelta fill it in. ImportBucket and
	// MergeBucket use it when it names Set in the receiving store's
	// interner — the decoder interns every set before it builds the
	// buckets — and intern Set otherwise.
	ID     tableset.ID
	Epoch  uint64
	Plans  []*plan.Plan
	Epochs []uint64
}

// StoreState is the store-level state of a snapshot: the retention
// precision the store prunes with, the publish-version counter, and the
// cumulative iteration counter driving the α schedule of attached
// optimizers. Version and Iterations must survive a restore — a store
// holding plans at version 0 would defeat SyncState.Pull's fast path
// (a fresh handle with seen == 0 would skip the warm start entirely),
// and a reset iteration counter would re-run the coarse-α passes the
// snapshot already paid for.
type StoreState struct {
	Retention  float64
	Version    uint64
	Iterations int64
}

// Export returns the store-level counters and calls visit once per
// non-empty bucket, in ascending interned-id order. Each bucket is
// copied out under its own lock — the declared lock order (store rank
// 1, bucket rank 2) is respected and no two bucket locks are ever held
// together, so concurrent publishes to other buckets proceed while one
// bucket is being copied. The result is a consistent cut: every bucket
// is internally consistent, and the state returned afterwards is at
// least as new as every exported bucket. Export never sits on a hot
// path; checkpointers own it.
//
// The copies share one arena (see exportArena), sized once from the
// store's plan count: the Plans and Epochs of successive buckets are
// adjacent, capacity-capped windows of two slabs, never the live
// buckets' own slices. A visitor may keep them after it returns — an
// append to one reallocates instead of overwriting its neighbour — but
// every window it keeps pins its slab.
func (s *Shared) Export(visit func(BucketSnapshot) error) (StoreState, error) {
	arena := newExportArena(int(s.plans.Load()))
	for id, sb := range s.table() {
		if sb == nil {
			continue
		}
		sb.mu.Lock()
		bs := arena.copyOut(&sb.b)
		sb.mu.Unlock()
		if len(bs.Plans) == 0 {
			continue
		}
		bs.ID = tableset.ID(id)
		bs.Set = s.in.SetOf(bs.ID)
		if err := visit(bs); err != nil {
			return StoreState{}, err
		}
	}
	// Read the counters after the bucket walk: monotone counters read
	// last are ≥ every counter value observed inside the walk, so a
	// restored store can never report a version older than its contents.
	return StoreState{
		Retention:  s.retain,
		Version:    s.version.Load(),
		Iterations: s.iters.Load(),
	}, nil
}

// table returns a copy of the bucket table, taken under the table read
// lock so the caller can walk it without holding the lock.
func (s *Shared) table() []*sharedBucket {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.buckets)
}

// exportArena holds the plan and epoch copies of one export in two
// slabs: two allocations for the whole walk, where a copy per bucket
// would cost two for each of a store's tens of thousands of buckets. A
// slab that fills up (the store grew during the walk, or the size hint
// was low) grows by append; windows already handed out keep the old
// slab alive and stay valid.
type exportArena struct {
	plans  []*plan.Plan
	epochs []uint64
}

func newExportArena(hint int) *exportArena {
	return &exportArena{
		plans:  make([]*plan.Plan, 0, hint),
		epochs: make([]uint64, 0, hint),
	}
}

// copyOut appends b's frontier to the slabs and returns it as a
// snapshot whose Plans and Epochs are capacity-capped windows onto
// them. The caller holds b's lock.
func (a *exportArena) copyOut(b *Bucket) BucketSnapshot {
	start := len(a.plans)
	a.plans = append(a.plans, b.plans...)
	a.epochs = append(a.epochs, b.epochs...)
	end := len(a.plans)
	return BucketSnapshot{
		Epoch:  b.epoch,
		Plans:  a.plans[start:end:end],
		Epochs: a.epochs[start:end:end],
	}
}

// ImportBucket installs one exported bucket verbatim into a store being
// restored: plans, admission order, per-plan epochs and the admission
// counter are taken as-is, and the derived per-output class cost
// columns and corner vector are rebuilt. The bucket's table set is
// interned into the store's interner (restores drive the interner, so
// ids come out dense in import order); the target bucket must not have
// been populated yet. Plans must already carry the store's id for their
// table set in RelID — the codec constructs them that way — and their
// epochs must be ascending, matching how admissions stamp them.
//
// The frontier must be a per-output-class antichain: no plan may weakly
// dominate another plan of its output class, which also rules out two
// equal cost vectors in one class. Every write path of a live store
// keeps that invariant (Insert, MergeBucket, shed), and SyncState.Pull's
// warm start relies on it, so an import violating it is rejected; the
// check rides the column rebuild at no extra pass.
//
// ImportBucket takes ownership of bs.Plans and bs.Epochs: on success
// the bucket keeps them as its own, so the caller must not use them
// afterwards. They may be windows of one array shared by many buckets,
// as the decoder cuts them: Insert clears the slots a bucket abandons,
// so no window keeps a plan the bucket dropped reachable.
func (s *Shared) ImportBucket(bs BucketSnapshot) error {
	if len(bs.Plans) == 0 || len(bs.Plans) != len(bs.Epochs) {
		return fmt.Errorf("cache: import of %d plans with %d epochs", len(bs.Plans), len(bs.Epochs))
	}
	var last uint64
	for i, e := range bs.Epochs {
		if e <= last {
			return fmt.Errorf("cache: import epochs not ascending at %d (%d after %d)", i, e, last)
		}
		last = e
	}
	if last > bs.Epoch {
		return fmt.Errorf("cache: import epoch counter %d below last admission %d", bs.Epoch, last)
	}
	id := s.bucketID(bs)
	if id == tableset.NoID {
		return fmt.Errorf("cache: import bucket for %v exceeds interner capacity", bs.Set)
	}
	for i, p := range bs.Plans {
		if p == nil {
			return fmt.Errorf("cache: import of nil plan at %d", i)
		}
		if p.Rel != bs.Set || p.RelID != id {
			return fmt.Errorf("cache: import plan %d for %v (id %d) into bucket %v (id %d)",
				i, p.Rel, p.RelID, bs.Set, id)
		}
	}
	// Columns and the corner are derived state, rebuilt here rather than
	// carried on the wire — the snapshot formats stay unchanged. They are
	// built before the bucket is touched, so a rejected import leaves the
	// store as it was.
	var b Bucket
	b.plans = bs.Plans
	if i := b.importMirrors(); i >= 0 {
		return fmt.Errorf("cache: import plan %d for %v is comparable with an earlier %v plan (cost %v); a bucket must be an antichain per output class",
			i, bs.Set, bs.Plans[i].Output, bs.Plans[i].Cost)
	}
	sb := s.bucketAt(id)
	sb.mu.Lock()
	if sb.b.epoch != 0 || len(sb.b.plans) != 0 {
		sb.mu.Unlock()
		return fmt.Errorf("cache: import into already-populated bucket %v", bs.Set)
	}
	sb.b.plans = bs.Plans
	sb.b.epochs = bs.Epochs
	sb.b.epoch = bs.Epoch
	sb.b.cols = b.cols
	sb.b.corner, sb.b.hasCorner = bs.Plans[0].Cost, true
	for _, p := range bs.Plans[1:] {
		sb.b.corner = sb.b.corner.Min(p.Cost)
	}
	sb.lastVer = s.repSeq.Add(1)
	sb.epoch.Store(bs.Epoch)
	sb.mu.Unlock()
	s.plans.Add(int64(len(bs.Plans)))
	return nil
}

// importMirrors builds the per-output class cost columns of a bucket
// whose frontier was installed wholesale (snapshot import), sized
// exactly (see reserveCols).
//
// The same sweep checks the frontier is a per-class antichain: before a
// plan's cost joins its class columns, the columns are probed for an
// earlier plan that weakly dominates it or that it weakly dominates. It
// returns the index of the first plan failing that check, with the
// columns left partly built, or -1 when the whole frontier passes.
func (b *Bucket) importMirrors() (firstComparable int) {
	var counts [plan.NumOutputProps]int
	for _, p := range b.plans {
		counts[p.Output]++
	}
	b.reserveCols(b.plans[0].Cost.N, counts)
	for i, p := range b.plans {
		cols := &b.cols[p.Output]
		if cols.ApproxDominatedBy(p.Cost, 1) || cols.DominatesAny(p.Cost) {
			return i
		}
		cols.Append(p.Cost)
	}
	return -1
}

// reserveCols empties the bucket's class columns and reserves exact
// capacity for counts[out] entries of dimension dim in each non-empty
// class: a restore or warm start builds tens of thousands of buckets
// this way, and per-metric amortized growth would be most of its
// allocations. Classes get separate allocations, so a class that
// outgrows its block frees it instead of leaving it pinned by the
// other class.
//
//rmq:hotpath
func (b *Bucket) reserveCols(dim int8, counts [plan.NumOutputProps]int) {
	for out, n := range counts {
		b.cols[out].Reset()
		if n > 0 {
			b.cols[out].Reserve(dim, n)
		}
	}
}

// bucketID returns the store's interned id for bs.Set: bs.ID when it
// names that set in the store's interner, else the set interned anew.
func (s *Shared) bucketID(bs BucketSnapshot) tableset.ID {
	if sets := s.in.Sets(); bs.ID > 0 && int(bs.ID) < len(sets) && sets[bs.ID] == bs.Set {
		return bs.ID
	}
	return s.in.Intern(bs.Set)
}

// RestoreState stamps the snapshot's store-level counters onto a
// restored store. Call it once, after every ImportBucket.
func (s *Shared) RestoreState(st StoreState) {
	s.version.Store(st.Version)
	s.iters.Store(st.Iterations)
}
