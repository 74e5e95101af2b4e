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
// shared with the live store; callers must not modify them or the
// slices.
type BucketSnapshot struct {
	Set    tableset.Set
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
func (s *Shared) Export(visit func(BucketSnapshot) error) (StoreState, error) {
	s.mu.RLock()
	table := make([]*sharedBucket, len(s.buckets))
	copy(table, s.buckets)
	s.mu.RUnlock()
	for id := 1; id < len(table); id++ {
		sb := table[id]
		if sb == nil {
			continue
		}
		sb.mu.Lock()
		bs := BucketSnapshot{
			Epoch:  sb.b.epoch,
			Plans:  slices.Clone(sb.b.plans),
			Epochs: slices.Clone(sb.b.epochs),
		}
		sb.mu.Unlock()
		if len(bs.Plans) == 0 {
			continue
		}
		bs.Set = s.in.SetOf(tableset.ID(id))
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

// ImportBucket installs one exported bucket verbatim into a store being
// restored: plans, admission order, per-plan epochs and the admission
// counter are taken as-is, and the derived per-output class cost
// columns and corner vector are rebuilt. The bucket's table set is
// interned into the store's interner (restores drive the interner, so ids come out dense
// in import order); the target bucket must not have been populated yet.
// Plans must already carry the store's id for their table set in RelID —
// the codec constructs them that way — and their epochs must be
// ascending, matching how admissions stamp them.
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
	id := s.in.Intern(bs.Set)
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
	sb := s.bucketAt(id)
	sb.mu.Lock()
	if sb.b.epoch != 0 || len(sb.b.plans) != 0 {
		sb.mu.Unlock()
		return fmt.Errorf("cache: import into already-populated bucket %v", bs.Set)
	}
	sb.b.plans = slices.Clone(bs.Plans)
	sb.b.epochs = slices.Clone(bs.Epochs)
	sb.b.epoch = bs.Epoch
	sb.lastVer = s.repSeq.Add(1)
	// Columns and the corner are derived state, rebuilt here rather than
	// carried on the wire — the snapshot formats stay unchanged.
	sb.b.rebuildMirrors()
	for _, p := range sb.b.plans {
		if sb.b.hasCorner {
			sb.b.corner = sb.b.corner.Min(p.Cost)
		} else {
			sb.b.corner = p.Cost
			sb.b.hasCorner = true
		}
	}
	sb.epoch.Store(bs.Epoch)
	sb.mu.Unlock()
	s.plans.Add(int64(len(bs.Plans)))
	return nil
}

// RestoreState stamps the snapshot's store-level counters onto a
// restored store. Call it once, after every ImportBucket.
func (s *Shared) RestoreState(st StoreState) {
	s.version.Store(st.Version)
	s.iters.Store(st.Iterations)
}
