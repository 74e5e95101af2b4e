package cache

import (
	"fmt"

	"rmq/internal/tableset"
)

// Replication view of the Shared store. Export/ImportBucket move whole
// stores between cold processes; the delta view here moves *changes*
// between live ones: a replica periodically asks its primary for every
// bucket changed since a watermark and merges the shipped frontiers into
// its own store. The unit of replication is deliberately the bucket, not
// the plan: a changed bucket ships its entire retained frontier, and the
// receiving side's ordinary admission logic (Insert) deduplicates. That
// makes replication idempotent and loss-tolerant — a missed or repeated
// delta can only delay convergence, never corrupt it — and means
// evictions need not replicate at all: a replica retaining a superset of
// the primary's frontier is still a valid anytime answer set.

// DeltaCursor returns the store's current replication watermark: the
// value a puller that has already merged everything would present as
// `since` to receive nothing.
func (s *Shared) DeltaCursor() uint64 { return s.repSeq.Load() }

// State returns the store-level counters without walking buckets — the
// header a delta stream carries. Read it after the bucket export so the
// monotone counters are ≥ anything the export observed.
func (s *Shared) State() StoreState {
	return StoreState{
		Retention:  s.retain,
		Version:    s.version.Load(),
		Iterations: s.iters.Load(),
	}
}

// ExportDelta calls visit once for every non-empty bucket changed since
// the given watermark, in ascending interned-id order, and returns the
// cursor the puller should present next time.
//
// The cursor is read *before* the bucket walk. Every change stamps its
// bucket's lastVer inside the bucket's critical section before the walk
// can observe the bucket, so a change whose sequence is ≤ the returned
// cursor is always visited; one that raced past the cursor is picked up
// by the next pull because lastVer only grows. Buckets are copied out
// one at a time under their own locks, exactly like Export — no two
// bucket locks are ever held together and publishes to other buckets
// proceed concurrently.
//
// The copies alias one export arena exactly as Export's do: adjacent,
// capacity-capped windows of two slabs that the visitor may keep. A
// full pull (since == 0) sizes the slabs from the store's plan count; an
// incremental one grows them by append from empty.
func (s *Shared) ExportDelta(since uint64, visit func(BucketSnapshot) error) (cursor uint64, err error) {
	cursor = s.repSeq.Load()
	hint := 0
	if since == 0 {
		hint = int(s.plans.Load())
	}
	arena := newExportArena(hint)
	for id, sb := range s.table() {
		if sb == nil {
			continue
		}
		sb.mu.Lock()
		if sb.lastVer <= since || len(sb.b.plans) == 0 {
			sb.mu.Unlock()
			continue
		}
		bs := arena.copyOut(&sb.b)
		sb.mu.Unlock()
		bs.ID = tableset.ID(id)
		bs.Set = s.in.SetOf(bs.ID)
		if err := visit(bs); err != nil {
			return 0, err
		}
	}
	return cursor, nil
}

// MergeBucket merges one shipped bucket frontier into a live store: each
// plan goes through the ordinary admission path at the store's effective
// retention, so duplicates and dominated plans are rejected and the
// bucket's dominance structure stays intact. Unlike ImportBucket the
// target bucket may already be populated — this is the warm-replica
// apply path — and the shipped admission epochs are ignored: the local
// store stamps its own. Plans must already carry this store's interned
// id in RelID (the delta decoder constructs them that way). It reports
// how many plans the bucket admitted.
func (s *Shared) MergeBucket(bs BucketSnapshot) (admitted int, err error) {
	if len(bs.Plans) == 0 {
		return 0, nil
	}
	id := s.bucketID(bs)
	if id == tableset.NoID {
		return 0, fmt.Errorf("cache: merge bucket for %v exceeds interner capacity", bs.Set)
	}
	for i, p := range bs.Plans {
		if p == nil {
			return 0, fmt.Errorf("cache: merge of nil plan at %d", i)
		}
		if p.Rel != bs.Set || p.RelID != id {
			return 0, fmt.Errorf("cache: merge plan %d for %v (id %d) into bucket %v (id %d)",
				i, p.Rel, p.RelID, bs.Set, id)
		}
	}
	// Every admission advances the bucket epoch by one.
	before, after, _ := s.admit(s.bucketAt(id), bs.Plans, s.EffectiveRetention())
	return int(after - before), nil
}

// MergeState folds a peer's store-level counters into a live store. The
// iteration counter adopts the peer's value when it is ahead — the α
// schedule of attached optimizers resumes at the precision the *pair*
// has reached, so a promoted replica does not redo coarse passes the
// primary already paid for. The version counter is local bookkeeping
// (MergeBucket already advanced it per change) and is left alone.
func (s *Shared) MergeState(st StoreState) {
	for {
		cur := s.iters.Load()
		if st.Iterations <= cur || s.iters.CompareAndSwap(cur, st.Iterations) {
			return
		}
	}
}
