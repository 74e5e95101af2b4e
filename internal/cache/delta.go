package cache

import "fmt"

// Replication side of the Shared store. Export since zero and
// ImportBucket move whole stores between cold processes; Export since a
// cursor and MergeBucket move *changes* between live ones: a replica
// periodically asks its primary for every bucket changed since its
// watermark and merges the shipped frontiers into its own store. The
// unit of replication is deliberately the bucket, not the plan: a
// changed bucket ships its entire retained frontier, and the receiving
// side's ordinary admission logic (Insert) deduplicates. That
// makes replication idempotent and loss-tolerant — a missed or repeated
// delta can only delay convergence, never corrupt it — and means
// evictions need not replicate at all: a replica retaining a superset of
// the primary's frontier is still a valid anytime answer set.

// DeltaCursor returns the store's current replication watermark: the
// value a puller that has already merged everything would present as
// `since` to receive nothing.
func (s *Shared) DeltaCursor() uint64 { return s.repSeq.Load() }

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
	sb, mirror, _ := s.bucketAt(id)
	before, after, _ := s.admit(sb, mirror, bs.Plans, s.EffectiveRetention())
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
