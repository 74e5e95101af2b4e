package rmq

import (
	"fmt"

	"rmq/internal/cache"
	"rmq/internal/snapshot"
)

// Session-level replication: the rmq-delt/v1 exchange that keeps a warm
// replica session converged on a primary session over the same catalog.
// Where Snapshot/Restore move a whole cache history into a *fresh*
// session, EncodeDeltas/ApplyDeltas move incremental changes into a
// *live* one: shipped frontiers merge through the ordinary admission
// path, so the exchange is idempotent, tolerates repeated or overlapping
// pulls, and can only grow the replica's frontiers toward the primary's
// — never corrupt them. A replica that missed deltas (partition, primary
// restart) simply pulls from cursor zero again: the full pull carries
// the same frontiers a snapshot bootstrap would, through the same merge
// path.

// DeltaApply reports one applied delta stream.
type DeltaApply struct {
	// Instance is the sender's incarnation id; cursors below are only
	// meaningful against this instance.
	Instance uint64
	// Cursors holds, per metric-subset tag, the watermark to present as
	// `since` on the next pull.
	Cursors map[string]uint64
	// Admitted is the net plan growth the delta caused — an activity
	// signal (approximate under concurrent eviction), not an exact count.
	Admitted int
}

// EncodeDeltas serializes every shared store's changes since the given
// per-subset cursors (missing entries pull from zero) into an
// rmq-delt/v1 stream stamped with the catalog fingerprint and the given
// instance id. It returns the stream and the cursors a puller should
// present next time. Like Snapshot, it is safe concurrently with
// running Optimize calls and returns a valid (empty) stream for a
// session that never enabled WithSharedCache.
func (s *Session) EncodeDeltas(instance uint64, since map[string]uint64) ([]byte, map[string]uint64, error) {
	return snapshot.EncodeDeltas(s.cat.Fingerprint(), instance, s.taggedStores(since))
}

// DeltaCursors returns the current replication watermark of every
// shared store. A presented cursor above the store's current watermark
// cannot have come from this store's history — servers use that to
// detect cursors from another incarnation.
func (s *Session) DeltaCursors() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.shared))
	for tag, sh := range s.shared {
		out[tag] = sh.DeltaCursor()
	}
	return out
}

// ApplyDeltas merges an EncodeDeltas stream into the session's live
// shared stores, creating stores for metric subsets the session has not
// touched yet (at the stream's retention — the same policy Restore
// applies). The stream must carry the session catalog's fingerprint
// (ErrSnapshotMismatch otherwise). A stream taken at another α than the
// session's defaults declare is refused with ErrRetentionMismatch before
// any store opens for it, and a live store whose retention disagrees
// with the stream's is refused too. Malformed input is rejected without
// panicking; a mid-stream failure leaves already-merged sections in
// place, which is safe (every merged plan passed ordinary admission) —
// the puller retries from its previous cursors.
func (s *Session) ApplyDeltas(data []byte) (DeltaApply, error) {
	h, err := snapshot.PeekDelta(data)
	if err != nil {
		return DeltaApply{}, fmt.Errorf("rmq: %w", err)
	}
	if want := s.cat.Fingerprint(); h.Fingerprint != want {
		return DeltaApply{}, fmt.Errorf("rmq: %w (delta fingerprint %016x, catalog %016x)",
			ErrSnapshotMismatch, h.Fingerprint, want)
	}
	before := s.CacheStats().Plans
	_, cursors, err := snapshot.DecodeDeltas(data, func(tag string, st cache.StoreState) (*cache.Shared, error) {
		if err := s.acceptStore(tag, st); err != nil {
			return nil, err
		}
		sh, _ := s.store(tag, st.Retention)
		return sh, nil
	})
	if err != nil {
		return DeltaApply{}, fmt.Errorf("rmq: %w", err)
	}
	after := s.CacheStats().Plans
	return DeltaApply{Instance: h.Instance, Cursors: cursors, Admitted: after - before}, nil
}
