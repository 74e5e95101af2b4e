package rmq

import (
	"errors"
	"fmt"
	"maps"

	"rmq/internal/cache"
	"rmq/internal/costmodel"
	"rmq/internal/snapshot"
	"rmq/internal/tableset"
)

// ErrSnapshotMismatch reports that a snapshot was recorded against a
// different catalog than the session it is being restored into.
// Frontier costs are only meaningful for the catalog they were computed
// against — restoring another catalog's frontiers would silently serve
// plans priced for the wrong database — so the restore is refused
// instead.
var ErrSnapshotMismatch = errors.New("snapshot belongs to a different catalog")

// ErrSnapshotIntoWarmSession reports a Restore into a session that
// already holds a shared store for one of the snapshot's metric
// subsets. Restores target fresh sessions: merging two live frontier
// histories would need a union of admission epochs that neither side's
// sync marks could be trusted against.
var ErrSnapshotIntoWarmSession = errors.New("session already has a shared cache for a snapshotted metric subset")

// Snapshot serializes the session's shared plan caches — the
// α-approximate sub-plan frontiers accumulated by every run with
// WithSharedCache, across all metric subsets — into an rmq-snap/v1
// byte stream stamped with the catalog's fingerprint. A later process
// passes the bytes to Restore on a fresh session over the same catalog
// and resumes at warm-start latency instead of re-learning the
// frontiers from zero.
//
// Snapshot is safe to call concurrently with running Optimize calls:
// each store is exported bucket by bucket under the store's own locks,
// so the result is a consistent cut that may simply miss admissions
// racing with the export. A session that never enabled WithSharedCache
// snapshots to a valid, empty stream.
func (s *Session) Snapshot() ([]byte, error) {
	return snapshot.Encode(s.cat.Fingerprint(), s.taggedStores(nil))
}

// taggedStores lists the session's shared stores for the codec, each
// with its cursor in since (missing entries, and a nil since, pull from
// zero).
func (s *Session) taggedStores(since map[string]uint64) []snapshot.TaggedStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	stores := make([]snapshot.TaggedStore, 0, len(s.shared))
	for tag, sh := range s.shared {
		stores = append(stores, snapshot.TaggedStore{Tag: tag, Store: sh, Since: since[tag]})
	}
	return stores
}

// Restore loads a Snapshot into the session. The snapshot must have
// been taken against a catalog with the same fingerprint (see
// Catalog.Fingerprint; ErrSnapshotMismatch otherwise), and the session
// must not yet have shared stores for the snapshotted metric subsets
// (ErrSnapshotIntoWarmSession) — restore before the first Optimize
// call with WithSharedCache. Malformed, truncated or version-skewed
// input is rejected with an error and leaves the session untouched.
//
// A session whose defaults declare WithCacheRetention restores only
// streams taken at that α (ErrRetentionMismatch otherwise). A session
// that declares none keeps the stream's α; a later run passing a
// conflicting WithCacheRetention then gets ErrRetentionMismatch exactly
// as it would against the live store the snapshot was taken from.
func (s *Session) Restore(data []byte) error {
	h, err := snapshot.Peek(data)
	if err != nil {
		return fmt.Errorf("rmq: %w", err)
	}
	if want := s.cat.Fingerprint(); h.Fingerprint != want {
		return fmt.Errorf("rmq: %w (snapshot fingerprint %016x, catalog %016x)",
			ErrSnapshotMismatch, h.Fingerprint, want)
	}
	// Decode into session-free stores first: a decode error must leave
	// the session exactly as it was, so nothing is committed until the
	// whole stream has parsed and validated. The decoder rejects repeated
	// tags, so each tag opens one store.
	restored := make(map[string]*cache.Shared)
	if _, err := snapshot.Decode(data, func(tag string, st cache.StoreState) (*cache.Shared, error) {
		if err := s.acceptStore(tag, st); err != nil {
			return nil, err
		}
		restored[tag] = cache.NewShared(tableset.NewInterner(), st.Retention)
		return restored[tag], nil
	}); err != nil {
		return fmt.Errorf("rmq: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for tag := range restored {
		if s.shared[tag] != nil {
			return fmt.Errorf("rmq: %w (subset %s)", ErrSnapshotIntoWarmSession, metricsTagName(tag))
		}
	}
	if s.shared == nil {
		s.shared = make(map[string]*cache.Shared, len(restored))
	}
	maps.Copy(s.shared, restored)
	return nil
}

// acceptStore checks one store section of a restored or replicated
// stream before a store is opened for it: the tag must be a valid
// metric subset, and the stream's α must be the one the session's
// defaults declare, if any. Every frontier the session serves then
// carries the Lemma-6 bound of that α.
func (s *Session) acceptStore(tag string, st cache.StoreState) error {
	if err := validMetricsTag(tag); err != nil {
		return err
	}
	if s.retention != 0 && st.Retention != s.retention {
		return fmt.Errorf("%w: the stream's store for %s was taken at α = %v, the session declares α = %v",
			ErrRetentionMismatch, metricsTagName(tag), st.Retention, s.retention)
	}
	return nil
}

// validMetricsTag checks that a snapshot store tag is a well-formed
// metricsKey: distinct known metrics, one byte each. Snapshots written
// by this package always are; the check rejects hand-crafted streams
// that would otherwise park unreachable stores in the session map.
func validMetricsTag(tag string) error {
	if len(tag) == 0 || len(tag) > costmodel.NumMetrics {
		return fmt.Errorf("metric subset tag of %d metrics", len(tag))
	}
	var seen [costmodel.NumMetrics]bool
	for i := 0; i < len(tag); i++ {
		m := tag[i]
		if int(m) >= costmodel.NumMetrics || seen[m] {
			return fmt.Errorf("metric subset tag %q invalid at %d", tag, i)
		}
		seen[m] = true
	}
	return nil
}

// metricsTagName renders a metricsKey for error messages.
func metricsTagName(tag string) string {
	metrics := make([]Metric, 0, len(tag))
	for i := 0; i < len(tag); i++ {
		metrics = append(metrics, Metric(tag[i]))
	}
	return fmt.Sprint(metrics)
}
