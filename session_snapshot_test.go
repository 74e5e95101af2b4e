// Tests for session-level plan-cache persistence: Snapshot/Restore
// round trips, the fingerprint binding to the catalog, the
// fresh-session-only restore contract, and warm-start quality through
// a snapshot (the restart analogue of TestSharedCacheWarmStartQuality).
package rmq_test

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"rmq"
	"rmq/internal/opt"
	"rmq/internal/quality"
)

// warmedSession runs a cold optimization through a shared-cache session
// and returns the session plus its cold frontier.
func warmedSession(t *testing.T, cat *rmq.Catalog, opts ...rmq.Option) (*rmq.Session, *rmq.Frontier) {
	t.Helper()
	sess, err := rmq.NewSession(cat, append([]rmq.Option{rmq.WithSharedCache(true)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sess.Optimize(context.Background(), rmq.WithSeed(1), rmq.WithMaxIterations(400))
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Plans) == 0 {
		t.Fatal("cold run found nothing")
	}
	return sess, cold
}

// TestSessionSnapshotRestoreWarmStart pins the restart contract: a
// fresh session restored from another session's snapshot answers a
// low-budget repeat query with a frontier that matches or dominates
// every cold trade-off — the same ε = 1 guarantee a live warm session
// gives, now across a (simulated) process boundary.
func TestSessionSnapshotRestoreWarmStart(t *testing.T) {
	cat := sharedTestCatalog(20)
	sess, cold := warmedSession(t, cat, rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer))
	data, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty snapshot from a warmed session")
	}
	before := sess.CacheStats()

	restored, err := rmq.NewSession(cat,
		rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer),
		rmq.WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	if after := restored.CacheStats(); after != before {
		t.Fatalf("restored CacheStats %+v, snapshot had %+v", after, before)
	}
	warm, err := restored.Optimize(context.Background(), rmq.WithSeed(9), rmq.WithMaxIterations(40))
	if err != nil {
		t.Fatal(err)
	}
	checkNonDominated(t, warm)
	if eps := quality.Epsilon(opt.Costs(warm.Plans), opt.Costs(cold.Plans)); eps > 1 {
		t.Fatalf("restored warm run at 1/10 budget: ε = %g vs cold result, want 1", eps)
	}
}

// TestSessionSnapshotFingerprintMismatch pins that a snapshot refuses
// to restore into a session over a different catalog.
func TestSessionSnapshotFingerprintMismatch(t *testing.T) {
	sess, _ := warmedSession(t, sharedTestCatalog(12))
	data, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other, err := rmq.NewSession(
		rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: 12, Graph: rmq.Chain}, 99),
		rmq.WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(data); !errors.Is(err, rmq.ErrSnapshotMismatch) {
		t.Fatalf("Restore into another catalog: %v, want ErrSnapshotMismatch", err)
	}
}

// TestSessionRestoreIntoWarmSessionFails pins that restores target
// fresh sessions only: a session that already holds a shared store for
// a snapshotted metric subset rejects the restore and keeps its state.
func TestSessionRestoreIntoWarmSessionFails(t *testing.T) {
	cat := sharedTestCatalog(12)
	sess, _ := warmedSession(t, cat)
	data, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := sess.CacheStats()
	if err := sess.Restore(data); !errors.Is(err, rmq.ErrSnapshotIntoWarmSession) {
		t.Fatalf("Restore into the warm source session: %v, want ErrSnapshotIntoWarmSession", err)
	}
	if after := sess.CacheStats(); after != before {
		t.Fatalf("failed restore mutated the session: %+v vs %+v", after, before)
	}
}

// TestSessionRestoreRejectsGarbage pins the session-level error path
// for malformed bytes, and that a failed restore leaves the session
// usable.
func TestSessionRestoreRejectsGarbage(t *testing.T) {
	cat := sharedTestCatalog(8)
	sess, err := rmq.NewSession(cat, rmq.WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{nil, []byte("not a snapshot"), make([]byte, 64)} {
		if err := sess.Restore(data); err == nil {
			t.Fatalf("Restore accepted %q", data)
		}
	}
	if _, err := sess.Optimize(context.Background(), rmq.WithMaxIterations(50)); err != nil {
		t.Fatalf("session unusable after failed restores: %v", err)
	}
}

// craftedBucketSnapshot hand-assembles a CRC-valid snapshot for cat
// holding one store for the {time, buffer} subset, with one bucket of
// SeqScan plans over table 0 at the given costs, admitted in order.
func craftedBucketSnapshot(cat *rmq.Catalog, costs ...[2]float64) []byte {
	w := []byte("rmq-snap")
	w = binary.AppendUvarint(w, 1) // codec version
	w = binary.LittleEndian.AppendUint64(w, cat.Fingerprint())
	w = binary.AppendUvarint(w, 1) // stores
	w = append(w, 2, byte(rmq.MetricTime), byte(rmq.MetricBuffer))
	w = binary.LittleEndian.AppendUint64(w, math.Float64bits(1)) // retention
	w = append(w, 1, 0, 2, 1, 1)                                 // version, iterations, dim, #sets, #buckets
	w = append(w, 1, 0)                                          // set {0}
	w = binary.AppendUvarint(w, uint64(len(costs)))
	for _, c := range costs {
		w = append(w, 1, 0, 0, 0) // set 1, scan of table 0, SeqScan
		for _, f := range []float64{c[0], c[1], 100} {
			w = binary.LittleEndian.AppendUint64(w, math.Float64bits(f))
		}
	}
	w = binary.AppendUvarint(w, uint64(len(costs))) // bucket epoch
	w = binary.AppendUvarint(w, uint64(len(costs)))
	for i := range costs {
		w = binary.AppendUvarint(w, uint64(i+1))
		w = append(w, 1)
	}
	return binary.LittleEndian.AppendUint32(w, crc32.ChecksumIEEE(w))
}

// TestSessionRestoreRejectsNonAntichainBucket pins that a CRC-valid
// snapshot whose bucket is not a per-class antichain — a dominated plan,
// or two equal cost vectors — fails Restore and leaves the session as it
// was: empty, and still open to a valid restore.
func TestSessionRestoreRejectsNonAntichainBucket(t *testing.T) {
	cat := sharedTestCatalog(8)
	metrics := rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer)
	sess, err := rmq.NewSession(cat, rmq.WithSharedCache(true), metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Restore(craftedBucketSnapshot(cat, [2]float64{3, 1}, [2]float64{1, 3})); err != nil {
		t.Fatalf("antichain control snapshot rejected: %v", err)
	}
	for name, costs := range map[string][][2]float64{
		"dominated plan":    {{3, 1}, {1, 3}, {4, 3}},
		"equal cost vector": {{2, 5}, {5, 2}, {2, 5}},
	} {
		sess, err := rmq.NewSession(cat, rmq.WithSharedCache(true), metrics)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Restore(craftedBucketSnapshot(cat, costs...)); err == nil {
			t.Fatalf("%s: Restore accepted a non-antichain bucket", name)
		}
		if cs := sess.CacheStats(); cs != (rmq.CacheStats{}) {
			t.Fatalf("%s: failed restore left cache contents %+v", name, cs)
		}
		warm, _ := warmedSession(t, cat, metrics)
		data, err := warm.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Restore(data); err != nil {
			t.Fatalf("%s: valid restore after the failed one: %v", name, err)
		}
	}
}

// TestSessionSnapshotEmptySession pins that a never-optimized session
// snapshots to a valid stream that restores cleanly (the cold-daemon
// checkpoint case).
func TestSessionSnapshotEmptySession(t *testing.T) {
	cat := sharedTestCatalog(8)
	sess, err := rmq.NewSession(cat, rmq.WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	data, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := rmq.NewSession(cat, rmq.WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(data); err != nil {
		t.Fatalf("restoring an empty snapshot: %v", err)
	}
}

// TestSessionSnapshotMultipleSubsets pins that per-metric-subset stores
// round-trip together: optimizing under different metric subsets fills
// distinct stores, and the restored session reports the combined
// contents.
func TestSessionSnapshotMultipleSubsets(t *testing.T) {
	cat := sharedTestCatalog(12)
	sess, err := rmq.NewSession(cat, rmq.WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	subsets := [][]rmq.Metric{
		{rmq.MetricTime, rmq.MetricBuffer, rmq.MetricDisc},
		{rmq.MetricTime, rmq.MetricBuffer},
		{rmq.MetricTime},
	}
	for i, ms := range subsets {
		if _, err := sess.Optimize(ctx, rmq.WithMetrics(ms...), rmq.WithSeed(uint64(i)), rmq.WithMaxIterations(200)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := rmq.NewSession(cat, rmq.WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.CacheStats(), sess.CacheStats(); got != want {
		t.Fatalf("restored CacheStats %+v, want %+v", got, want)
	}
	// The restored session serves warm runs under every subset.
	for i, ms := range subsets {
		f, err := restored.Optimize(ctx, rmq.WithMetrics(ms...), rmq.WithSeed(50+uint64(i)), rmq.WithMaxIterations(40))
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Plans) == 0 {
			t.Fatalf("restored warm run under subset %v found nothing", ms)
		}
	}
}
