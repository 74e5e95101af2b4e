// Tests for session-level delta replication: live convergence of a warm
// replica, idempotent replay, cursor-driven incremental pulls, and the
// fingerprint binding — the streaming analogue of the Snapshot/Restore
// tests.
package rmq_test

import (
	"context"
	"errors"
	"testing"

	"rmq"
	"rmq/internal/opt"
	"rmq/internal/quality"
)

// TestSessionDeltaReplicationWarmsReplica pins the replication
// contract: a replica session that has already served traffic (warm —
// Restore would refuse it) converges on the primary via ApplyDeltas and
// then answers a low-budget query at warm quality.
func TestSessionDeltaReplicationWarmsReplica(t *testing.T) {
	cat := sharedTestCatalog(20)
	primary, cold := warmedSession(t, cat, rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer))

	replica, err := rmq.NewSession(cat,
		rmq.WithMetrics(rmq.MetricTime, rmq.MetricBuffer),
		rmq.WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	// Make the replica warm before the first pull: a brief run of its own.
	if _, err := replica.Optimize(context.Background(), rmq.WithSeed(3), rmq.WithMaxIterations(20)); err != nil {
		t.Fatal(err)
	}

	data, cursors, err := primary.EncodeDeltas(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := replica.ApplyDeltas(data)
	if err != nil {
		t.Fatal(err)
	}
	if applied.Instance != 7 || applied.Admitted == 0 {
		t.Fatalf("ApplyDeltas = %+v, want instance 7 and admissions", applied)
	}
	for tag, c := range cursors {
		if applied.Cursors[tag] != c {
			t.Fatalf("cursor mismatch for %q: encoder %d, applier %d", tag, c, applied.Cursors[tag])
		}
	}

	// Replay is a no-op.
	again, err := replica.ApplyDeltas(data)
	if err != nil {
		t.Fatal(err)
	}
	if again.Admitted != 0 {
		t.Fatalf("replayed delta admitted %d plans", again.Admitted)
	}

	// Incremental: more primary work, pull since the cursors, and the
	// replica serves the victim's workload at warm quality.
	if _, err := primary.Optimize(context.Background(), rmq.WithSeed(2), rmq.WithMaxIterations(200)); err != nil {
		t.Fatal(err)
	}
	data2, _, err := primary.EncodeDeltas(7, applied.Cursors)
	if err != nil {
		t.Fatal(err)
	}
	if len(data2) >= len(data) {
		t.Fatalf("incremental delta (%d bytes) not smaller than the full pull (%d bytes)", len(data2), len(data))
	}
	if _, err := replica.ApplyDeltas(data2); err != nil {
		t.Fatal(err)
	}
	warm, err := replica.Optimize(context.Background(), rmq.WithSeed(9), rmq.WithMaxIterations(40))
	if err != nil {
		t.Fatal(err)
	}
	checkNonDominated(t, warm)
	if eps := quality.Epsilon(opt.Costs(warm.Plans), opt.Costs(cold.Plans)); eps > 1 {
		t.Fatalf("replicated warm run at 1/10 budget: ε = %g vs cold result, want 1", eps)
	}
}

// TestSessionDeltaFingerprintMismatch pins that deltas refuse to apply
// across catalogs.
func TestSessionDeltaFingerprintMismatch(t *testing.T) {
	primary, _ := warmedSession(t, sharedTestCatalog(12))
	data, _, err := primary.EncodeDeltas(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := rmq.NewSession(sharedTestCatalog(13), rmq.WithSharedCache(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ApplyDeltas(data); !errors.Is(err, rmq.ErrSnapshotMismatch) {
		t.Fatalf("ApplyDeltas across catalogs: %v, want ErrSnapshotMismatch", err)
	}
}

// TestSessionDeltaRetentionMismatch pins that a session whose defaults
// declare an α refuses a delta stream taken at another one: no store
// opens for it, so the session's own runs keep serving at its α.
func TestSessionDeltaRetentionMismatch(t *testing.T) {
	cat := sharedTestCatalog(12)
	primary, _ := warmedSession(t, cat)
	data, _, err := primary.EncodeDeltas(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := rmq.NewSession(cat, rmq.WithSharedCache(true), rmq.WithCacheRetention(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.ApplyDeltas(data); !errors.Is(err, rmq.ErrRetentionMismatch) {
		t.Fatalf("ApplyDeltas of an α = 1 stream into an α = 2 session: %v, want ErrRetentionMismatch", err)
	}
	if cursors := replica.DeltaCursors(); len(cursors) != 0 {
		t.Fatalf("refused stream opened %d stores", len(cursors))
	}
	if _, err := replica.Optimize(context.Background(), rmq.WithSeed(2), rmq.WithMaxIterations(20)); err != nil {
		t.Fatalf("optimize after a refused stream: %v", err)
	}
}

// TestSessionDeltaCursorsAdvance pins DeltaCursors: zero before any
// shared-cache work, positive after, and equal to what EncodeDeltas
// hands a puller.
func TestSessionDeltaCursorsAdvance(t *testing.T) {
	primary, _ := warmedSession(t, sharedTestCatalog(10))
	cursors := primary.DeltaCursors()
	if len(cursors) == 0 {
		t.Fatal("warmed session reports no delta cursors")
	}
	_, sent, err := primary.EncodeDeltas(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tag, c := range sent {
		if c == 0 {
			t.Fatalf("tag %q exported at cursor 0", tag)
		}
		if cur := cursors[tag]; c < cur {
			t.Fatalf("tag %q exported cursor %d below DeltaCursors %d", tag, c, cur)
		}
	}
}
