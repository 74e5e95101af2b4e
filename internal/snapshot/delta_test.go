package snapshot_test

import (
	"bytes"
	"fmt"
	"testing"

	"rmq/internal/cache"
	"rmq/internal/plan"
	"rmq/internal/snapshot"
	"rmq/internal/tableset"
)

// openWarm is the DecodeDeltas callback a replica uses: the live store
// for a tag if one exists, a fresh one otherwise.
func openWarm(stores map[string]*cache.Shared) snapshot.OpenStore {
	return func(tag string, st cache.StoreState) (*cache.Shared, error) {
		if sh, ok := stores[tag]; ok {
			return sh, nil
		}
		sh := cache.NewShared(tableset.NewSharedInterner(), st.Retention)
		stores[tag] = sh
		return sh, nil
	}
}

// sameFrontiers fails the test unless, for every bucket the want store
// exports, the got store's frontier holds plans with identical costs,
// outputs and operator trees (admission epochs are local and may
// differ).
func sameFrontiers(t *testing.T, want, got *cache.Shared) {
	t.Helper()
	wc := cache.New(want.Interner())
	wc.TrackDirty()
	want.NewSync().Pull(wc)
	gc := cache.New(got.Interner())
	gc.TrackDirty()
	got.NewSync().Pull(gc)
	_, err := want.Export(func(bs cache.BucketSnapshot) error {
		w, g := wc.Get(bs.Set), gc.Get(bs.Set)
		if len(w) != len(g) {
			return fmt.Errorf("set %v: %d plans replicated, %d original", bs.Set, len(g), len(w))
		}
		for i := range w {
			if w[i].Cost != g[i].Cost || w[i].Output != g[i].Output || w[i].String() != g[i].String() {
				return fmt.Errorf("set %v plan %d: %v %s vs %v %s", bs.Set, i, g[i].Cost, g[i], w[i].Cost, w[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// deltaFixture is a primary store plus the private cache and sync handle
// that feed it, so tests can publish more plans mid-flight.
type deltaFixture struct {
	sh *cache.Shared
	c  *cache.Cache
	st *cache.SyncState
	n  int
}

func newDeltaFixture(retain float64) *deltaFixture {
	sh := cache.NewShared(tableset.NewSharedInterner(), retain)
	c := cache.New(sh.Interner())
	c.TrackDirty()
	return &deltaFixture{sh: sh, c: c, st: sh.NewSync()}
}

// publish inserts a fresh scan-pair join with distinct costs and pushes
// it into the store.
func (fx *deltaFixture) publish(tb testing.TB) {
	tb.Helper()
	in := fx.sh.Interner()
	fx.n++
	t := fx.n % 4
	s1 := scan(in, t, plan.SeqScan, float64(fx.n), float64(100-fx.n))
	s2 := scan(in, t+4, plan.SeqScan, float64(fx.n)+0.5, float64(90-fx.n))
	fx.c.Insert(s1, 1)
	fx.c.Insert(s2, 1)
	fx.c.Insert(join(in, plan.MakeJoinOp(plan.Hash, false), s1, s2, float64(fx.n), float64(200-fx.n)), 1)
	fx.st.Publish(fx.c)
	fx.sh.NextIteration()
}

// TestDeltaRoundTripConverges pins the replication loop: a full pull
// (cursor 0) converges a cold replica, an incremental pull ships only
// what changed, and replaying a delta is a no-op.
func TestDeltaRoundTripConverges(t *testing.T) {
	fx := newDeltaFixture(1)
	for i := 0; i < 5; i++ {
		fx.publish(t)
	}

	stores := make(map[string]*cache.Shared)
	data, sent, err := snapshot.EncodeDeltas(0xfeedface, 42, []snapshot.TaggedDelta{{Tag: "\x00", Store: fx.sh}})
	if err != nil {
		t.Fatalf("EncodeDeltas: %v", err)
	}
	h, cursors, err := snapshot.DecodeDeltas(data, openWarm(stores))
	if err != nil {
		t.Fatalf("DecodeDeltas: %v", err)
	}
	if h.Fingerprint != 0xfeedface || h.Instance != 42 || h.Version != snapshot.Version {
		t.Fatalf("header = %+v", h)
	}
	if cursors["\x00"] != sent["\x00"] || cursors["\x00"] == 0 {
		t.Fatalf("cursors: encoder said %v, decoder saw %v", sent, cursors)
	}
	replica := stores["\x00"]
	sameFrontiers(t, fx.sh, replica)
	if gi, wi := replica.Iterations(), fx.sh.Iterations(); gi != wi {
		t.Fatalf("replica iterations %d, primary %d", gi, wi)
	}

	// Replay: merging the same delta again must admit nothing.
	_, before := replica.Stats()
	if _, _, err := snapshot.DecodeDeltas(data, openWarm(stores)); err != nil {
		t.Fatalf("replayed DecodeDeltas: %v", err)
	}
	if _, after := replica.Stats(); after != before {
		t.Fatalf("replay grew the replica from %d to %d plans", before, after)
	}

	// Incremental: publish more, pull since the cursor, converge again.
	fx.publish(t)
	fx.publish(t)
	data2, _, err := snapshot.EncodeDeltas(0xfeedface, 42, []snapshot.TaggedDelta{{Tag: "\x00", Store: fx.sh, Since: cursors["\x00"]}})
	if err != nil {
		t.Fatalf("incremental EncodeDeltas: %v", err)
	}
	if len(data2) >= len(data) {
		t.Fatalf("incremental delta (%d bytes) not smaller than full pull (%d bytes)", len(data2), len(data))
	}
	if _, _, err := snapshot.DecodeDeltas(data2, openWarm(stores)); err != nil {
		t.Fatalf("incremental DecodeDeltas: %v", err)
	}
	sameFrontiers(t, fx.sh, replica)
}

// TestDeltaQuiescentStoreShipsCursorOnly pins that a store with nothing
// new still contributes a section: the puller's cursor advances and the
// stream stays small.
func TestDeltaQuiescentStoreShipsCursorOnly(t *testing.T) {
	fx := newDeltaFixture(1)
	fx.publish(t)
	cursor := fx.sh.DeltaCursor()
	data, sent, err := snapshot.EncodeDeltas(1, 2, []snapshot.TaggedDelta{{Tag: "\x00", Store: fx.sh, Since: cursor}})
	if err != nil {
		t.Fatalf("EncodeDeltas: %v", err)
	}
	if sent["\x00"] != cursor {
		t.Fatalf("quiescent cursor moved: %d to %d", cursor, sent["\x00"])
	}
	stores := make(map[string]*cache.Shared)
	if _, cursors, err := snapshot.DecodeDeltas(data, openWarm(stores)); err != nil || cursors["\x00"] != cursor {
		t.Fatalf("DecodeDeltas: cursors %v, err %v", cursors, err)
	}
	if _, plans := stores["\x00"].Stats(); plans != 0 {
		t.Fatalf("quiescent delta shipped %d plans", plans)
	}
}

// TestDeltaRejectsMalformedInput mirrors the snapshot decoder's safety
// tests for the delta frame.
func TestDeltaRejectsMalformedInput(t *testing.T) {
	fx := newDeltaFixture(1)
	fx.publish(t)
	valid, _, err := snapshot.EncodeDeltas(1, 2, []snapshot.TaggedDelta{{Tag: "\x00", Store: fx.sh}})
	if err != nil {
		t.Fatalf("EncodeDeltas: %v", err)
	}
	discard := func(tag string, st cache.StoreState) (*cache.Shared, error) {
		return cache.NewShared(tableset.NewSharedInterner(), st.Retention), nil
	}
	t.Run("snapshot magic rejected", func(t *testing.T) {
		snap := encode(t, snapshot.TaggedStore{Tag: "\x00", Store: buildStore(t, 1, 5)})
		if _, _, err := snapshot.DecodeDeltas(snap, discard); err == nil {
			t.Fatal("DecodeDeltas accepted an rmq-snap stream")
		}
		if _, err := snapshot.Decode(valid, discard); err == nil {
			t.Fatal("Decode accepted an rmq-delt stream")
		}
	})
	t.Run("every truncation errors", func(t *testing.T) {
		for i := 0; i < len(valid); i++ {
			if _, _, err := snapshot.DecodeDeltas(valid[:i], discard); err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", i)
			}
		}
	})
	t.Run("every bit flip errors", func(t *testing.T) {
		for i := 0; i < len(valid); i++ {
			bad := bytes.Clone(valid)
			bad[i] ^= 1 << (i % 8)
			if _, _, err := snapshot.DecodeDeltas(bad, discard); err == nil {
				t.Fatalf("bit flip at byte %d decoded successfully", i)
			}
		}
	})
	t.Run("peek matches", func(t *testing.T) {
		h, err := snapshot.PeekDelta(valid)
		if err != nil || h.Fingerprint != 1 || h.Instance != 2 {
			t.Fatalf("PeekDelta = %+v, %v", h, err)
		}
		if _, err := snapshot.PeekDelta(valid[:len(valid)-1]); err == nil {
			t.Fatal("PeekDelta accepted a truncated stream")
		}
	})
}

// FuzzDeltaDecode drives arbitrary bytes through DecodeDeltas and
// asserts the no-panic contract, exactly like FuzzSnapshotDecode: any
// input either errors or merges cleanly into stores the engine can keep
// using.
func FuzzDeltaDecode(f *testing.F) {
	fx := newDeltaFixture(1)
	for i := 0; i < 4; i++ {
		fx.publish(f)
	}
	valid, _, err := snapshot.EncodeDeltas(0xfeedface, 7, []snapshot.TaggedDelta{{Tag: "\x00", Store: fx.sh}})
	if err != nil {
		f.Fatalf("EncodeDeltas: %v", err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("rmq-delt"))
	f.Add(valid[:len(valid)/2])
	mut := bytes.Clone(valid)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		stores := make(map[string]*cache.Shared)
		h, _, err := snapshot.DecodeDeltas(data, openWarm(stores))
		if err != nil {
			return
		}
		if h.Version != snapshot.Version {
			t.Fatalf("accepted version %d", h.Version)
		}
		// Whatever merged must still be a valid source: exporting a full
		// delta from it and merging into a fresh store must succeed.
		for tag, sh := range stores {
			mirror := make(map[string]*cache.Shared)
			again, _, err := snapshot.EncodeDeltas(h.Fingerprint, h.Instance, []snapshot.TaggedDelta{{Tag: tag, Store: sh}})
			if err != nil {
				t.Fatalf("re-exporting a merged store failed: %v", err)
			}
			want, _, err := snapshot.OracleEncodeDeltas(h.Fingerprint, h.Instance, []snapshot.TaggedDelta{{Tag: tag, Store: sh}})
			if err != nil || !bytes.Equal(again, want) {
				t.Fatalf("re-exported delta differs from the oracle's (err %v)", err)
			}
			if _, _, err := snapshot.DecodeDeltas(again, openWarm(mirror)); err != nil {
				t.Fatalf("re-merging a merged store failed: %v", err)
			}
		}
	})
}
