package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"weak"

	"rmq/internal/cache"
	"rmq/internal/cost"
	"rmq/internal/plan"
	"rmq/internal/snapshot"
	"rmq/internal/tableset"
)

// scan builds a valid scan plan over one table.
func scan(in *tableset.Interner, table int, op plan.ScanOp, costs ...float64) *plan.Plan {
	rel := tableset.Single(table)
	return &plan.Plan{
		Rel:    rel,
		RelID:  in.Intern(rel),
		Cost:   cost.New(costs...),
		Card:   100,
		Output: op.Output(),
		Table:  table,
		Scan:   op,
	}
}

// join builds a valid join plan from two children.
func join(in *tableset.Interner, op plan.JoinOp, outer, inner *plan.Plan, costs ...float64) *plan.Plan {
	rel := outer.Rel.Union(inner.Rel)
	return &plan.Plan{
		Rel:    rel,
		RelID:  in.Intern(rel),
		Cost:   cost.New(costs...),
		Card:   outer.Card * inner.Card / 10,
		Output: op.Output(),
		Join:   op,
		Outer:  outer,
		Inner:  inner,
	}
}

// buildStore fills a store with structurally valid plan trees — shared
// scan subtrees, pipelined and materializing joins, several publish
// rounds so admission epochs spread — through the same Cache/SyncState
// wiring live runs use.
func buildStore(tb testing.TB, retain float64, seed uint64) *cache.Shared {
	tb.Helper()
	sh := cache.NewShared(tableset.NewSharedInterner(), retain)
	in := sh.Interner()
	c := cache.New(in)
	c.TrackDirty()
	st := sh.NewSync()
	rng := rand.New(rand.NewPCG(seed, 17))
	cv := func() (float64, float64) { return 1 + rng.Float64()*50, 1 + rng.Float64()*50 }

	scans := make([]*plan.Plan, 6)
	for t := range scans {
		a, b := cv()
		scans[t] = scan(in, t, plan.ScanOp(t%plan.NumScanOps), a, b)
		c.Insert(scans[t], 1)
	}
	st.Publish(c)

	// Joins sharing scan subtrees across frontier entries, including
	// BNL variants (materialized inner — scans qualify) and
	// materializing variants feeding a second join level.
	var last *plan.Plan
	for round := 0; round < 3; round++ {
		for t := 0; t+1 < len(scans); t++ {
			alg := plan.JoinAlg(rng.IntN(plan.NumJoinAlgs))
			a, b := cv()
			j := join(in, plan.MakeJoinOp(alg, rng.IntN(2) == 0), scans[t], scans[t+1], a, b)
			c.Insert(j, 1)
			last = j
		}
		st.Publish(c)
		sh.NextIteration()
	}
	a, b := cv()
	top := join(in, plan.MakeJoinOp(plan.Hash, false), last, scans[0], a, b)
	c.Insert(top, 1)
	st.Publish(c)
	return sh
}

// openFresh is the Decode callback sessions use: a new store over a new
// shared interner at the snapshot's retention.
func openFresh(stores map[string]*cache.Shared) snapshot.OpenStore {
	return func(tag string, st cache.StoreState) (*cache.Shared, error) {
		sh := cache.NewShared(tableset.NewSharedInterner(), st.Retention)
		stores[tag] = sh
		return sh, nil
	}
}

// frontierDump renders every bucket of a store in a canonical text form
// (export order, plan structure, costs, epochs) for comparison.
func frontierDump(tb testing.TB, sh *cache.Shared) string {
	tb.Helper()
	var buf bytes.Buffer
	state, err := sh.Export(func(bs cache.BucketSnapshot) error {
		fmt.Fprintf(&buf, "bucket %v epoch %d\n", bs.Set, bs.Epoch)
		for i, p := range bs.Plans {
			fmt.Fprintf(&buf, "  @%d %v %v card %v %s\n", bs.Epochs[i], p.Cost, p.Output, p.Card, p)
		}
		return nil
	})
	if err != nil {
		tb.Fatalf("Export: %v", err)
	}
	fmt.Fprintf(&buf, "state %+v\n", state)
	return buf.String()
}

// encode is Encode with the test's default fingerprint.
func encode(tb testing.TB, stores ...snapshot.TaggedStore) []byte {
	tb.Helper()
	data, err := snapshot.Encode(0xfeedface, stores)
	if err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	return data
}

// TestRoundTripByteIdentical pins the codec's canonical-form property:
// decoding a snapshot into fresh stores and re-encoding those must
// reproduce the input byte for byte, across retention settings and
// multiple tagged stores.
func TestRoundTripByteIdentical(t *testing.T) {
	orig := []snapshot.TaggedStore{
		{Tag: "\x00", Store: buildStore(t, 1, 1)},
		{Tag: "\x00\x01", Store: buildStore(t, 1.5, 2)},
		{Tag: "\x00\x01\x02", Store: buildStore(t, 2, 3)},
	}
	data := encode(t, orig...)

	restored := make(map[string]*cache.Shared)
	h, err := snapshot.Decode(data, openFresh(restored))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if h.Version != snapshot.Version || h.Fingerprint != 0xfeedface {
		t.Fatalf("header = %+v", h)
	}
	if len(restored) != len(orig) {
		t.Fatalf("restored %d stores, want %d", len(restored), len(orig))
	}

	again := make([]snapshot.TaggedStore, 0, len(restored))
	for _, ts := range orig {
		again = append(again, snapshot.TaggedStore{Tag: ts.Tag, Store: restored[ts.Tag]})
	}
	data2 := encode(t, again...)
	if !bytes.Equal(data, data2) {
		t.Fatalf("re-encoding a restored snapshot changed the bytes (%d vs %d)", len(data), len(data2))
	}

	// And the restored stores hold identical contents and counters.
	for _, ts := range orig {
		if got, want := frontierDump(t, restored[ts.Tag]), frontierDump(t, ts.Store); got != want {
			t.Errorf("store %q contents diverged:\n--- restored\n%s--- original\n%s", ts.Tag, got, want)
		}
	}
}

// TestRestoredStoreAnswersPullIdentically is the warm-start guarantee:
// a fresh worker cache pulling from the restored store must receive the
// same frontiers as one pulling from the original, and the restored
// store's publish version must be visible to the Pull fast path (a
// restored non-empty store must never look like an empty one).
func TestRestoredStoreAnswersPullIdentically(t *testing.T) {
	orig := buildStore(t, 1, 7)
	data := encode(t, snapshot.TaggedStore{Tag: "\x00", Store: orig})
	restored := make(map[string]*cache.Shared)
	if _, err := snapshot.Decode(data, openFresh(restored)); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	res := restored["\x00"]

	pull := func(sh *cache.Shared) (*cache.Cache, int) {
		c := cache.New(sh.Interner())
		c.TrackDirty()
		return c, sh.NewSync().Pull(c)
	}
	oc, on := pull(orig)
	rc, rn := pull(res)
	if rn == 0 || rn != on {
		t.Fatalf("restored pull moved %d plans, original %d", rn, on)
	}
	if s1, p1 := orig.Stats(); true {
		if s2, p2 := res.Stats(); s1 != s2 || p1 != p2 {
			t.Fatalf("Stats diverged: restored (%d, %d), original (%d, %d)", s2, p2, s1, p1)
		}
	}
	if oi, ri := orig.Iterations(), res.Iterations(); oi != ri {
		t.Fatalf("Iterations diverged: restored %d, original %d", ri, oi)
	}
	// Frontier-by-frontier equality, keyed by table set.
	_, err := orig.Export(func(bs cache.BucketSnapshot) error {
		got, want := rc.Get(bs.Set), oc.Get(bs.Set)
		if len(got) != len(want) {
			return fmt.Errorf("set %v: %d plans restored, %d original", bs.Set, len(got), len(want))
		}
		for i := range want {
			if got[i].Cost != want[i].Cost || got[i].Output != want[i].Output || got[i].String() != want[i].String() {
				return fmt.Errorf("set %v plan %d: %v %s vs %v %s",
					bs.Set, i, got[i].Cost, got[i], want[i].Cost, want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// restoredPlans returns weak pointers to the plans a store holds for
// the table set rel, in admission order.
func restoredPlans(tb testing.TB, sh *cache.Shared, rel tableset.Set) []weak.Pointer[plan.Plan] {
	tb.Helper()
	var out []weak.Pointer[plan.Plan]
	if _, err := sh.Export(func(bs cache.BucketSnapshot) error {
		if bs.Set == rel {
			for _, p := range bs.Plans {
				out = append(out, weak.Make(p))
			}
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestRestoredBucketReleasesEvictedPlans pins that a restored store
// frees the plans its buckets evict later. A restored bucket's plans
// start in a window of a slab the decoder shares between buckets, so
// the window a growing bucket leaves behind must not keep its old plans
// reachable; nor may the slots an eviction compacts away.
func TestRestoredBucketReleasesEvictedPlans(t *testing.T) {
	sh := cache.NewShared(tableset.NewSharedInterner(), 1)
	in := sh.Interner()
	c := cache.New(in)
	c.TrackDirty()
	for _, p := range []*plan.Plan{
		scan(in, 0, plan.SeqScan, 4, 4),
		scan(in, 1, plan.SeqScan, 1, 9), scan(in, 1, plan.SeqScan, 5, 5), scan(in, 1, plan.SeqScan, 6, 4),
		scan(in, 2, plan.SeqScan, 1, 1), // keeps the slab in use
	} {
		if !c.Insert(p, 1) {
			t.Fatalf("setup plan %v refused", p.Cost)
		}
	}
	sh.NewSync().Publish(c)
	stores := make(map[string]*cache.Shared)
	if _, err := snapshot.Decode(encode(t, snapshot.TaggedStore{Tag: "\x00", Store: sh}), openFresh(stores)); err != nil {
		t.Fatal(err)
	}
	rs := stores["\x00"]
	grown := restoredPlans(t, rs, tableset.Single(0))
	compacted := restoredPlans(t, rs, tableset.Single(1))

	// Bucket {0} first admits an incomparable plan, outgrowing its
	// window, then one that evicts the restored plan. Bucket {1} admits
	// one plan evicting two restored plans in place.
	rin := rs.Interner()
	pc := cache.New(rin)
	pc.TrackDirty()
	for _, p := range []*plan.Plan{
		scan(rin, 0, plan.SeqScan, 8, 2), scan(rin, 0, plan.SeqScan, 3, 3),
		scan(rin, 1, plan.SeqScan, 4, 4),
	} {
		if !pc.Insert(p, 1) {
			t.Fatalf("plan %v refused", p.Cost)
		}
	}
	rs.NewSync().Publish(pc)
	if got := len(restoredPlans(t, rs, tableset.Single(0))); got != 2 {
		t.Fatalf("bucket {0} holds %d plans, want 2", got)
	}
	if got := len(restoredPlans(t, rs, tableset.Single(1))); got != 2 {
		t.Fatalf("bucket {1} holds %d plans, want 2", got)
	}

	runtime.GC()
	runtime.GC()
	for name, p := range map[string]weak.Pointer[plan.Plan]{
		"outgrown window": grown[0],
		"compacted slot":  compacted[1],
		"compacted tail":  compacted[2],
	} {
		if p.Value() != nil {
			t.Errorf("%s: evicted plan still reachable", name)
		}
	}
	if compacted[0].Value() == nil {
		t.Error("a surviving plan was collected")
	}
	runtime.KeepAlive(rs)
}

// TestEmptyAndNoStores pins the degenerate cases: no stores at all, and
// a store that was created but never published into.
func TestEmptyAndNoStores(t *testing.T) {
	data := encode(t)
	restored := make(map[string]*cache.Shared)
	if _, err := snapshot.Decode(data, openFresh(restored)); err != nil {
		t.Fatalf("Decode of empty snapshot: %v", err)
	}
	if len(restored) != 0 {
		t.Fatalf("empty snapshot opened %d stores", len(restored))
	}

	empty := cache.NewShared(tableset.NewSharedInterner(), 1)
	data = encode(t, snapshot.TaggedStore{Tag: "\x00", Store: empty})
	if _, err := snapshot.Decode(data, openFresh(restored)); err != nil {
		t.Fatalf("Decode of empty store: %v", err)
	}
	if _, plans := restored["\x00"].Stats(); plans != 0 {
		t.Fatalf("empty store restored %d plans", plans)
	}
}

// TestEncodeRejectsDuplicateTags pins the duplicate-tag guard.
func TestEncodeRejectsDuplicateTags(t *testing.T) {
	sh := cache.NewShared(tableset.NewSharedInterner(), 1)
	_, err := snapshot.Encode(1, []snapshot.TaggedStore{
		{Tag: "\x00", Store: sh},
		{Tag: "\x00", Store: sh},
	})
	if err == nil {
		t.Fatal("Encode accepted duplicate tags")
	}
}

// reseal recomputes the CRC trailer after a deliberate mutation, so the
// test reaches the structural validation behind the checksum.
func reseal(data []byte) []byte {
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

func TestDecodeRejectsMalformedInput(t *testing.T) {
	valid := encode(t, snapshot.TaggedStore{Tag: "\x00", Store: buildStore(t, 1, 9)})
	discard := func(tag string, st cache.StoreState) (*cache.Shared, error) {
		return cache.NewShared(tableset.NewSharedInterner(), st.Retention), nil
	}

	t.Run("wrong magic", func(t *testing.T) {
		bad := bytes.Clone(valid)
		bad[0] ^= 0xff
		if _, err := snapshot.Decode(bad, discard); !errors.Is(err, snapshot.ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("every truncation errors", func(t *testing.T) {
		for i := 0; i < len(valid); i++ {
			if _, err := snapshot.Decode(valid[:i], discard); err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", i)
			}
		}
	})
	t.Run("every bit flip errors", func(t *testing.T) {
		// The CRC covers the whole body, so any single-bit corruption
		// must surface as an error (ErrChecksum, or a frame error for
		// flips inside magic/trailer) — never a silent success.
		for i := 0; i < len(valid); i++ {
			bad := bytes.Clone(valid)
			bad[i] ^= 1 << (i % 8)
			if _, err := snapshot.Decode(bad, discard); err == nil {
				t.Fatalf("bit flip at byte %d decoded successfully", i)
			}
		}
	})
	t.Run("future version", func(t *testing.T) {
		// Rebuild the preamble with version+1 and a fixed-up CRC.
		future := []byte("rmq-snap")
		future = binary.AppendUvarint(future, snapshot.Version+1)
		future = binary.LittleEndian.AppendUint64(future, 0xfeedface)
		future = binary.AppendUvarint(future, 0)
		future = binary.LittleEndian.AppendUint32(future, crc32.ChecksumIEEE(future))
		if _, err := snapshot.Decode(future, discard); !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		bad := append(bytes.Clone(valid[:len(valid)-4]), 0xaa, 0xbb)
		if _, err := snapshot.Decode(reseal(append(bad, 0, 0, 0, 0)), discard); err == nil {
			t.Fatal("trailing bytes decoded successfully")
		}
	})
	t.Run("open error propagates", func(t *testing.T) {
		boom := errors.New("boom")
		_, err := snapshot.Decode(valid, func(string, cache.StoreState) (*cache.Shared, error) {
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want wrapped open error", err)
		}
	})
}

// TestPeekMatchesDecodeHeader pins that Peek sees the same header
// Decode does, and applies the same frame checks.
func TestPeekMatchesDecodeHeader(t *testing.T) {
	data := encode(t, snapshot.TaggedStore{Tag: "\x00", Store: buildStore(t, 1, 4)})
	h, err := snapshot.Peek(data)
	if err != nil {
		t.Fatalf("Peek: %v", err)
	}
	if h.Version != snapshot.Version || h.Fingerprint != 0xfeedface {
		t.Fatalf("Peek header = %+v", h)
	}
	if _, err := snapshot.Peek(data[:len(data)-1]); err == nil {
		t.Fatal("Peek accepted a truncated stream")
	}
}

// craftSnapshot hand-assembles a CRC-valid rmq-snap/v1 stream holding
// one store (tag "\x00", retention 1, two metrics) with one bucket over
// table 0: one SeqScan plan per cost pair, admitted in order. Every
// structural check of the format passes; whether the bucket is a valid
// frontier is up to the costs.
func craftSnapshot(fingerprint uint64, tag string, costs ...[2]float64) []byte {
	w := []byte("rmq-snap")
	w = binary.AppendUvarint(w, snapshot.Version)
	w = binary.LittleEndian.AppendUint64(w, fingerprint)
	w = binary.AppendUvarint(w, 1) // stores
	w = binary.AppendUvarint(w, uint64(len(tag)))
	w = append(w, tag...)
	w = binary.LittleEndian.AppendUint64(w, math.Float64bits(1)) // retention
	w = binary.AppendUvarint(w, 1)                               // store version
	w = binary.AppendUvarint(w, 0)                               // iterations
	w = append(w, 2)                                             // cost dimension
	w = binary.AppendUvarint(w, 1)                               // sets
	w = binary.AppendUvarint(w, 1)                               // buckets
	w = binary.AppendUvarint(w, 1)                               // set {0}: lo word
	w = binary.AppendUvarint(w, 0)                               // hi word
	w = binary.AppendUvarint(w, uint64(len(costs)))              // nodes
	for _, c := range costs {
		w = binary.AppendUvarint(w, 1) // set ref
		w = append(w, 0, 0, byte(plan.SeqScan))
		w = binary.LittleEndian.AppendUint64(w, math.Float64bits(c[0]))
		w = binary.LittleEndian.AppendUint64(w, math.Float64bits(c[1]))
		w = binary.LittleEndian.AppendUint64(w, math.Float64bits(100)) // cardinality
	}
	w = binary.AppendUvarint(w, uint64(len(costs))) // bucket epoch
	w = binary.AppendUvarint(w, uint64(len(costs))) // bucket plans
	for i := range costs {
		w = binary.AppendUvarint(w, uint64(i+1)) // node ref
		w = binary.AppendUvarint(w, 1)           // epoch delta
	}
	return binary.LittleEndian.AppendUint32(w, crc32.ChecksumIEEE(w))
}

// nonAntichainSnapshots are the two ways a CRC-valid bucket can break
// the per-class antichain invariant: a plan dominated by another plan
// of its class, and two plans of one class with equal cost vectors.
func nonAntichainSnapshots(fingerprint uint64, tag string) map[string][]byte {
	return map[string][]byte{
		"dominated plan":    craftSnapshot(fingerprint, tag, [2]float64{3, 1}, [2]float64{1, 3}, [2]float64{4, 3}),
		"equal cost vector": craftSnapshot(fingerprint, tag, [2]float64{2, 5}, [2]float64{5, 2}, [2]float64{2, 5}),
	}
}

// TestDecodeRejectsNonAntichainBucket pins the antichain check of
// bucket import: both hand-crafted snapshots are well-formed in every
// other respect (their antichain twin decodes), yet must be refused.
func TestDecodeRejectsNonAntichainBucket(t *testing.T) {
	ok := craftSnapshot(1, "\x00", [2]float64{3, 1}, [2]float64{1, 3}, [2]float64{2, 2})
	if _, err := snapshot.Decode(ok, openFresh(make(map[string]*cache.Shared))); err != nil {
		t.Fatalf("antichain control snapshot rejected: %v", err)
	}
	for name, data := range nonAntichainSnapshots(1, "\x00") {
		_, err := snapshot.Decode(data, openFresh(make(map[string]*cache.Shared)))
		if err == nil || !strings.Contains(err.Error(), "antichain") {
			t.Errorf("%s: Decode error = %v, want an antichain violation", name, err)
		}
	}
}

// craftSetTable hand-assembles a CRC-valid snapshot (or delta) stream
// with one store holding only a set table: no nodes, no buckets.
func craftSetTable(delta bool, sets ...tableset.Set) []byte {
	w := []byte("rmq-snap")
	if delta {
		w = []byte("rmq-delt")
	}
	w = binary.AppendUvarint(w, snapshot.Version)
	w = binary.LittleEndian.AppendUint64(w, 1) // fingerprint
	if delta {
		w = binary.LittleEndian.AppendUint64(w, 2) // instance
	}
	w = binary.AppendUvarint(w, 1) // stores
	w = append(w, 1, 0)            // tag "\x00"
	w = binary.LittleEndian.AppendUint64(w, math.Float64bits(1))
	w = append(w, 1, 0) // store version, iterations
	if delta {
		w = append(w, 0) // cursor
	}
	w = append(w, 2) // cost dimension
	w = binary.AppendUvarint(w, uint64(len(sets)))
	w = append(w, 0) // buckets
	for _, s := range sets {
		lo, hi := s.Words()
		w = binary.AppendUvarint(w, lo)
		w = binary.AppendUvarint(w, hi)
	}
	w = append(w, 0) // nodes
	return binary.LittleEndian.AppendUint32(w, crc32.ChecksumIEEE(w))
}

// TestDecodeRejectsDuplicateSets pins the set table's duplicate check on
// both of its paths: the dense ids a restore's fresh interner assigns,
// and the sparse ids of a delta into a store that has interned many
// sets already.
func TestDecodeRejectsDuplicateSets(t *testing.T) {
	a, b := tableset.FromWords(1000, 0), tableset.FromWords(1001, 0)
	if _, err := snapshot.Decode(craftSetTable(false, a, b), openFresh(make(map[string]*cache.Shared))); err != nil {
		t.Fatalf("distinct sets rejected: %v", err)
	}
	if _, err := snapshot.Decode(craftSetTable(false, a, b, a), openFresh(make(map[string]*cache.Shared))); err == nil ||
		!strings.Contains(err.Error(), "entry 3 empty or duplicate") {
		t.Fatalf("restore: err = %v, want a duplicate set at entry 3", err)
	}
	warm := cache.NewShared(tableset.NewSharedInterner(), 1)
	for i := uint64(1); i <= 100; i++ {
		warm.Interner().Intern(tableset.FromWords(i, 0))
	}
	stores := map[string]*cache.Shared{"\x00": warm}
	if _, _, err := snapshot.DecodeDeltas(craftSetTable(true, a, b), openWarm(stores)); err != nil {
		t.Fatalf("delta: distinct sets rejected: %v", err)
	}
	if _, _, err := snapshot.DecodeDeltas(craftSetTable(true, b, a, b), openWarm(stores)); err == nil ||
		!strings.Contains(err.Error(), "entry 3 empty or duplicate") {
		t.Fatalf("delta: err = %v, want a duplicate set at entry 3", err)
	}
}

// FuzzSnapshotDecode drives arbitrary bytes through Decode and asserts
// the no-panic contract: malformed input of any shape returns an error
// (or, for inputs that happen to be valid, a well-formed result), never
// a panic or runaway allocation.
func FuzzSnapshotDecode(f *testing.F) {
	valid := encode(f, snapshot.TaggedStore{Tag: "\x00", Store: buildStore(f, 1, 11)})
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("rmq-snap"))
	f.Add(valid[:len(valid)/2])
	mut := bytes.Clone(valid)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)
	f.Add(reseal(append(bytes.Clone(valid[:len(valid)-4]), 0xff, 0xff, 0xff, 0xff)))
	for _, data := range nonAntichainSnapshots(0xfeedface, "\x00") {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		restored := make(map[string]*cache.Shared)
		h, err := snapshot.Decode(data, openFresh(restored))
		if err != nil {
			return
		}
		if h.Version != snapshot.Version {
			t.Fatalf("accepted version %d", h.Version)
		}
		// Whatever decoded must re-encode cleanly: the codec never
		// materializes stores it could not itself have written.
		stores := make([]snapshot.TaggedStore, 0, len(restored))
		for tag, sh := range restored {
			stores = append(stores, snapshot.TaggedStore{Tag: tag, Store: sh})
		}
		again, err := snapshot.Encode(h.Fingerprint, stores)
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot failed: %v", err)
		}
		// ...byte for byte as the oracle encoder would have.
		want, err := snapshot.OracleEncode(h.Fingerprint, stores)
		if err != nil || !bytes.Equal(again, want) {
			t.Fatalf("re-encoding differs from the oracle's (err %v)", err)
		}
	})
}
