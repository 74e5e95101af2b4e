package snapshot_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rmq/internal/cache"
	"rmq/internal/catalog"
	"rmq/internal/costmodel"
	"rmq/internal/snapshot"
)

// update rewrites the golden streams under testdata/ instead of checking
// them: go test ./internal/snapshot -run TestGoldenStreams -update
var update = flag.Bool("update", false, "rewrite the golden streams in testdata/")

// Golden stream files. The snapshot holds two stores (one per metric
// subset) built by optimizer runs over an 8-table chain; the delta files
// are rmq-delt streams of the store restored from it, pulled from cursor
// 0 and from the middle of each store's cursor range.
const (
	goldenSnap      = "testdata/chain8.rmq-snap"
	goldenDeltaFull = "testdata/chain8-since0.rmq-delt"
	goldenDeltaMid  = "testdata/chain8-sincemid.rmq-delt"
	goldenFP        = 0x5eed_c4a1_0008
	goldenInstance  = 7
)

// goldenStores builds the stores the golden snapshot was written from.
func goldenStores(tb testing.TB) []snapshot.TaggedStore {
	subsets := [][]costmodel.Metric{
		{costmodel.Time, costmodel.Buffer},
		{costmodel.Time, costmodel.Disc},
	}
	var stores []snapshot.TaggedStore
	for _, metrics := range subsets {
		sh, _ := runStore(tb, 8, catalog.Chain, metrics, 1, 2, 60)
		tag := make([]byte, len(metrics))
		for i, m := range metrics {
			tag[i] = byte(m)
		}
		stores = append(stores, snapshot.TaggedStore{Tag: string(tag), Store: sh})
	}
	return stores
}

// goldenDeltas encodes the restored stores' deltas from cursor 0 and
// from half of each store's current cursor.
func goldenDeltas(tb testing.TB, restored map[string]*cache.Shared) (full, mid []byte) {
	tb.Helper()
	full = encodeDeltas(tb, snapshot.EncodeDeltas, restored, func(*cache.Shared) uint64 { return 0 })
	mid = encodeDeltas(tb, snapshot.EncodeDeltas, restored, func(sh *cache.Shared) uint64 { return sh.DeltaCursor() / 2 })
	return full, mid
}

// encodeDeltas calls encode with one request per store, pulling since
// the cursor since picks. The requests are built by field name (Tag,
// Store, Since), so the pin depends on EncodeDeltas's wire output only,
// not on what its request type is called.
func encodeDeltas[T any](tb testing.TB, encode func(uint64, uint64, []T) ([]byte, map[string]uint64, error),
	stores map[string]*cache.Shared, since func(*cache.Shared) uint64) []byte {
	tb.Helper()
	var reqs []T
	for tag, sh := range stores {
		var req T
		v := reflect.ValueOf(&req).Elem()
		v.FieldByName("Tag").SetString(tag)
		v.FieldByName("Store").Set(reflect.ValueOf(sh))
		v.FieldByName("Since").SetUint(since(sh))
		reqs = append(reqs, req)
	}
	data, _, err := encode(goldenFP, goldenInstance, reqs)
	if err != nil {
		tb.Fatalf("EncodeDeltas: %v", err)
	}
	return data
}

// TestGoldenStreams pins both wire formats to committed files: decoding
// the golden snapshot and encoding it again must reproduce it byte for
// byte, the restored stores must encode to the golden deltas, and the
// deltas must merge into fresh stores. Unlike the oracle comparison,
// which walks stores through the same export calls as the encoder, the
// files were written by an earlier build, so a change to the export walk
// or the section encoder that keeps the two in step still fails here.
func TestGoldenStreams(t *testing.T) {
	if *update {
		snap, err := snapshot.Encode(goldenFP, goldenStores(t))
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		restored := make(map[string]*cache.Shared)
		if _, err := snapshot.Decode(snap, openFresh(restored)); err != nil {
			t.Fatalf("Decode: %v", err)
		}
		full, mid := goldenDeltas(t, restored)
		for name, data := range map[string][]byte{goldenSnap: snap, goldenDeltaFull: full, goldenDeltaMid: mid} {
			if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("reading golden stream: %v", err)
		}
		if len(data) > 64<<10 {
			t.Fatalf("%s is %d bytes; golden streams stay under 64 KiB", name, len(data))
		}
		return data
	}
	snap, wantFull, wantMid := read(goldenSnap), read(goldenDeltaFull), read(goldenDeltaMid)

	restored := make(map[string]*cache.Shared)
	h, err := snapshot.Decode(snap, openFresh(restored))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if h.Fingerprint != goldenFP || len(restored) != 2 {
		t.Fatalf("golden snapshot decoded to fingerprint %x with %d stores", h.Fingerprint, len(restored))
	}
	var again []snapshot.TaggedStore
	for tag, sh := range restored {
		again = append(again, snapshot.TaggedStore{Tag: tag, Store: sh})
	}
	if got, err := snapshot.Encode(goldenFP, again); err != nil || !bytes.Equal(got, snap) {
		t.Fatalf("re-encoded golden snapshot differs (%d bytes, want %d; err %v)", len(got), len(snap), err)
	}

	full, mid := goldenDeltas(t, restored)
	if !bytes.Equal(full, wantFull) {
		t.Fatalf("delta since 0 of the restored stores differs from %s (%d bytes, want %d)", goldenDeltaFull, len(full), len(wantFull))
	}
	if !bytes.Equal(mid, wantMid) {
		t.Fatalf("delta since mid of the restored stores differs from %s (%d bytes, want %d)", goldenDeltaMid, len(mid), len(wantMid))
	}
	if len(mid) >= len(full) {
		t.Fatalf("mid-cursor delta (%d bytes) not smaller than the full one (%d bytes)", len(mid), len(full))
	}

	for i, data := range [][]byte{wantFull, wantMid} {
		fresh := make(map[string]*cache.Shared)
		dh, cursors, err := snapshot.DecodeDeltas(data, openWarm(fresh))
		if err != nil {
			t.Fatalf("DecodeDeltas: %v", err)
		}
		if dh.Fingerprint != goldenFP || dh.Instance != goldenInstance || len(cursors) != 2 {
			t.Fatalf("golden delta decoded to header %+v, cursors %v", dh, cursors)
		}
		if i == 0 {
			for tag, sh := range restored {
				sameFrontiers(t, sh, fresh[tag])
			}
		}
	}
}
