// rmq-delt/v1: the delta stream that puts cache.SyncState's
// publish/pull exchange on the wire. Where a snapshot moves a whole
// store between cold processes, a delta moves *changes* between live
// ones: every bucket changed since a per-store replication cursor ships
// its entire retained frontier, and the receiving store merges it
// through the ordinary admission path (cache.Shared.MergeBucket), which
// deduplicates and keeps dominance intact. The stream reuses the
// snapshot codec's frame and store-section layout:
//
//	"rmq-delt" | uvarint version | u64 fingerprint | u64 instance
//	uvarint #stores | store* | u32 CRC32-IEEE
//
// with each store section identical to a snapshot section except for
// one extra uvarint — the replication cursor after this delta — between
// the iteration counter and the cost dimension. The instance id names
// the sender's incarnation of the catalog: cursors are meaningless
// across a restart or a re-registration, so a receiver whose remembered
// instance differs must discard its cursors and pull from zero (the
// snapshot-equivalent resync). Decoding carries the same guarantees as
// rmq-snap/v1: CRC-first, bounds-checked, errors — never panics — on
// adversarial input.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"

	"rmq/internal/cache"
)

// magicDelta opens every delta stream.
const magicDelta = "rmq-delt"

// TaggedDelta names one store to export changes from: the session tag,
// the store, and the cursor the puller presented (0 pulls everything).
type TaggedDelta struct {
	Tag   string
	Store *cache.Shared
	Since uint64
}

// DeltaHeader is the delta preamble.
type DeltaHeader struct {
	Version     uint64
	Fingerprint uint64
	// Instance identifies the sender's incarnation of the catalog;
	// cursors from one instance must not be presented to another.
	Instance uint64
}

// EncodeDeltas serializes every store's changes since its cursor into
// one rmq-delt/v1 stream and returns, per tag, the cursor the puller
// should present next time. Stores with no changes still contribute a
// section (header and fresh cursor, no buckets), so a puller's cursor
// map converges even when only some stores are hot.
func EncodeDeltas(fingerprint, instance uint64, stores []TaggedDelta) ([]byte, map[string]uint64, error) {
	sorted := slices.Clone(stores)
	slices.SortFunc(sorted, func(a, b TaggedDelta) int { return strings.Compare(a.Tag, b.Tag) })
	secs := make([]*section, len(sorted))
	size := len(magicDelta) + uvarintLen(Version) + 8 + 8 + uvarintLen(uint64(len(sorted))) + 4
	cursors := make(map[string]uint64, len(sorted))
	for i, td := range sorted {
		if i > 0 && td.Tag == sorted[i-1].Tag {
			return nil, nil, fmt.Errorf("snapshot: duplicate delta tag %q", td.Tag)
		}
		var buckets []cache.BucketSnapshot
		cursor, err := td.Store.ExportDelta(td.Since, func(bs cache.BucketSnapshot) error {
			buckets = append(buckets, bs)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		// State read after the export: monotone counters are ≥ anything
		// the exported buckets reflect.
		if secs[i], err = newSection(td.Tag, td.Store.Interner(), td.Store.State(), buckets, cursor, true); err != nil {
			return nil, nil, err
		}
		size += secs[i].size()
		cursors[td.Tag] = cursor
	}
	w := make([]byte, 0, size)
	w = append(w, magicDelta...)
	w = binary.AppendUvarint(w, Version)
	w = binary.LittleEndian.AppendUint64(w, fingerprint)
	w = binary.LittleEndian.AppendUint64(w, instance)
	w = binary.AppendUvarint(w, uint64(len(sorted)))
	for _, sec := range secs {
		w = sec.appendTo(w)
	}
	return binary.LittleEndian.AppendUint32(w, crc32.ChecksumIEEE(w)), cursors, nil
}

// PeekDelta verifies the frame and returns the header without applying
// anything.
func PeekDelta(data []byte) (DeltaHeader, error) {
	r, err := openFrameMagic(data, magicDelta)
	if err != nil {
		return DeltaHeader{}, err
	}
	return r.deltaHeader()
}

// DecodeDeltas verifies the frame and merges every store section into
// the live store returned by open, returning the header and the per-tag
// cursors for the next pull. Unlike Decode, the opened stores may be
// warm and populated: buckets apply through MergeBucket (idempotent
// admission, local epochs) and counters through MergeState. A partial
// failure leaves already-merged sections in place — safe, because every
// merged plan went through ordinary admission; the caller just retries
// from its previous cursors.
func DecodeDeltas(data []byte, open OpenStore) (DeltaHeader, map[string]uint64, error) {
	r, err := openFrameMagic(data, magicDelta)
	if err != nil {
		return DeltaHeader{}, nil, err
	}
	h, err := r.deltaHeader()
	if err != nil {
		return DeltaHeader{}, nil, err
	}
	nStores, err := r.count("store")
	if err != nil {
		return DeltaHeader{}, nil, err
	}
	cursors := make(map[string]uint64, nStores)
	prevTag := ""
	for i := 0; i < nStores; i++ {
		tag, cursor, err := r.decodeStore(open, true)
		if err != nil {
			return DeltaHeader{}, nil, err
		}
		if i > 0 && tag <= prevTag {
			return DeltaHeader{}, nil, fmt.Errorf("snapshot: delta tags out of order (%q after %q)", tag, prevTag)
		}
		prevTag = tag
		cursors[tag] = cursor
	}
	if r.rem() != 0 {
		return DeltaHeader{}, nil, fmt.Errorf("snapshot: %d trailing bytes after last delta store", r.rem())
	}
	return h, cursors, nil
}

// deltaHeader reads the version, fingerprint and instance id.
func (r *reader) deltaHeader() (DeltaHeader, error) {
	h, err := r.header()
	if err != nil {
		return DeltaHeader{}, err
	}
	instance, err := r.u64("instance")
	if err != nil {
		return DeltaHeader{}, err
	}
	return DeltaHeader{Version: h.Version, Fingerprint: h.Fingerprint, Instance: instance}, nil
}
