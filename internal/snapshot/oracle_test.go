package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"

	"rmq/internal/cache"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// This file keeps the map-based section encoder the codec shipped with
// as a test-only oracle: sets keyed by value and nodes by plan pointer
// in hash maps, written in one pass that looks every id up again. The
// production encoder (section, sectionBuilder) must produce the same
// bytes for every store; OracleEncode and OracleEncodeDeltas are the
// reference Encode and EncodeDeltas built on it.

// OracleEncode is Encode over the oracle section encoder.
func OracleEncode(fingerprint uint64, stores []TaggedStore) ([]byte, error) {
	sorted := slices.Clone(stores)
	slices.SortFunc(sorted, func(a, b TaggedStore) int { return strings.Compare(a.Tag, b.Tag) })
	w := make([]byte, 0, 4096)
	w = append(w, magic...)
	w = binary.AppendUvarint(w, Version)
	w = binary.LittleEndian.AppendUint64(w, fingerprint)
	w = binary.AppendUvarint(w, uint64(len(sorted)))
	for i, ts := range sorted {
		if i > 0 && ts.Tag == sorted[i-1].Tag {
			return nil, fmt.Errorf("snapshot: duplicate store tag %q", ts.Tag)
		}
		var buckets []cache.BucketSnapshot
		state, err := ts.Store.Export(func(bs cache.BucketSnapshot) error {
			buckets = append(buckets, bs)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if w, err = oracleAppendSection(w, ts.Tag, state, buckets, 0, false); err != nil {
			return nil, err
		}
	}
	return binary.LittleEndian.AppendUint32(w, crc32.ChecksumIEEE(w)), nil
}

// OracleEncodeDeltas is EncodeDeltas over the oracle section encoder.
func OracleEncodeDeltas(fingerprint, instance uint64, stores []TaggedDelta) ([]byte, map[string]uint64, error) {
	sorted := slices.Clone(stores)
	slices.SortFunc(sorted, func(a, b TaggedDelta) int { return strings.Compare(a.Tag, b.Tag) })
	w := make([]byte, 0, 1024)
	w = append(w, magicDelta...)
	w = binary.AppendUvarint(w, Version)
	w = binary.LittleEndian.AppendUint64(w, fingerprint)
	w = binary.LittleEndian.AppendUint64(w, instance)
	w = binary.AppendUvarint(w, uint64(len(sorted)))
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
		if w, err = oracleAppendSection(w, td.Tag, td.Store.State(), buckets, cursor, true); err != nil {
			return nil, nil, err
		}
		cursors[td.Tag] = cursor
	}
	return binary.LittleEndian.AppendUint32(w, crc32.ChecksumIEEE(w)), cursors, nil
}

// oracleAppendSection appends one store section to w.
func oracleAppendSection(w []byte, tag string, state cache.StoreState, buckets []cache.BucketSnapshot, cursor uint64, delta bool) ([]byte, error) {
	// Compact set renumbering: bucket sets first (ids 1..B in export
	// order, so bucket sections need no explicit set reference), then
	// every other set reached by the node walk.
	setID := make(map[tableset.Set]int, len(buckets)*2)
	var sets []tableset.Set
	internSet := func(s tableset.Set) int {
		if id, ok := setID[s]; ok {
			return id
		}
		sets = append(sets, s)
		setID[s] = len(sets)
		return len(sets)
	}
	for _, bs := range buckets {
		if _, dup := setID[bs.Set]; dup {
			return nil, fmt.Errorf("snapshot: store %q exported bucket set %v twice", tag, bs.Set)
		}
		internSet(bs.Set)
	}
	numBuckets := len(sets)

	// Deduplicated node table, children strictly before parents; pointer
	// identity is the dedup key.
	nodeID := make(map[*plan.Plan]int, len(buckets)*4)
	var nodes []*plan.Plan
	dim := -1
	var walk func(p *plan.Plan) error
	walk = func(p *plan.Plan) error {
		if _, ok := nodeID[p]; ok {
			return nil
		}
		if p.IsJoin() {
			if err := walk(p.Outer); err != nil {
				return err
			}
			if err := walk(p.Inner); err != nil {
				return err
			}
		}
		if dim < 0 {
			dim = p.Cost.Dim()
		} else if p.Cost.Dim() != dim {
			return fmt.Errorf("snapshot: store %q mixes cost dimensions %d and %d", tag, dim, p.Cost.Dim())
		}
		internSet(p.Rel)
		nodes = append(nodes, p)
		nodeID[p] = len(nodes)
		return nil
	}
	for _, bs := range buckets {
		for _, p := range bs.Plans {
			if err := walk(p); err != nil {
				return nil, err
			}
		}
	}
	if dim < 0 {
		dim = 0
	}

	w = binary.AppendUvarint(w, uint64(len(tag)))
	w = append(w, tag...)
	w = binary.LittleEndian.AppendUint64(w, math.Float64bits(state.Retention))
	w = binary.AppendUvarint(w, state.Version)
	w = binary.AppendUvarint(w, uint64(state.Iterations))
	if delta {
		w = binary.AppendUvarint(w, cursor)
	}
	w = append(w, byte(dim))
	w = binary.AppendUvarint(w, uint64(len(sets)))
	w = binary.AppendUvarint(w, uint64(numBuckets))
	for _, s := range sets {
		lo, hi := s.Words()
		w = binary.AppendUvarint(w, lo)
		w = binary.AppendUvarint(w, hi)
	}
	w = binary.AppendUvarint(w, uint64(len(nodes)))
	for _, p := range nodes {
		w = binary.AppendUvarint(w, uint64(setID[p.Rel]))
		if !p.IsJoin() {
			w = append(w, 0, byte(p.Table), byte(p.Scan))
		} else {
			w = append(w, 1, byte(p.Join))
			w = binary.AppendUvarint(w, uint64(nodeID[p.Outer]))
			w = binary.AppendUvarint(w, uint64(nodeID[p.Inner]))
		}
		for i := 0; i < dim; i++ {
			w = binary.LittleEndian.AppendUint64(w, math.Float64bits(p.Cost.At(i)))
		}
		w = binary.LittleEndian.AppendUint64(w, math.Float64bits(p.Card))
	}
	for _, bs := range buckets {
		w = binary.AppendUvarint(w, bs.Epoch)
		w = binary.AppendUvarint(w, uint64(len(bs.Plans)))
		prev := uint64(0)
		for i, p := range bs.Plans {
			w = binary.AppendUvarint(w, uint64(nodeID[p]))
			w = binary.AppendUvarint(w, bs.Epochs[i]-prev)
			prev = bs.Epochs[i]
		}
	}
	return w, nil
}

// ScanMax exposes the bucket size past which the encoder numbers bucket
// plans through its fallback map, so tests can check both paths ran.
const ScanMax = scanMax
