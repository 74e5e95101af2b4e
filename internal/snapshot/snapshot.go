// Package snapshot implements rmq-snap/v1, the versioned binary codec
// that persists a session's shared plan caches (cache.Shared) across
// process restarts. A snapshot captures, per metric subset, the
// retained α-approximate sub-plan frontiers together with the three
// counters that make a restored store a drop-in continuation of the
// original: per-bucket admission epochs (so warm-start sync marks stay
// valid), the store-wide publish version (so SyncState.Pull's fast path
// does not mistake a restored store for an empty one), and the
// cumulative iteration counter (so the α schedule resumes at the
// precision the store was refined to instead of redoing the coarse
// passes).
//
// The package has one encoder and one decoder for two streams. A delta
// (rmq-delt/v1, see delta.go) ships every bucket changed since a
// replication cursor; a snapshot is the delta since zero, framed under
// its own magic without the instance id and per-store cursor. A delta
// store section is a snapshot section plus that cursor. The streams
// differ in what a decoded section does to its store: a snapshot
// installs buckets verbatim into a fresh store (cache.Shared.
// ImportBucket, epochs kept), a delta merges them into a live one
// (MergeBucket, through ordinary admission).
//
// # Wire format
//
// A snapshot is one framed byte stream:
//
//	"rmq-snap" | uvarint version | u64 fingerprint | uvarint #stores
//	store*                                         | u32 CRC32-IEEE
//
// with every u32/u64 little-endian and the CRC covering all preceding
// bytes. The fingerprint identifies the catalog the frontiers were
// computed against (see the session layer); the codec treats it as
// opaque. Each store section is:
//
//	uvarint len(tag) | tag | u64 retention bits | uvarint version
//	uvarint iterations | byte dim | uvarint #sets | uvarint #buckets
//	set* | uvarint #nodes | node* | bucket*
//
// Table sets are compact-renumbered: ids 1..B name the bucket sets in
// export order, ids B+1..S the additional sets referenced by interior
// plan nodes, in first-visit order of the node walk. The renumbering is
// what keeps snapshots O(retained plans): the live interner also holds
// ids for every transient set a long run ever probed, and none of that
// history is serialized. Plan trees are deduplicated into one node
// table per store (children strictly before parents, first-visit
// order), so sub-plans shared across frontier entries — the common case
// after recombination — are stored once.
//
// # Determinism and safety
//
// Encoding is canonical: stores sorted by tag, buckets in export order,
// sets and nodes in first-visit order, admission epochs delta-coded.
// Encoding a store restored from a snapshot therefore reproduces the
// snapshot byte for byte, which CI uses as the round-trip property.
// Decode verifies the frame (magic, version, checksum) before parsing,
// validates every structural invariant the engine relies on, and
// returns errors — never panics — on malformed, truncated or
// version-skewed input. The invariants are:
//
//   - operator applicability (a join needing a rescannable inner gets a
//     materialized one; scans name their own table);
//   - join children with disjoint table sets whose union is the node's;
//   - distinct, non-empty table sets, and children before parents;
//   - strictly ascending admission epochs, none past the bucket's
//     counter;
//   - finite, non-negative costs and cardinalities;
//   - buckets that are per-output-class antichains: no plan weakly
//     dominates another plan with the same output representation, so in
//     particular no two of them have equal cost vectors. Every live
//     store keeps this invariant, and the warm start that copies a
//     restored bucket wholesale (cache.SyncState.Pull) depends on it.
//
// Encoding resolves each section before writing it — set and node
// tables are arrays indexed by interned set id and bucket position, no
// plan pointer is hashed — and sizes the output buffer once.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"

	"rmq/internal/cache"
	"rmq/internal/cost"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// Version is the codec version this build reads and writes. The policy
// is explicit versioning, no silent migration: a reader rejects any
// other version with ErrVersion, and format changes bump the version
// rather than reinterpreting existing fields.
const Version = 1

// magic opens every snapshot stream.
const magic = "rmq-snap"

// Framing errors, distinguishable with errors.Is so callers can map
// "not a snapshot at all" and "damaged snapshot" to different
// responses.
var (
	ErrBadMagic  = errors.New("snapshot: not an rmq-snap stream")
	ErrTruncated = errors.New("snapshot: truncated input")
	ErrChecksum  = errors.New("snapshot: checksum mismatch (corrupt or bit-flipped input)")
	ErrVersion   = errors.New("snapshot: unsupported codec version")
)

// TaggedStore names one store to encode: the session tag identifying
// its metric subset (the codec treats tags as opaque ordered bytes), the
// store, and the replication cursor the puller presented (0 pulls
// everything). A snapshot ignores Since.
type TaggedStore struct {
	Tag   string
	Store *cache.Shared
	Since uint64
}

// Header is the stream preamble: codec version, the catalog fingerprint
// the frontiers belong to and, in a delta stream, the sender's instance.
type Header struct {
	Version     uint64
	Fingerprint uint64
	// Instance identifies the sender's incarnation of the catalog;
	// cursors from one instance must not be presented to another. A
	// snapshot carries none (0).
	Instance uint64
}

// OpenStore returns the destination store for one store section during
// Decode or DecodeDeltas. The callback owns store construction so the
// codec stays ignorant of session policy. The returned store must report
// exactly state.Retention. For Decode it is a fresh store over a fresh
// interner, whose buckets for the section's table sets are
// empty; for DecodeDeltas it may be a live, populated one.
type OpenStore func(tag string, state cache.StoreState) (*cache.Shared, error)

// Encode serializes the stores into one rmq-snap/v1 snapshot.
func Encode(fingerprint uint64, stores []TaggedStore) ([]byte, error) {
	data, _, err := encode(false, fingerprint, 0, stores)
	return data, err
}

// Peek verifies the frame (magic, length, checksum, version) and
// returns the header without materializing anything. Callers use it to
// check the catalog fingerprint before committing to a restore.
func Peek(data []byte) (Header, error) {
	h, _, err := decode(false, data, nil)
	return h, err
}

// Decode verifies the frame and materializes every store section
// through open, returning the header. On error the stores already
// opened are left partially populated; callers must discard them
// (restores target fresh sessions, so discarding is dropping the
// session).
func Decode(data []byte, open OpenStore) (Header, error) {
	h, _, err := decode(false, data, open)
	return h, err
}

// encode serializes the stores into one stream: a snapshot of every
// store, or with delta set, a delta stream of every store's changes
// since its Since. It returns, for a delta, each tag's cursor after it.
func encode(delta bool, fingerprint, instance uint64, stores []TaggedStore) ([]byte, map[string]uint64, error) {
	sorted := slices.Clone(stores)
	slices.SortFunc(sorted, func(a, b TaggedStore) int { return strings.Compare(a.Tag, b.Tag) })
	head, instanceLen := magic, 0
	var cursors map[string]uint64
	if delta {
		head, instanceLen = magicDelta, 8
		cursors = make(map[string]uint64, len(sorted))
	}
	secs := make([]*section, len(sorted))
	size := len(head) + uvarintLen(Version) + 8 + instanceLen + uvarintLen(uint64(len(sorted))) + 4
	for i, ts := range sorted {
		if i > 0 && ts.Tag == sorted[i-1].Tag {
			return nil, nil, fmt.Errorf("snapshot: duplicate store tag %q", ts.Tag)
		}
		since := uint64(0)
		if delta {
			since = ts.Since
		}
		var buckets []cache.BucketSnapshot
		if since == 0 {
			sets, _ := ts.Store.Stats()
			buckets = make([]cache.BucketSnapshot, 0, sets)
		}
		state, cursor, err := ts.Store.Export(since, func(bs cache.BucketSnapshot) error {
			buckets = append(buckets, bs)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if secs[i], err = newSection(ts.Tag, ts.Store.Interner(), state, buckets, cursor, delta); err != nil {
			return nil, nil, err
		}
		size += secs[i].size()
		if delta {
			cursors[ts.Tag] = cursor
		}
	}
	w := make([]byte, 0, size)
	w = append(w, head...)
	w = binary.AppendUvarint(w, Version)
	w = binary.LittleEndian.AppendUint64(w, fingerprint)
	if delta {
		w = binary.LittleEndian.AppendUint64(w, instance)
	}
	w = binary.AppendUvarint(w, uint64(len(sorted)))
	for _, sec := range secs {
		w = sec.appendTo(w)
	}
	return binary.LittleEndian.AppendUint32(w, crc32.ChecksumIEEE(w)), cursors, nil
}

// decode verifies the frame of a snapshot, or with delta set a delta
// stream, and loads every store section through open, returning the
// header and each tag's cursor (0 in a snapshot). With a nil open it
// stops after the header.
func decode(delta bool, data []byte, open OpenStore) (Header, map[string]uint64, error) {
	want := magic
	if delta {
		want = magicDelta
	}
	r, err := openFrame(data, want)
	if err != nil {
		return Header{}, nil, err
	}
	h, err := r.header(delta)
	if err != nil || open == nil {
		return h, nil, err
	}
	nStores, err := r.count("store")
	if err != nil {
		return Header{}, nil, err
	}
	cursors := make(map[string]uint64, nStores)
	prevTag := ""
	for i := 0; i < nStores; i++ {
		tag, cursor, err := r.decodeStore(open, delta)
		if err != nil {
			return Header{}, nil, err
		}
		if i > 0 && tag <= prevTag {
			return Header{}, nil, fmt.Errorf("snapshot: store tags out of order (%q after %q)", tag, prevTag)
		}
		prevTag = tag
		cursors[tag] = cursor
	}
	if r.rem() != 0 {
		return Header{}, nil, fmt.Errorf("snapshot: %d trailing bytes after last store", r.rem())
	}
	return h, cursors, nil
}

// reader is a bounds-checked cursor over the CRC-verified snapshot
// body. Every accessor returns an error instead of panicking, which is
// the whole decode-safety story: the fuzz target drives arbitrary
// bytes through Decode and asserts no panic ever escapes.
type reader struct {
	buf []byte
	off int
}

// openFrame validates the magic (want), minimum length and the CRC
// trailer, and returns a reader positioned after the magic. Checking the
// CRC over the entire body first makes corruption deterministic: a bit
// flip anywhere fails here, before any structural parsing can run.
func openFrame(data []byte, want string) (*reader, error) {
	if len(data) < len(want)+4 {
		return nil, ErrTruncated
	}
	if string(data[:len(want)]) != want {
		return nil, ErrBadMagic
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrChecksum
	}
	return &reader{buf: body, off: len(want)}, nil
}

// header reads the version (rejecting anything but Version), the
// catalog fingerprint and, in a delta stream, the instance id.
func (r *reader) header(delta bool) (Header, error) {
	v, err := r.uvarint("version")
	if err != nil {
		return Header{}, err
	}
	if v != Version {
		return Header{}, fmt.Errorf("%w: stream has v%d, this build reads v%d", ErrVersion, v, Version)
	}
	h := Header{Version: v}
	if h.Fingerprint, err = r.u64("fingerprint"); err != nil {
		return Header{}, err
	}
	if delta {
		if h.Instance, err = r.u64("instance"); err != nil {
			return Header{}, err
		}
	}
	return h, nil
}

func (r *reader) rem() int { return len(r.buf) - r.off }

func (r *reader) take(n int, what string) ([]byte, error) {
	if n < 0 || n > r.rem() {
		return nil, fmt.Errorf("%w: reading %s", ErrTruncated, what)
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) byte(what string) (byte, error) {
	b, err := r.take(1, what)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u64(what string) (uint64, error) {
	b, err := r.take(8, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *reader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: reading %s varint", ErrTruncated, what)
	}
	r.off += n
	return v, nil
}

// count reads an element count and bounds it by the bytes left: every
// element of every table occupies at least one byte, so any larger
// count is provably corrupt. The bound is what keeps hostile counts
// from turning into multi-gigabyte allocations before the first
// element read fails. It reads the varint itself rather than through
// uvarint, so the "<what> count" label is built only on the error path:
// a restore reads a count per bucket.
func (r *reader) count(what string) (int, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: reading %s count varint", ErrTruncated, what)
	}
	r.off += n
	if v > uint64(r.rem()) {
		return 0, fmt.Errorf("snapshot: %s count %d exceeds remaining input (%d bytes)", what, v, r.rem())
	}
	return int(v), nil
}

// f64 reads a float that must be finite and non-negative — the only
// costs and cardinalities the engine produces (saturated costs cap at
// cost.Saturation, below +Inf).
func (r *reader) f64(what string) (float64, error) {
	bits, err := r.u64(what)
	if err != nil {
		return 0, err
	}
	f := math.Float64frombits(bits)
	if math.IsNaN(f) || f < 0 || math.IsInf(f, 1) {
		return 0, fmt.Errorf("snapshot: %s %v out of range", what, f)
	}
	return f, nil
}

// decodeStore parses one store section and loads it into the store
// returned by open. It returns the section's tag for order checking.
// In delta mode the section carries a replication cursor (returned),
// the target store may already be populated, and buckets merge through
// the ordinary admission path instead of installing verbatim.
func (r *reader) decodeStore(open OpenStore, delta bool) (string, uint64, error) {
	tagLen, err := r.count("tag")
	if err != nil {
		return "", 0, err
	}
	tagBytes, err := r.take(tagLen, "tag")
	if err != nil {
		return "", 0, err
	}
	tag := string(tagBytes)
	retBits, err := r.u64("retention")
	if err != nil {
		return "", 0, err
	}
	retention := math.Float64frombits(retBits)
	if !(retention >= 1) {
		return "", 0, fmt.Errorf("snapshot: store %q retention %v below 1", tag, retention)
	}
	version, err := r.uvarint("store version")
	if err != nil {
		return "", 0, err
	}
	iters, err := r.uvarint("iteration counter")
	if err != nil {
		return "", 0, err
	}
	if iters > math.MaxInt64 {
		return "", 0, fmt.Errorf("snapshot: store %q iteration counter %d overflows", tag, iters)
	}
	var cursor uint64
	if delta {
		if cursor, err = r.uvarint("delta cursor"); err != nil {
			return "", 0, err
		}
	}
	dim, err := r.byte("cost dimension")
	if err != nil {
		return "", 0, err
	}
	if int(dim) > cost.MaxMetrics {
		return "", 0, fmt.Errorf("snapshot: store %q cost dimension %d exceeds %d", tag, dim, cost.MaxMetrics)
	}
	numSets, err := r.count("set")
	if err != nil {
		return "", 0, err
	}
	numBuckets, err := r.count("bucket")
	if err != nil {
		return "", 0, err
	}
	if numBuckets > numSets {
		return "", 0, fmt.Errorf("snapshot: store %q has %d buckets over %d sets", tag, numBuckets, numSets)
	}

	sets := make([]tableset.Set, numSets+1)
	for k := 1; k <= numSets; k++ {
		lo, err := r.uvarint("set")
		if err != nil {
			return "", 0, err
		}
		hi, err := r.uvarint("set")
		if err != nil {
			return "", 0, err
		}
		if sets[k] = tableset.FromWords(lo, hi); sets[k].IsEmpty() {
			return "", 0, fmt.Errorf("snapshot: store %q set table entry %d empty or duplicate", tag, k)
		}
	}

	state := cache.StoreState{Retention: retention, Version: version, Iterations: int64(iters)}
	sh, err := open(tag, state)
	if err != nil {
		return "", 0, fmt.Errorf("snapshot: opening store %q: %w", tag, err)
	}
	if sh.Retention() != retention {
		return "", 0, fmt.Errorf("snapshot: store %q opened with retention %v, snapshot has %v", tag, sh.Retention(), retention)
	}
	// Intern every set in compact-id order before building nodes: on the
	// fresh interner a restore targets, this reproduces the dense id
	// assignment of the export order, which is what makes re-encoding a
	// restored store byte-identical.
	ids := make([]tableset.ID, numSets+1)
	var maxID tableset.ID
	for k := 1; k <= numSets; k++ {
		ids[k] = sh.Interner().Intern(sets[k])
		maxID = max(maxID, ids[k])
	}
	if k := duplicateID(ids[1:], maxID); k >= 0 {
		return "", 0, fmt.Errorf("snapshot: store %q set table entry %d empty or duplicate", tag, k+1)
	}

	numNodes, err := r.count("node")
	if err != nil {
		return "", 0, err
	}
	if numNodes > 0 && dim == 0 {
		return "", 0, fmt.Errorf("snapshot: store %q has plan nodes but cost dimension 0", tag)
	}
	nodes := make([]*plan.Plan, numNodes+1)
	for k := 1; k <= numNodes; k++ {
		p, err := r.decodeNode(tag, sets, ids, nodes[:k], int(dim))
		if err != nil {
			return "", 0, err
		}
		nodes[k] = p
	}

	// Bucket frontiers are cut from two slabs, sized for the node count
	// since every plan of a valid bucket is a distinct node: a restore
	// allocates two slices per store instead of two per bucket.
	// ImportBucket takes each window over for good; MergeBucket only
	// reads its window, so a delta reuses one for every bucket.
	var planSlab []*plan.Plan
	var epochSlab []uint64
	for i := 1; i <= numBuckets; i++ {
		bs := cache.BucketSnapshot{Set: sets[i], ID: ids[i]}
		if bs.Epoch, err = r.uvarint("bucket epoch"); err != nil {
			return "", 0, err
		}
		numPlans, err := r.count("plan")
		if err != nil {
			return "", 0, err
		}
		if numPlans > len(planSlab) {
			n := numPlans
			if !delta && planSlab == nil {
				n = max(n, numNodes)
			}
			planSlab, epochSlab = make([]*plan.Plan, n), make([]uint64, n)
		}
		bs.Plans, bs.Epochs = planSlab[:numPlans:numPlans], epochSlab[:numPlans:numPlans]
		if !delta {
			planSlab, epochSlab = planSlab[numPlans:], epochSlab[numPlans:]
		}
		prev := uint64(0)
		for j := 0; j < numPlans; j++ {
			ref, err := r.uvarint("plan node ref")
			if err != nil {
				return "", 0, err
			}
			if ref < 1 || ref > uint64(numNodes) {
				return "", 0, fmt.Errorf("snapshot: store %q bucket %d references node %d of %d", tag, i, ref, numNodes)
			}
			step, err := r.uvarint("admission epoch delta")
			if err != nil {
				return "", 0, err
			}
			if step == 0 || step > math.MaxUint64-prev {
				return "", 0, fmt.Errorf("snapshot: store %q bucket %d epoch delta %d invalid", tag, i, step)
			}
			bs.Plans[j] = nodes[ref]
			prev += step
			bs.Epochs[j] = prev
		}
		if delta {
			if _, err := sh.MergeBucket(bs); err != nil {
				return "", 0, fmt.Errorf("snapshot: store %q: %w", tag, err)
			}
		} else if err := sh.ImportBucket(bs); err != nil {
			return "", 0, fmt.Errorf("snapshot: store %q: %w", tag, err)
		}
	}
	if delta {
		sh.MergeState(state)
	} else {
		sh.RestoreState(state)
	}
	return tag, cursor, nil
}

// duplicateID returns the index of an id that repeats an earlier one, or
// -1. Interning maps distinct sets to distinct ids, so this is the set
// table's duplicate check. A restore interns into a fresh interner, whose
// ids come out dense (maxID is the number of sets), and marks them in a
// table indexed by id; a delta into a warm store may see sparse ids, and
// sorts a copy instead.
func duplicateID(ids []tableset.ID, maxID tableset.ID) int {
	if int(maxID) <= 4*len(ids) {
		taken := make([]bool, maxID+1)
		for k, id := range ids {
			if taken[id] {
				return k
			}
			taken[id] = true
		}
		return -1
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	for k := 1; k < len(sorted); k++ {
		if dup := sorted[k]; dup == sorted[k-1] {
			first := slices.Index(ids, dup)
			return first + 1 + slices.Index(ids[first+1:], dup)
		}
	}
	return -1
}

// decodeNode parses and validates one plan node. built holds the nodes
// decoded so far (children must precede parents, so child references
// resolve against it); validation repeats plan.Plan.Validate's checks
// node-locally, because running the recursive Validate over a decoded
// DAG would revisit shared subtrees exponentially often on adversarial
// sharing patterns.
func (r *reader) decodeNode(tag string, sets []tableset.Set, ids []tableset.ID, built []*plan.Plan, dim int) (*plan.Plan, error) {
	setRef, err := r.uvarint("node set ref")
	if err != nil {
		return nil, err
	}
	if setRef < 1 || setRef >= uint64(len(sets)) {
		return nil, fmt.Errorf("snapshot: store %q node references set %d of %d", tag, setRef, len(sets)-1)
	}
	rel := sets[setRef]
	p := &plan.Plan{Rel: rel, RelID: ids[setRef]}
	kind, err := r.byte("node kind")
	if err != nil {
		return nil, err
	}
	switch kind {
	case 0:
		table, err := r.byte("scan table")
		if err != nil {
			return nil, err
		}
		scanOp, err := r.byte("scan operator")
		if err != nil {
			return nil, err
		}
		if scanOp >= plan.NumScanOps {
			return nil, fmt.Errorf("snapshot: store %q scan operator %d unknown", tag, scanOp)
		}
		if rel.Count() != 1 || !rel.Contains(int(table)) {
			return nil, fmt.Errorf("snapshot: store %q scan of table %d under set %v", tag, table, rel)
		}
		p.Table = int(table)
		p.Scan = plan.ScanOp(scanOp)
		p.Output = p.Scan.Output()
	case 1:
		joinOp, err := r.byte("join operator")
		if err != nil {
			return nil, err
		}
		if joinOp >= plan.NumJoinOps {
			return nil, fmt.Errorf("snapshot: store %q join operator %d unknown", tag, joinOp)
		}
		outerRef, err := r.uvarint("outer child ref")
		if err != nil {
			return nil, err
		}
		innerRef, err := r.uvarint("inner child ref")
		if err != nil {
			return nil, err
		}
		if outerRef < 1 || outerRef >= uint64(len(built)) || innerRef < 1 || innerRef >= uint64(len(built)) {
			return nil, fmt.Errorf("snapshot: store %q join child references %d,%d not before node %d", tag, outerRef, innerRef, len(built))
		}
		p.Join = plan.JoinOp(joinOp)
		p.Outer, p.Inner = built[outerRef], built[innerRef]
		if !p.Outer.Rel.Disjoint(p.Inner.Rel) {
			return nil, fmt.Errorf("snapshot: store %q join children overlap (%v, %v)", tag, p.Outer.Rel, p.Inner.Rel)
		}
		if rel != p.Outer.Rel.Union(p.Inner.Rel) {
			return nil, fmt.Errorf("snapshot: store %q join set %v is not the union of %v and %v", tag, rel, p.Outer.Rel, p.Inner.Rel)
		}
		if p.Join.Alg().NeedsMaterializedInner() && p.Inner.Output != plan.Materialized {
			return nil, fmt.Errorf("snapshot: store %q join %v over pipelined inner", tag, p.Join)
		}
		p.Output = p.Join.Output()
	default:
		return nil, fmt.Errorf("snapshot: store %q node kind %d unknown", tag, kind)
	}
	vec := cost.Vector{N: int8(dim)}
	for i := 0; i < dim; i++ {
		if vec.V[i], err = r.f64("cost component"); err != nil {
			return nil, err
		}
	}
	p.Cost = vec
	if p.Card, err = r.f64("cardinality"); err != nil {
		return nil, err
	}
	return p, nil
}
