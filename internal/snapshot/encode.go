package snapshot

// The section encoder shared by Encode and EncodeDeltas.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"rmq/internal/cache"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// section is one store section (shared by the snapshot and delta
// streams; a delta section carries one extra uvarint, the replication
// cursor, right after the iteration counter), resolved and ready to
// write: the compact set table, the node table already encoded, and the
// node id of every bucket plan. Resolving first is what lets the encoder
// size its output once.
type section struct {
	tag      string
	state    cache.StoreState
	cursor   uint64
	delta    bool
	dim      int
	sets     []tableset.Set // compact set id k names sets[k-1]; bucket sets come first
	numNodes int
	nodes    []byte // the encoded node table, in node id order
	buckets  []cache.BucketSnapshot
	refs     []int32 // node id of every bucket plan, buckets concatenated in export order
}

// scanMax is the bucket size up to which a bucket plan's node id is
// kept at its position in the bucket, found by scanning the bucket.
// Plans of larger buckets are numbered through the fallback map.
const scanMax = 32

// sectionBuilder resolves a section. Node identity is plan-pointer
// identity (plans are immutable and alias sub-plans freely, so shared
// subtrees serialize once), but almost no pointer is hashed: nearly
// every node is a plan of some exported bucket, and its id is kept in
// refs at the plan's position in its own bucket. Only the other nodes —
// interior sub-plans their bucket has since evicted, and the plans of
// buckets past scanMax — go through one map. Table sets are keyed by
// the store's interned ids, which every store plan carries as its
// RelID, so the set table is an array too. Each node is encoded the
// moment it is numbered, while its plan is still in the processor's
// cache, so no later pass touches the plans again.
type sectionBuilder struct {
	*section
	view []tableset.Set // the store interner's Sets(), taken after the export
	// byID maps a store id to its compact set id (0 = not in the table
	// yet).
	byID   []int32
	starts []int32              // bucket i's plans have refs[starts[i]:starts[i+1]]
	others map[*plan.Plan]int32 // node ids of nodes without a refs slot
}

// newSection resolves one store section from an export. The node walk
// visits bucket plans in export order and every node's children before
// the node (post-order), numbering nodes and interning sets in
// first-visit order — the canonical order the format specifies.
func newSection(tag string, in *tableset.Interner, state cache.StoreState, buckets []cache.BucketSnapshot, cursor uint64, delta bool) (*section, error) {
	b := &sectionBuilder{
		section: &section{tag: tag, state: state, cursor: cursor, delta: delta, dim: -1, buckets: buckets},
		view:    in.Sets(),
		starts:  make([]int32, len(buckets)+1),
	}
	if len(buckets) > 0 { // a quiescent delta section needs no set table
		b.byID = make([]int32, len(b.view))
		b.sets = make([]tableset.Set, 0, len(buckets))
	}
	for i, bs := range buckets {
		if b.byID[bs.ID] != 0 {
			return nil, fmt.Errorf("snapshot: store %q exported bucket set %v twice", tag, bs.Set)
		}
		b.addSet(bs.Set, bs.ID)
		b.starts[i+1] = b.starts[i] + int32(len(bs.Plans))
	}
	b.refs = make([]int32, b.starts[len(buckets)])
	for _, bs := range buckets {
		if len(bs.Plans) > 0 {
			// A join node takes about 20 bytes besides its costs; interior
			// nodes evicted from their buckets add a few percent more nodes.
			perNode := 20 + 8*bs.Plans[0].Cost.Dim()
			b.nodes = make([]byte, 0, len(b.refs)*perNode*17/16)
			break
		}
	}
	for i, bs := range buckets {
		for j, p := range bs.Plans {
			slot := &b.refs[int(b.starts[i])+j]
			var err error
			switch {
			case *slot != 0: // numbered earlier, as a sub-plan
			case len(bs.Plans) <= scanMax:
				_, err = b.add(p, bs.ID, int32(i+1), slot)
			default:
				*slot, err = b.visit(p)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	if b.dim < 0 {
		b.dim = 0
	}
	return b.section, nil
}

// addSet appends rel, whose store id is id, to the set table and
// returns its compact id.
func (b *sectionBuilder) addSet(rel tableset.Set, id tableset.ID) int32 {
	b.sets = append(b.sets, rel)
	k := int32(len(b.sets))
	b.byID[id] = k
	return k
}

// visit returns p's node id, adding p (after its children) on first
// visit. p's RelID must be the store's id for its set.
func (b *sectionBuilder) visit(p *plan.Plan) (int32, error) {
	id := p.RelID
	if uint(id) >= uint(len(b.view)) || b.view[id] != p.Rel {
		return 0, fmt.Errorf("snapshot: store %q holds a plan for %v whose id %d does not name it", b.tag, p.Rel, id)
	}
	k := b.byID[id]
	if k == 0 {
		return b.add(p, id, 0, nil) // a set not in the table has no node yet
	}
	if int(k) <= len(b.buckets) && len(b.buckets[k-1].Plans) <= scanMax {
		for j, q := range b.buckets[k-1].Plans {
			if q == p {
				slot := &b.refs[int(b.starts[k-1])+j]
				if *slot != 0 {
					return *slot, nil
				}
				return b.add(p, id, k, slot)
			}
		}
	}
	if node, ok := b.others[p]; ok {
		return node, nil
	}
	return b.add(p, id, k, nil)
}

// add numbers p's unvisited children and then p itself, encodes p's
// node, and returns p's node id. id is p's store set id and k its
// compact set id (0 when its set is not in the table yet; the children's
// sets are proper subsets, so adding them never adds it); slot is where
// p's id is kept when p is a plan of a bucket up to scanMax, nil to map
// it in others instead.
func (b *sectionBuilder) add(p *plan.Plan, id tableset.ID, k int32, slot *int32) (int32, error) {
	var outer, inner int32
	if p.IsJoin() {
		var err error
		if outer, err = b.visit(p.Outer); err != nil {
			return 0, err
		}
		if inner, err = b.visit(p.Inner); err != nil {
			return 0, err
		}
	}
	if b.dim < 0 {
		b.dim = p.Cost.Dim()
	} else if p.Cost.Dim() != b.dim {
		return 0, fmt.Errorf("snapshot: store %q mixes cost dimensions %d and %d", b.tag, b.dim, p.Cost.Dim())
	}
	if k == 0 {
		k = b.addSet(p.Rel, id)
	}
	b.numNodes++
	node := int32(b.numNodes)
	if slot != nil {
		*slot = node
	} else {
		if b.others == nil {
			b.others = make(map[*plan.Plan]int32)
		}
		b.others[p] = node
	}

	w := binary.AppendUvarint(b.nodes, uint64(k))
	if !p.IsJoin() {
		w = append(w, 0, byte(p.Table), byte(p.Scan))
	} else {
		w = append(w, 1, byte(p.Join))
		w = binary.AppendUvarint(w, uint64(outer))
		w = binary.AppendUvarint(w, uint64(inner))
	}
	for i := 0; i < b.dim; i++ {
		w = binary.LittleEndian.AppendUint64(w, math.Float64bits(p.Cost.At(i)))
	}
	b.nodes = binary.LittleEndian.AppendUint64(w, math.Float64bits(p.Card))
	return node, nil
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// size returns the exact length appendTo adds.
func (s *section) size() int {
	n := uvarintLen(uint64(len(s.tag))) + len(s.tag) + 8 +
		uvarintLen(s.state.Version) + uvarintLen(uint64(s.state.Iterations)) + 1 +
		uvarintLen(uint64(len(s.sets))) + uvarintLen(uint64(len(s.buckets))) +
		uvarintLen(uint64(s.numNodes)) + len(s.nodes)
	if s.delta {
		n += uvarintLen(s.cursor)
	}
	for _, set := range s.sets {
		lo, hi := set.Words()
		n += uvarintLen(lo) + uvarintLen(hi)
	}
	refs := s.refs
	for _, bs := range s.buckets {
		n += uvarintLen(bs.Epoch) + uvarintLen(uint64(len(bs.Plans)))
		prev := uint64(0)
		for i, e := range bs.Epochs {
			n += uvarintLen(uint64(refs[i])) + uvarintLen(e-prev)
			prev = e
		}
		refs = refs[len(bs.Plans):]
	}
	return n
}

// appendTo appends the section's encoding to w.
func (s *section) appendTo(w []byte) []byte {
	w = binary.AppendUvarint(w, uint64(len(s.tag)))
	w = append(w, s.tag...)
	w = binary.LittleEndian.AppendUint64(w, math.Float64bits(s.state.Retention))
	w = binary.AppendUvarint(w, s.state.Version)
	w = binary.AppendUvarint(w, uint64(s.state.Iterations))
	if s.delta {
		w = binary.AppendUvarint(w, s.cursor)
	}
	w = append(w, byte(s.dim))
	w = binary.AppendUvarint(w, uint64(len(s.sets)))
	w = binary.AppendUvarint(w, uint64(len(s.buckets)))
	for _, set := range s.sets {
		lo, hi := set.Words()
		w = binary.AppendUvarint(w, lo)
		w = binary.AppendUvarint(w, hi)
	}
	w = binary.AppendUvarint(w, uint64(s.numNodes))
	w = append(w, s.nodes...)
	refs := s.refs
	for _, bs := range s.buckets {
		w = binary.AppendUvarint(w, bs.Epoch)
		w = binary.AppendUvarint(w, uint64(len(bs.Plans)))
		prev := uint64(0)
		for i, e := range bs.Epochs {
			w = binary.AppendUvarint(w, uint64(refs[i]))
			w = binary.AppendUvarint(w, e-prev)
			prev = e
		}
		refs = refs[len(bs.Plans):]
	}
	return w
}
