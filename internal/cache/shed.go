package cache

// Memory-pressure shedding for the shared store. A session's plan cache
// normally grows until the retention precision α bounds it (Lemma 6:
// the number of α-distinct plans per table set is polynomial in 1/ln α).
// When a deployment's budget is tighter than the registered α allows,
// the server re-prunes the store under a coarser α — the same
// approximation the paper's anytime contract already trades on: the
// surviving cache is a valid coarser-precision frontier set, so warm
// starts stay correct, merely less detailed. Shedding raises the
// store's *effective* retention, which future admissions also prune
// under, so the store does not immediately regrow past the budget; the
// registered Retention() is unchanged — it is the contract requests
// assert against, not the current pruning knob.

import (
	"math"
	"sync/atomic"
	"unsafe"

	"rmq/internal/plan"
)

// bytesPerPlan estimates the retained footprint of one cached plan: the
// plan node's heap allocation plus its pointer and admission epoch in
// the bucket. On 64-bit platforms a plan node takes 88 B but is
// allocated from the 96-byte size class (plan.TestPlanNodeSize), so the
// node is charged 96 B and a plan counts 112 B.
const bytesPerPlan = planAllocBytes + int64(unsafe.Sizeof((*plan.Plan)(nil))) + 8

// planAllocBytes is the heap size class a plan node is allocated from.
const planAllocBytes = 96

// bytesPerSet estimates the fixed footprint of one table set's bucket:
// its header, its epoch mirror, and 8 bytes for its share of the id
// table, whose 4-byte entries cover every interned id — not only the
// store's sets — and grow by doubling.
const bytesPerSet = int64(unsafe.Sizeof(sharedBucket{})) + int64(unsafe.Sizeof(atomic.Uint64{})) + 8

// Bytes estimates the store's retained memory from its set and plan
// counts. An estimate, not an accounting: the per-class cost-column
// mirrors and spare slice capacity are excluded, so the true footprint
// exceeds it. Budget checks should leave headroom accordingly.
//
// bytesPerSet follows the bucket header's size: on 64-bit platforms a
// store bucket (sharedBucket) takes 216 B, so a set counts 232 B.
func (s *Shared) Bytes() int64 {
	return s.plans.Load()*bytesPerPlan + s.sets.Load()*bytesPerSet
}

// EffectiveRetention returns the α admissions currently prune under:
// the construction Retention(), or a coarser value after Shed. It sits
// on the publish path, so it is a single atomic load.
//
//rmq:hotpath
func (s *Shared) EffectiveRetention() float64 {
	if bits := s.effRetain.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return s.retain
}

// Shed re-prunes every bucket of the store under the coarser retention
// α and makes it the effective retention for future admissions. It
// reports the number of plans dropped. Shedding a store to an α no
// coarser than its current effective retention is a no-op for the
// admission knob but still replays the prune (idempotently cheap).
// Concurrent publishes and pulls are safe: buckets are shed one at a
// time under their own locks, and a shed bucket keeps its admission
// order and ascending epochs, so every outstanding sync mark stays
// valid.
//
// A shed only removes plans: it never admits one, so no bucket's
// admission epoch moves. Pullers have nothing to import from it, and
// Shed leaves the epoch mirrors and the version counter alone, so a
// caught-up puller stays on Pull's fast path.
func (s *Shared) Shed(alpha float64) (removed int) {
	if alpha <= 1 || math.IsNaN(alpha) {
		return 0
	}
	// Raise-only: concurrent shedders converge on the coarsest request.
	for {
		old := s.effRetain.Load()
		cur := s.retain
		if old != 0 {
			cur = math.Float64frombits(old)
		}
		if alpha <= cur && old != 0 {
			break
		}
		if s.effRetain.CompareAndSwap(old, math.Float64bits(max(alpha, cur))) {
			break
		}
	}
	s.mu.RLock()
	n, chunks := s.n, s.chunks
	s.mu.RUnlock()
	for slot := 0; slot < n; slot++ {
		sb, _ := slotAt(chunks, slot)
		sb.mu.Lock()
		removed += sb.b.shed(alpha)
		sb.mu.Unlock()
	}
	s.plans.Add(int64(-removed))
	return removed
}

// shed replays α-pruning over the bucket's frontier in admission order,
// keeping a plan only when the plans kept so far would still admit it
// under α — exactly the prune an admission sequence under retention α
// would have produced. Admission order and ascending epochs are
// preserved, the per-output class columns are rebuilt wholesale, and the
// corner stays: a lower bound over a superset still bounds the
// survivors.
func (b *Bucket) shed(alpha float64) (removed int) {
	if len(b.plans) == 0 {
		return 0
	}
	n := len(b.plans)
	keep := b.plans[:0]
	keepEp := b.epochs[:0]
	for i, p := range b.plans {
		if WouldAdmit(keep, p.Cost, p.Output, alpha) {
			keep = append(keep, p)
			keepEp = append(keepEp, b.epochs[i])
		} else {
			removed++
		}
	}
	for i := len(keep); i < n; i++ {
		b.plans[i] = nil // keep dropped plans collectable
	}
	b.plans = keep
	b.epochs = keepEp
	if removed == 0 {
		return 0
	}
	b.rebuildMirrors()
	return removed
}

// rebuildMirrors reconstructs the per-output class cost columns from
// the bucket's current frontier after shed has thinned it; admissions
// and evictions maintain the columns incrementally. The survivors are
// fewer than the entries the columns held, so the rebuild reuses their
// capacity.
func (b *Bucket) rebuildMirrors() {
	for out := range b.cols {
		b.cols[out].Reset()
	}
	for _, p := range b.plans {
		b.cols[p.Output].Append(p.Cost)
	}
}
