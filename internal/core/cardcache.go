package core

import "rmq/internal/tableset"

// cardCache is a small, bounded, lossy cache of candidate-join
// cardinalities, private to one climber. The move search prices the same
// transient table sets repeatedly across the passes of one climb, but
// rarely across climbs (each climb starts from a fresh random plan). A
// hit is a few array accesses, cheaper than Model.Card's fold over the
// set's join edges; collisions simply evict (values are recomputable),
// and nothing ever allocates. Values come from Model.Card and are
// therefore bit-identical to every other path; since a climber is bound
// to one model for its lifetime and cardinality is a pure function of
// the table set, entries never go stale. Cardinalities are clamped to
// ≥ 1, so a zero value marks an empty slot.
type cardCache struct {
	keys [cardCacheSize]tableset.Set
	vals [cardCacheSize]float64
}

// cardCacheSize is the number of slots; must be a power of two. Sized
// for the candidate sets of one climb of a ~100-table plan.
const cardCacheSize = 1 << 11

// cardCacheProbes bounds the linear probe sequence.
const cardCacheProbes = 4

// get returns the cached cardinality of rel, if present.
//
//rmq:hotpath
func (cc *cardCache) get(rel tableset.Set) (float64, bool) {
	i := rel.Hash64() & (cardCacheSize - 1)
	for p := 0; p < cardCacheProbes; p++ {
		j := (i + uint64(p)) & (cardCacheSize - 1)
		if cc.vals[j] != 0 && cc.keys[j] == rel {
			return cc.vals[j], true
		}
	}
	return 0, false
}

// put stores the cardinality of rel, evicting within its probe window if
// every slot is occupied.
//
//rmq:hotpath
func (cc *cardCache) put(rel tableset.Set, v float64) {
	i := rel.Hash64() & (cardCacheSize - 1)
	j := i & (cardCacheSize - 1)
	for p := 0; p < cardCacheProbes; p++ {
		k := (i + uint64(p)) & (cardCacheSize - 1)
		if cc.vals[k] == 0 {
			j = k
			break
		}
	}
	cc.keys[j] = rel
	cc.vals[j] = v
}

// candidateCard returns the cardinality of joining rel, serving repeats
// from the climber-local cache.
//
//rmq:hotpath
func (c *Climber) candidateCard(rel tableset.Set) float64 {
	if v, ok := c.cards.get(rel); ok {
		return v
	}
	v := c.model.Card(rel)
	c.cards.put(rel, v)
	return v
}
