package cache

import (
	"fmt"
	"math"
	"slices"

	"rmq/internal/plan"
)

// This file keeps the per-plan warm start SyncState.Pull shipped with
// as a test-only reference, plus the hooks the external differential
// tests (pull_diff_test.go) need to compare private caches field by
// field.

// referencePull is Pull without bulk adoption: every plan a changed
// shared bucket holds past the handle's mark is offered to the private
// bucket through Insert at α = 1.
func (st *SyncState) referencePull(c *Cache) (imported int) {
	sh := st.shared
	v := sh.version.Load()
	if v == st.seen {
		return 0
	}
	st.seen = v
	sh.mu.RLock()
	st.grow(len(sh.buckets))
	st.changed = st.changed[:0]
	for id := 1; id < len(sh.buckets); id++ {
		if sb := sh.buckets[id]; sb != nil && sb.epoch.Load() != st.pulled[id] {
			st.changed = append(st.changed, sb)
		}
	}
	sh.mu.RUnlock()
	for _, sb := range st.changed {
		id := sb.b.id
		sb.mu.Lock()
		st.buf = append(st.buf[:0], sb.b.Since(st.pulled[id])...)
		st.pulled[id] = sb.b.epoch
		sb.mu.Unlock()
		if len(st.buf) == 0 {
			continue
		}
		pb := c.bucketAt(id)
		unpublished := pb.syncMark != pb.epoch
		for _, p := range st.buf {
			if pb.Insert(p, 1) {
				imported++
			}
		}
		if !unpublished {
			pb.syncMark = pb.epoch
		}
	}
	return imported
}

// ReferencePull runs the per-plan reference warm start.
func ReferencePull(st *SyncState, c *Cache) int { return st.referencePull(c) }

// DiffPrivate reports the first difference between two private caches:
// counters, the dirty list, and every field a warm start writes in every
// bucket — plans (see samePlan), epochs, the admission counter, the
// per-class columns (bit for bit), the corner, the dirty flag and the
// publish mark.
func DiffPrivate(a, b *Cache) error {
	if a.sets != b.sets || a.plans != b.plans {
		return fmt.Errorf("counters differ: sets %d vs %d, plans %d vs %d", a.sets, b.sets, a.plans, b.plans)
	}
	ids := func(c *Cache) []int {
		out := make([]int, len(c.dirty))
		for i, bk := range c.dirty {
			out[i] = int(bk.id)
		}
		return out
	}
	if da, db := ids(a), ids(b); !slices.Equal(da, db) {
		return fmt.Errorf("dirty lists differ: %v vs %v", da, db)
	}
	for id := 0; id < max(len(a.buckets), len(b.buckets)); id++ {
		var x, y *Bucket
		if id < len(a.buckets) {
			x = a.buckets[id]
		}
		if id < len(b.buckets) {
			y = b.buckets[id]
		}
		if (x == nil) != (y == nil) {
			return fmt.Errorf("bucket %d exists in only one cache", id)
		}
		if x == nil {
			continue
		}
		if err := diffBucket(x, y); err != nil {
			return fmt.Errorf("bucket %d: %w", id, err)
		}
	}
	return nil
}

func diffBucket(x, y *Bucket) error {
	switch {
	case !slices.EqualFunc(x.plans, y.plans, samePlan):
		return fmt.Errorf("plans differ (%d vs %d)", len(x.plans), len(y.plans))
	case !slices.Equal(x.epochs, y.epochs):
		return fmt.Errorf("epochs differ: %v vs %v", x.epochs, y.epochs)
	case x.epoch != y.epoch || x.syncMark != y.syncMark || x.dirty != y.dirty || x.id != y.id:
		return fmt.Errorf("epoch/syncMark/dirty/id differ: %d/%d/%v/%d vs %d/%d/%v/%d",
			x.epoch, x.syncMark, x.dirty, x.id, y.epoch, y.syncMark, y.dirty, y.id)
	case x.hasCorner != y.hasCorner || !sameBits(x.corner.V[:x.corner.N], y.corner.V[:y.corner.N]) || x.corner.N != y.corner.N:
		return fmt.Errorf("corners differ: %v vs %v", x.corner, y.corner)
	}
	for out := range x.cols {
		cx, cy := &x.cols[out], &y.cols[out]
		if cx.Len() != cy.Len() {
			return fmt.Errorf("class %d columns hold %d vs %d entries", out, cx.Len(), cy.Len())
		}
		for i := 0; i < cx.Len(); i++ {
			vx, vy := cx.At(i), cy.At(i)
			if vx.N != vy.N || !sameBits(vx.V[:vx.N], vy.V[:vy.N]) {
				return fmt.Errorf("class %d column entry %d: %v vs %v", out, i, vx, vy)
			}
		}
	}
	return nil
}

// samePlan compares plans by identity, or — for caches over two copies
// of one store — by cost, output, cardinality and operator tree.
func samePlan(p, q *plan.Plan) bool {
	return p == q || p.Cost == q.Cost && p.Output == q.Output && p.Card == q.Card && p.String() == q.String()
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// DiffSync reports the first difference between two sync handles' marks.
func DiffSync(a, b *SyncState) error {
	if a.seen != b.seen {
		return fmt.Errorf("seen versions differ: %d vs %d", a.seen, b.seen)
	}
	n := max(len(a.pulled), len(b.pulled))
	for id := 0; id < n; id++ {
		var x, y uint64
		if id < len(a.pulled) {
			x = a.pulled[id]
		}
		if id < len(b.pulled) {
			y = b.pulled[id]
		}
		if x != y {
			return fmt.Errorf("pull marks of bucket %d differ: %d vs %d", id, x, y)
		}
	}
	return nil
}
