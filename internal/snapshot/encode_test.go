package snapshot_test

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"rmq/internal/cache"
	"rmq/internal/catalog"
	"rmq/internal/core"
	"rmq/internal/costmodel"
	"rmq/internal/opt"
	"rmq/internal/plan"
	"rmq/internal/snapshot"
	"rmq/internal/tableset"
)

// runStore builds a store the way sessions do: successive RMQ runs
// attached to one shared store, each a fresh problem over the store's
// interner warm-starting from what the earlier runs published. It
// returns the store and its replication cursor after the first run.
func runStore(tb testing.TB, tables int, graph catalog.GraphKind, metrics []costmodel.Metric, retain float64, runs, iters int) (*cache.Shared, uint64) {
	tb.Helper()
	cat := catalog.Generate(catalog.GenSpec{Tables: tables, Graph: graph}, rand.New(rand.NewPCG(uint64(tables), 5)))
	sh := cache.NewShared(tableset.NewInterner(), retain)
	var mid uint64
	for run := 0; run < runs; run++ {
		r := core.New(core.Config{Shared: sh})
		r.Init(opt.NewProblemWithInterner(cat, metrics, sh.Interner()), uint64(run+1))
		for i := 0; i < iters; i++ {
			r.Step()
		}
		if run == 0 {
			mid = sh.DeltaCursor()
		}
	}
	return sh, mid
}

// storeShape reports the largest bucket and the number of plan nodes
// reachable from the buckets that are not themselves bucket plans — the
// interior sub-plans evicted since, which the encoder finds through its
// fallback map instead of a bucket position.
func storeShape(tb testing.TB, sh *cache.Shared) (maxBucket, evicted int) {
	tb.Helper()
	inBucket := make(map[*plan.Plan]bool)
	var roots []*plan.Plan
	if _, _, err := sh.Export(0, func(bs cache.BucketSnapshot) error {
		maxBucket = max(maxBucket, len(bs.Plans))
		for _, p := range bs.Plans {
			inBucket[p] = true
			roots = append(roots, p)
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	seen := make(map[*plan.Plan]bool)
	var walk func(p *plan.Plan)
	walk = func(p *plan.Plan) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !inBucket[p] {
			evicted++
		}
		if p.IsJoin() {
			walk(p.Outer)
			walk(p.Inner)
		}
	}
	for _, p := range roots {
		walk(p)
	}
	return maxBucket, evicted
}

// foreignIDStore is a hand-built store with one interior node whose id
// does not name its set in the store: the zero ID when zero is set, else
// an id from another interner, which the store gave to another set that
// also appears. The encoder must refuse to write it.
func foreignIDStore(tb testing.TB, zero bool) *cache.Shared {
	tb.Helper()
	sh := cache.NewShared(tableset.NewInterner(), 1)
	in := sh.Interner()
	c := cache.New(in)
	c.TrackDirty()
	var scans []*plan.Plan
	for t := 0; t < 4; t++ {
		scans = append(scans, scan(in, t, plan.SeqScan, float64(t+1), float64(4-t)))
	}
	bad := *scans[1]
	if zero {
		bad.RelID = 0
	} else {
		foreign := tableset.NewInterner()
		foreign.Intern(tableset.Single(5)) // shifts the foreign ids off the store's
		foreign.Intern(tableset.Single(6))
		bad.RelID = foreign.Intern(bad.Rel)
	}
	j1 := join(in, plan.MakeJoinOp(plan.Hash, false), scans[0], &bad, 3, 9)
	for _, p := range []*plan.Plan{scans[0], scans[1], scans[2], scans[3], j1} {
		c.Insert(p, 1)
	}
	sh.NewSync().Publish(c)
	return sh
}

// largeBucketStore is a hand-built store with a bucket past ScanMax
// whose plans are joined with plans of two other tables, one join set
// exported before the large bucket and one after, and one join over a
// plan the bucket never admitted. The encoder's fallback map then
// numbers large-bucket plans as sub-plans first, as bucket plans first,
// and misses.
func largeBucketStore(tb testing.TB) *cache.Shared {
	tb.Helper()
	sh := cache.NewShared(tableset.NewInterner(), 1)
	in := sh.Interner()
	in.Intern(tableset.Single(0).Union(tableset.Single(1))) // exported first
	c := cache.New(in)
	c.TrackDirty()
	n := 2*snapshot.ScanMax + 6
	var big []*plan.Plan
	for i := 0; i < n; i++ {
		// Second component ascending, third descending: an antichain
		// whatever the first, which repeats for each pair.
		p := scan(in, 0, plan.ScanOp(i%plan.NumScanOps), float64(i/2+1), float64(i+1), float64(n-i))
		c.Insert(p, 1)
		big = append(big, p)
	}
	other := scan(in, 1, plan.SeqScan, 1, 1, 1)
	third := scan(in, 2, plan.SeqScan, 1, 1, 1)
	stray := scan(in, 0, plan.SeqScan, 1, 1, 1) // never admitted to its bucket
	c.Insert(other, 1)
	c.Insert(third, 1)
	for i, outer := range []*plan.Plan{big[n-1], big[0], stray, big[7], big[6]} {
		c.Insert(join(in, plan.MakeJoinOp(plan.Hash, false), outer, other, float64(10+i), float64(10-i), 1), 1)
	}
	for i, outer := range []*plan.Plan{big[3], big[n-1]} {
		c.Insert(join(in, plan.MakeJoinOp(plan.Hash, false), outer, third, float64(10+i), float64(10-i), 1), 1)
	}
	sh.NewSync().Publish(c)
	return sh
}

// TestEncoderMatchesOracle pins the encoder to the map-based oracle it
// replaced: identical snapshot and delta bytes on hand-built stores,
// stores built by real runs (16-table chain at α = 1, 12-table star
// over three metrics at α = 2, 24-table cycle at α = 1), and their
// restored copies. Between them the stores exercise the bucket scan and
// the fallback map, which holds the plans of large buckets and the
// evicted interior nodes. The encoder must also size its output exactly,
// and refuse a store holding a plan whose id does not name its set.
func TestEncoderMatchesOracle(t *testing.T) {
	for _, zero := range []bool{true, false} {
		stores := []snapshot.TaggedStore{{Tag: "\x00", Store: foreignIDStore(t, zero)}}
		if _, err := snapshot.Encode(0xabc, stores); err == nil {
			t.Errorf("Encode of a plan with a foreign id (zero %v) succeeded", zero)
		}
		if _, _, err := snapshot.EncodeDeltas(1, 2, stores); err == nil {
			t.Errorf("EncodeDeltas of a plan with a foreign id (zero %v) succeeded", zero)
		}
	}
	two := []costmodel.Metric{costmodel.Time, costmodel.Buffer}
	type storeCase struct {
		name string
		sh   *cache.Shared
		mid  uint64
	}
	cases := []storeCase{
		{name: "hand-built/α=1", sh: buildStore(t, 1, 21)},
		{name: "hand-built/α=2", sh: buildStore(t, 2, 22)},
		{name: "large-bucket", sh: largeBucketStore(t)},
	}
	for _, rc := range []struct {
		name    string
		tables  int
		graph   catalog.GraphKind
		metrics []costmodel.Metric
		retain  float64
	}{
		{"chain16/α=1", 16, catalog.Chain, two, 1},
		{"star12/α=2", 12, catalog.Star, costmodel.AllMetrics(), 2},
		{"cycle24/α=1", 24, catalog.Cycle, two, 1},
	} {
		sh, mid := runStore(t, rc.tables, rc.graph, rc.metrics, rc.retain, 2, 250)
		cases = append(cases, storeCase{name: rc.name, sh: sh, mid: mid})
	}
	sawLarge, sawEvicted := false, false
	for _, sc := range cases {
		maxBucket, evicted := storeShape(t, sc.sh)
		sawLarge = sawLarge || maxBucket > snapshot.ScanMax
		sawEvicted = sawEvicted || evicted > 0
		t.Logf("%s: largest bucket %d plans, %d evicted interior nodes", sc.name, maxBucket, evicted)

		stores := []snapshot.TaggedStore{{Tag: "\x00", Store: sc.sh}}
		got, err := snapshot.Encode(0xabc, stores)
		if err != nil {
			t.Fatalf("%s: Encode: %v", sc.name, err)
		}
		want, err := snapshot.OracleEncode(0xabc, stores)
		if err != nil {
			t.Fatalf("%s: OracleEncode: %v", sc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshot differs from the oracle's (%d vs %d bytes)", sc.name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: snapshot buffer sized %d for %d bytes", sc.name, cap(got), len(got))
		}

		for _, since := range []uint64{0, sc.mid} {
			deltas := []snapshot.TaggedStore{{Tag: "\x00", Store: sc.sh, Since: since}}
			got, gotCur, err := snapshot.EncodeDeltas(1, 2, deltas)
			if err != nil {
				t.Fatalf("%s: EncodeDeltas: %v", sc.name, err)
			}
			want, wantCur, err := snapshot.OracleEncodeDeltas(1, 2, deltas)
			if err != nil {
				t.Fatalf("%s: OracleEncodeDeltas: %v", sc.name, err)
			}
			if !bytes.Equal(got, want) || gotCur["\x00"] != wantCur["\x00"] {
				t.Fatalf("%s: delta since %d differs from the oracle's (%d vs %d bytes)", sc.name, since, len(got), len(want))
			}
		}

		// The restored copy encodes identically too, and back to the
		// same bytes.
		restored := make(map[string]*cache.Shared)
		if _, err := snapshot.Decode(got, openFresh(restored)); err != nil {
			t.Fatalf("%s: Decode: %v", sc.name, err)
		}
		again := []snapshot.TaggedStore{{Tag: "\x00", Store: restored["\x00"]}}
		re, err := snapshot.Encode(0xabc, again)
		if err != nil {
			t.Fatalf("%s: re-Encode: %v", sc.name, err)
		}
		reWant, err := snapshot.OracleEncode(0xabc, again)
		if err != nil {
			t.Fatalf("%s: re-OracleEncode: %v", sc.name, err)
		}
		if !bytes.Equal(re, got) || !bytes.Equal(reWant, got) {
			t.Fatalf("%s: restored store re-encodes differently", sc.name)
		}
	}
	if !sawLarge || !sawEvicted {
		t.Fatalf("stores did not cover both lookup paths (large bucket %v, evicted nodes %v)", sawLarge, sawEvicted)
	}
}

// TestEncodeConcurrentWithRuns encodes snapshots and deltas of a store
// while optimizer runs keep publishing into it and interning new table
// sets — a checkpoint taken under load. Every stream must decode, and
// the race detector must stay quiet about the encoder's lock-free view
// of the interner.
func TestEncodeConcurrentWithRuns(t *testing.T) {
	two := []costmodel.Metric{costmodel.Time, costmodel.Buffer}
	cat := catalog.Generate(catalog.GenSpec{Tables: 14, Graph: catalog.Cycle}, rand.New(rand.NewPCG(14, 5)))
	sh := cache.NewShared(tableset.NewInterner(), 1)
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		go func(seed uint64) {
			defer func() { done <- struct{}{} }()
			r := core.New(core.Config{Shared: sh})
			r.Init(opt.NewProblemWithInterner(cat, two, sh.Interner()), seed)
			for i := 0; i < 150; i++ {
				r.Step()
			}
		}(uint64(w + 1))
	}
	var cursor uint64
	for running := 2; running > 0; {
		select {
		case <-done:
			running--
		default:
		}
		data, err := snapshot.Encode(1, []snapshot.TaggedStore{{Tag: "\x00", Store: sh}})
		if err != nil {
			t.Fatalf("Encode under load: %v", err)
		}
		if _, err := snapshot.Decode(data, openFresh(make(map[string]*cache.Shared))); err != nil {
			t.Fatalf("snapshot taken under load does not decode: %v", err)
		}
		delta, cursors, err := snapshot.EncodeDeltas(1, 2, []snapshot.TaggedStore{{Tag: "\x00", Store: sh, Since: cursor}})
		if err != nil {
			t.Fatalf("EncodeDeltas under load: %v", err)
		}
		if _, _, err := snapshot.DecodeDeltas(delta, openWarm(make(map[string]*cache.Shared))); err != nil {
			t.Fatalf("delta taken under load does not decode: %v", err)
		}
		cursor = cursors["\x00"]
	}
}
