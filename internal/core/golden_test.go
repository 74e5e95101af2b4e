package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"testing"

	"rmq/internal/cache"
	"rmq/internal/catalog"
	"rmq/internal/costmodel"
	"rmq/internal/opt"
	"rmq/internal/plan"
	"rmq/internal/tableset"
)

// update rewrites the golden trajectory instead of checking it:
// go test ./internal/core -run TestTrajectoryGolden -update
var update = flag.Bool("update", false, "rewrite testdata/trajectory.golden")

const trajectoryGolden = "testdata/trajectory.golden"

// TestTrajectoryGolden pins RMQ's search trajectory across commits: for
// fixed seeds on chain, star and cycle catalogs it records every step's
// climbing path length, the final root frontier's costs as float bits,
// the private cache's size and, for runs attached to a shared store, the
// store's size. A private run takes 60 steps; a shared run takes two
// successive runs of 40 steps over one store and one pooled problem, so
// the second starts warm. A refactor that claims to keep the search
// unchanged must leave the file as it is.
func TestTrajectoryGolden(t *testing.T) {
	var out bytes.Buffer
	for _, tc := range []struct {
		graph  catalog.GraphKind
		tables int
		seed   uint64
	}{
		{catalog.Chain, 12, 71},
		{catalog.Star, 14, 72},
		{catalog.Cycle, 16, 73},
	} {
		name := fmt.Sprintf("%s%d", tc.graph, tc.tables)

		r := New(Config{})
		r.Init(trajectoryProblem(tc.graph, tc.tables, tc.seed, tableset.NewInterner()), tc.seed+1)
		for i := 0; i < 60; i++ {
			r.Step()
		}
		writeTrajectory(&out, name+" private", r)

		sh := cache.NewShared(tableset.NewInterner(), 1)
		p := trajectoryProblem(tc.graph, tc.tables, tc.seed, sh.Interner())
		for run := 1; run <= 2; run++ {
			r := New(Config{Shared: sh})
			r.Init(p, tc.seed+uint64(run)+1)
			for i := 0; i < 40; i++ {
				r.Step()
			}
			writeTrajectory(&out, fmt.Sprintf("%s shared run %d", name, run), r)
			sets, plans := sh.Stats()
			fmt.Fprintf(&out, "store %d %d\n", sets, plans)
		}
	}
	if *update {
		if err := os.WriteFile(trajectoryGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(trajectoryGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, exp := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(exp); i++ {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("trajectory diverged at line %d:\n got  %s\n want %s", i+1, got[i], exp[i])
			}
		}
		t.Fatalf("trajectory has %d lines, golden %d", len(got), len(exp))
	}
}

// trajectoryProblem builds a problem over a generated catalog whose
// cost model interns table sets in the given interner.
func trajectoryProblem(g catalog.GraphKind, n int, seed uint64, in *tableset.Interner) *opt.Problem {
	rng := rand.New(rand.NewPCG(seed, 3))
	cat := catalog.Generate(catalog.GenSpec{Tables: n, Graph: g, Selectivity: catalog.Steinbrunn}, rng)
	return opt.NewProblemWithInterner(cat, costmodel.AllMetrics(), in)
}

// writeTrajectory appends one run's record: path lengths, root frontier
// costs as float bits (plan by plan) and the private cache's size.
func writeTrajectory(out *bytes.Buffer, name string, r *RMQ) {
	st := r.Stats()
	fmt.Fprintf(out, "%s\npaths %v\n", name, st.PathLengths)
	for _, p := range r.Frontier() {
		out.WriteString("plan")
		writeCostBits(out, p)
		out.WriteByte('\n')
	}
	fmt.Fprintf(out, "cache %d %d\n", st.CachedSets, st.CachedPlans)
}

func writeCostBits(out *bytes.Buffer, p *plan.Plan) {
	for i := 0; i < p.Cost.Dim(); i++ {
		fmt.Fprintf(out, " %016x", math.Float64bits(p.Cost.At(i)))
	}
}
