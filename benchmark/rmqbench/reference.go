package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"

	"rmq"
	"rmq/internal/cost"
	"rmq/internal/quality"
)

// The reference behind large-cold's alpha_gm: 24 fixed 100-table
// catalogs, 8 per join-graph shape, each with the non-dominated union of
// the frontiers of 3 seeds × 2000 iterations as its reference frontier.
// -write-reference regenerates the file (a few minutes). Each catalog is
// stored as the generator spec that rebuilds it plus its fingerprint, so
// a change to the generator or the catalog model is caught instead of
// silently scoring frontiers against another catalog's reference.
const (
	refCatalogs   = 24
	refTables     = 100
	refIterations = 2000
)

var refSeeds = []uint64{1, 2, 3}

type referenceFile struct {
	Tables     int          `json:"tables"`
	Iterations int          `json:"iterations"`
	Seeds      []uint64     `json:"seeds"`
	Catalogs   []refCatalog `json:"catalogs"`
}

type refCatalog struct {
	Graph       string      `json:"graph"`
	Seed        uint64      `json:"seed"`
	Fingerprint string      `json:"fingerprint"`
	Frontier    [][]float64 `json:"frontier"`
}

// refCatalogSpec is the generator input of reference catalog i.
func refCatalogSpec(i int) (graph string, seed uint64) {
	return [...]string{"chain", "cycle", "star"}[i%3], uint64(10_000 + i)
}

// reference is a loaded reference: the rebuilt catalogs, their
// generator specs and their reference frontiers over all three metrics.
type reference struct {
	cats      []*rmq.Catalog
	specs     []catSpec
	frontiers [][]cost.Vector
}

// loadReference reads the first n catalogs of the reference file,
// rebuilds each from its spec and refuses any whose fingerprint no
// longer matches.
func loadReference(path string, n int) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	var f referenceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing reference %s: %w", path, err)
	}
	if n > len(f.Catalogs) {
		return nil, fmt.Errorf("reference %s has %d catalogs, need %d", path, len(f.Catalogs), n)
	}
	ref := &reference{}
	for i, rc := range f.Catalogs[:n] {
		graph, err := rmq.ParseGraph(rc.Graph)
		if err != nil {
			return nil, fmt.Errorf("reference catalog %d: %w", i, err)
		}
		spec := catSpec{tables: f.Tables, graph: graph, seed: rc.Seed}
		cat := spec.generate()
		if got := fingerprint(cat); got != rc.Fingerprint {
			return nil, fmt.Errorf("reference catalog %d (%s, seed %d) has fingerprint %s, but the generator now builds %s: the reference is stale, rerun -write-reference",
				i, rc.Graph, rc.Seed, rc.Fingerprint, got)
		}
		front := make([]cost.Vector, len(rc.Frontier))
		for j, c := range rc.Frontier {
			if len(c) != 3 {
				return nil, fmt.Errorf("reference catalog %d plan %d has %d costs, want 3", i, j, len(c))
			}
			front[j] = cost.New(c...)
		}
		ref.cats = append(ref.cats, cat)
		ref.specs = append(ref.specs, spec)
		ref.frontiers = append(ref.frontiers, front)
	}
	return ref, nil
}

func fingerprint(cat *rmq.Catalog) string { return "0x" + strconv.FormatUint(cat.Fingerprint(), 16) }

// writeReference computes the reference frontiers, nproc catalogs at a
// time, and writes the reference file.
func writeReference(path string) error {
	f := referenceFile{Tables: refTables, Iterations: refIterations, Seeds: refSeeds, Catalogs: make([]refCatalog, refCatalogs)}
	errs := make([]error, refCatalogs)
	next := make(chan int, refCatalogs) // holds every catalog index up front
	for i := range refCatalogs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f.Catalogs[i], errs[i] = referenceFor(i)
				fmt.Fprintf(os.Stderr, "reference catalog %d: %d plans\n", i, len(f.Catalogs[i].Frontier))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func referenceFor(i int) (refCatalog, error) {
	graphName, seed := refCatalogSpec(i)
	graph, err := rmq.ParseGraph(graphName)
	if err != nil {
		return refCatalog{}, err
	}
	cat := catSpec{tables: refTables, graph: graph, seed: seed}.generate()
	var sets [][]cost.Vector
	for _, s := range refSeeds {
		sess, err := rmq.NewSession(cat)
		if err != nil {
			return refCatalog{}, err
		}
		fr, err := sess.Optimize(context.Background(), rmq.WithMaxIterations(refIterations), rmq.WithSeed(s))
		if err != nil {
			return refCatalog{}, fmt.Errorf("reference catalog %d seed %d: %w", i, s, err)
		}
		sets = append(sets, frontierCosts(fr))
	}
	rc := refCatalog{Graph: graphName, Seed: seed, Fingerprint: fingerprint(cat)}
	for _, v := range quality.Union(sets...) {
		c := make([]float64, v.Dim())
		for k := range c {
			c[k] = v.At(k)
		}
		rc.Frontier = append(rc.Frontier, c)
	}
	return rc, nil
}

func frontierCosts(f *rmq.Frontier) []cost.Vector {
	out := make([]cost.Vector, len(f.Plans))
	for i, p := range f.Plans {
		out[i] = p.Cost
	}
	return out
}
