// Package catalog models the database instances the paper's experiments
// run against: a set of base tables with cardinalities, a join graph with
// per-edge predicate selectivities, and the random query generators of
// Section 6.1 (chain/cycle/star graphs, stratified cardinality sampling
// after Steinbrunn et al., and the MinMax selectivity model after Bruno
// used in the appendix).
package catalog

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"rmq/internal/tableset"
)

// RowsPerPage converts row counts to page counts in the cost model.
const RowsPerPage = 100

// Table describes one base table.
type Table struct {
	Name string
	Rows float64 // cardinality in rows (≥ 1)
}

// Pages returns the table size in pages (≥ 1).
//
//rmq:hotpath
func (t Table) Pages() float64 { return max(1, t.Rows/RowsPerPage) }

// Edge is an undirected join-graph edge with a predicate selectivity in
// (0, 1].
type Edge struct {
	A, B        int
	Selectivity float64
}

// Catalog is a database instance: tables plus join graph. Tables are
// addressed by index. A Catalog is immutable after construction and safe
// for concurrent use.
type Catalog struct {
	tables []Table
	edges  []Edge
	// adj[t] lists, for every neighbor u of t, the selectivity of edge
	// (t, u). Pairs without an edge have implicit selectivity 1 (cross
	// product); the paper's plan space is unconstrained, so any join is
	// allowed.
	adj [][]neighbor
	// lrows[t] caches ln(tables[t].Rows); Card reads it on every call.
	lrows []float64
}

type neighbor struct {
	table  int
	logSel float64
}

// New builds a catalog from tables and join edges. It validates table
// indices and selectivities.
func New(tables []Table, edges []Edge) (*Catalog, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("catalog: no tables")
	}
	if len(tables) > tableset.MaxTables {
		return nil, fmt.Errorf("catalog: %d tables exceeds limit %d", len(tables), tableset.MaxTables)
	}
	c := &Catalog{
		tables: append([]Table(nil), tables...),
		edges:  append([]Edge(nil), edges...),
		adj:    make([][]neighbor, len(tables)),
	}
	c.lrows = make([]float64, len(c.tables))
	for i, t := range c.tables {
		if t.Rows < 1 {
			return nil, fmt.Errorf("catalog: table %d (%s) has cardinality %g < 1", i, t.Name, t.Rows)
		}
		c.lrows[i] = math.Log(t.Rows)
	}
	for _, e := range c.edges {
		if e.A < 0 || e.A >= len(tables) || e.B < 0 || e.B >= len(tables) || e.A == e.B {
			return nil, fmt.Errorf("catalog: bad edge (%d, %d)", e.A, e.B)
		}
		if !(e.Selectivity > 0 && e.Selectivity <= 1) {
			return nil, fmt.Errorf("catalog: edge (%d, %d) selectivity %g outside (0, 1]", e.A, e.B, e.Selectivity)
		}
		ls := math.Log(e.Selectivity)
		c.adj[e.A] = append(c.adj[e.A], neighbor{table: e.B, logSel: ls})
		c.adj[e.B] = append(c.adj[e.B], neighbor{table: e.A, logSel: ls})
	}
	return c, nil
}

// MustNew is New but panics on error; intended for tests and generators
// whose inputs are valid by construction.
func MustNew(tables []Table, edges []Edge) *Catalog {
	c, err := New(tables, edges)
	if err != nil {
		panic(err)
	}
	return c
}

// NumTables returns the number of base tables.
func (c *Catalog) NumTables() int { return len(c.tables) }

// Table returns the table with the given index.
//
//rmq:hotpath
func (c *Catalog) Table(i int) Table { return c.tables[i] }

// Edges returns the join graph edges.
func (c *Catalog) Edges() []Edge { return c.edges }

// AllTables returns the set of every table in the catalog, i.e. the query
// in the paper's model (a query is a table set to be joined).
func (c *Catalog) AllTables() tableset.Set { return tableset.Range(len(c.tables)) }

// Fingerprint hashes everything about the catalog that the cost model
// and the cardinality estimate (Card) read — table count, per-table
// cardinalities, and the join graph with its selectivities — with
// FNV-1a. Table and edge order are significant (table indices are how
// plans address tables); table names are not (costs never depend on
// them). Plan-cache snapshots stamp it into their header so frontiers
// are only ever restored against the catalog they were priced for.
func (c *Catalog) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w64(uint64(len(c.tables)))
	for _, t := range c.tables {
		w64(math.Float64bits(t.Rows))
	}
	w64(uint64(len(c.edges)))
	for _, e := range c.edges {
		w64(uint64(e.A))
		w64(uint64(e.B))
		w64(math.Float64bits(e.Selectivity))
	}
	return h.Sum64()
}

// GraphKind selects the join graph structure of generated queries.
type GraphKind int

// Join graph structures used throughout the paper's evaluation.
const (
	Chain GraphKind = iota
	Cycle
	Star
)

// String returns the conventional name of the graph kind.
func (g GraphKind) String() string {
	switch g {
	case Chain:
		return "chain"
	case Cycle:
		return "cycle"
	case Star:
		return "star"
	default:
		return fmt.Sprintf("GraphKind(%d)", int(g))
	}
}

// SelectivityModel selects how join predicate selectivities are drawn
// during random query generation.
type SelectivityModel int

const (
	// Steinbrunn draws selectivities log-uniformly from [1e-4, 1],
	// reproducing the original generator's heavy spread of join
	// selectivities (Section 6.1).
	Steinbrunn SelectivityModel = iota
	// MinMax draws each join's output cardinality uniformly between the
	// cardinalities of its two input tables (Bruno's method, appendix).
	MinMax
)

// String returns the conventional name of the selectivity model.
func (m SelectivityModel) String() string {
	switch m {
	case Steinbrunn:
		return "steinbrunn"
	case MinMax:
		return "minmax"
	default:
		return fmt.Sprintf("SelectivityModel(%d)", int(m))
	}
}

// cardStrata are the stratified-sampling cardinality classes (rows) after
// Steinbrunn et al.: each generated table draws its stratum first, then a
// log-uniform cardinality within it.
var cardStrata = []struct {
	lo, hi float64
	weight float64
}{
	{10, 100, 0.15},
	{100, 1_000, 0.30},
	{1_000, 10_000, 0.25},
	{10_000, 100_000, 0.20},
	{100_000, 1_000_000, 0.10},
}

// RandomCardinality draws one table cardinality by stratified sampling.
func RandomCardinality(rng *rand.Rand) float64 {
	u := rng.Float64()
	acc := 0.0
	for _, s := range cardStrata {
		acc += s.weight
		if u <= acc {
			return logUniform(rng, s.lo, s.hi)
		}
	}
	last := cardStrata[len(cardStrata)-1]
	return logUniform(rng, last.lo, last.hi)
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// GenSpec parameterizes random query generation.
type GenSpec struct {
	Tables      int
	Graph       GraphKind
	Selectivity SelectivityModel
}

// Generate builds a random catalog (one query test case) per the paper's
// generator: `Tables` base tables with stratified cardinalities joined in
// a chain, cycle or star, with selectivities drawn from the chosen model.
func Generate(spec GenSpec, rng *rand.Rand) *Catalog {
	if spec.Tables < 1 {
		panic("catalog: Generate needs at least one table")
	}
	tables := make([]Table, spec.Tables)
	for i := range tables {
		tables[i] = Table{
			Name: fmt.Sprintf("t%d", i),
			Rows: RandomCardinality(rng),
		}
	}
	var pairs [][2]int
	switch spec.Graph {
	case Chain:
		for i := 0; i+1 < spec.Tables; i++ {
			pairs = append(pairs, [2]int{i, i + 1})
		}
	case Cycle:
		for i := 0; i+1 < spec.Tables; i++ {
			pairs = append(pairs, [2]int{i, i + 1})
		}
		if spec.Tables > 2 {
			pairs = append(pairs, [2]int{spec.Tables - 1, 0})
		}
	case Star:
		for i := 1; i < spec.Tables; i++ {
			pairs = append(pairs, [2]int{0, i})
		}
	default:
		panic(fmt.Sprintf("catalog: unknown graph kind %v", spec.Graph))
	}
	edges := make([]Edge, 0, len(pairs))
	for _, p := range pairs {
		edges = append(edges, Edge{
			A:           p[0],
			B:           p[1],
			Selectivity: drawSelectivity(spec.Selectivity, tables[p[0]].Rows, tables[p[1]].Rows, rng),
		})
	}
	return MustNew(tables, edges)
}

func drawSelectivity(m SelectivityModel, rowsA, rowsB float64, rng *rand.Rand) float64 {
	switch m {
	case Steinbrunn:
		return logUniform(rng, 1e-4, 1)
	case MinMax:
		// Target output cardinality uniform between the two input
		// cardinalities; selectivity = target / (rowsA·rowsB).
		lo, hi := math.Min(rowsA, rowsB), math.Max(rowsA, rowsB)
		target := lo + rng.Float64()*(hi-lo)
		sel := target / (rowsA * rowsB)
		if sel > 1 {
			sel = 1
		}
		if sel <= 0 {
			sel = 1e-12
		}
		return sel
	default:
		panic(fmt.Sprintf("catalog: unknown selectivity model %v", m))
	}
}
