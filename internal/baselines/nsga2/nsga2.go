package nsga2

import (
	"math/rand/v2"

	"rmq/internal/opt"
	"rmq/internal/plan"
)

// Config tunes the genetic algorithm. The zero value reproduces the
// paper's setup.
type Config struct {
	// PopSize is the population size; 0 means the paper's 200.
	PopSize int
	// CrossoverProb is the single-point crossover probability; 0 means
	// Deb et al.'s 0.9.
	CrossoverProb float64
	// MutationProb is the per-gene mutation probability; 0 means the
	// Deb et al. default of 1/(number of genes).
	MutationProb float64
}

func (c Config) popSize() int {
	if c.PopSize <= 0 {
		return 200
	}
	return c.PopSize
}

func (c Config) crossoverProb() float64 {
	if c.CrossoverProb <= 0 {
		return 0.9
	}
	return c.CrossoverProb
}

func (c Config) mutationProb(genes int) float64 {
	if c.MutationProb <= 0 {
		return 1 / float64(genes)
	}
	return c.MutationProb
}

// NSGA2 is the NSGA-II optimizer; it implements opt.Optimizer. Each Step
// runs one generation: binary-tournament selection by the
// crowded-comparison operator, single-point crossover, uniform gene
// mutation, evaluation, then elitist environmental selection over the
// merged parent+offspring population via fast non-dominated sorting and
// crowding distance. An external archive accumulates every non-dominated
// complete plan encountered, forming the anytime result set.
type NSGA2 struct {
	cfg     Config
	problem *opt.Problem
	rng     *rand.Rand
	tables  []int
	pop     []*individual
	archive opt.Archive
	workBuf []*plan.Plan
	gen     int
}

// New returns an uninitialized NSGA-II optimizer.
func New(cfg Config) *NSGA2 { return &NSGA2{cfg: cfg} }

func init() {
	opt.Register("nsga2", func(opt.Spec) (opt.Optimizer, error) {
		return New(Config{}), nil
	})
}

// Name implements opt.Optimizer.
func (o *NSGA2) Name() string { return "NSGA-II" }

// Init implements opt.Optimizer.
func (o *NSGA2) Init(p *opt.Problem, seed uint64) {
	o.problem = p
	o.rng = rand.New(rand.NewPCG(seed, 0x4e534741)) // "NSGA"
	o.tables = p.Query.Tables()
	o.archive.Reset()
	o.gen = 0
	n := len(o.tables)
	o.pop = make([]*individual, o.cfg.popSize())
	for i := range o.pop {
		g := randomGenome(n, o.rng)
		o.pop[i] = o.evaluate(g)
	}
	o.rankPopulation(o.pop)
}

// evaluate decodes a genome, archives the plan, and returns the
// individual.
func (o *NSGA2) evaluate(g genome) *individual {
	p := decode(o.problem.Model, o.tables, g, o.workBuf)
	o.archive.Add(p)
	costs := make([]float64, p.Cost.Dim())
	for i := range costs {
		costs[i] = p.Cost.At(i)
	}
	return &individual{genes: g, costs: costs}
}

// rankPopulation assigns ranks and crowding distances in place.
func (o *NSGA2) rankPopulation(pop []*individual) [][]*individual {
	fronts := fastNonDominatedSort(pop)
	for _, f := range fronts {
		crowdingDistance(f)
	}
	return fronts
}

// tournament picks the better of two random individuals under the
// crowded-comparison operator.
func (o *NSGA2) tournament() *individual {
	a := o.pop[o.rng.IntN(len(o.pop))]
	b := o.pop[o.rng.IntN(len(o.pop))]
	if crowdedLess(b, a) {
		return b
	}
	return a
}

// Step runs one generation and always reports more work remains.
func (o *NSGA2) Step() bool {
	o.gen++
	n := len(o.tables)
	pm := o.cfg.mutationProb(genomeLen(n))
	offspring := make([]*individual, 0, len(o.pop))
	for len(offspring) < len(o.pop) {
		p1, p2 := o.tournament(), o.tournament()
		c1 := make(genome, len(p1.genes))
		c2 := make(genome, len(p2.genes))
		if o.rng.Float64() < o.cfg.crossoverProb() {
			crossover(p1.genes, p2.genes, c1, c2, o.rng)
		} else {
			copy(c1, p1.genes)
			copy(c2, p2.genes)
		}
		mutation(c1, pm, o.rng)
		mutation(c2, pm, o.rng)
		offspring = append(offspring, o.evaluate(c1))
		if len(offspring) < len(o.pop) {
			offspring = append(offspring, o.evaluate(c2))
		}
	}
	// Elitist environmental selection over parents ∪ offspring.
	merged := append(append(make([]*individual, 0, 2*len(o.pop)), o.pop...), offspring...)
	fronts := o.rankPopulation(merged)
	next := make([]*individual, 0, len(o.pop))
	for _, front := range fronts {
		if len(next)+len(front) <= len(o.pop) {
			next = append(next, front...)
			continue
		}
		// Partial front: take the most crowded-distant members.
		remaining := len(o.pop) - len(next)
		sortByCrowdDesc(front)
		next = append(next, front[:remaining]...)
		break
	}
	o.pop = next
	return true
}

// sortByCrowdDesc orders one front by descending crowding distance
// (simple insertion sort; fronts are small relative to the population).
func sortByCrowdDesc(front []*individual) {
	for i := 1; i < len(front); i++ {
		for j := i; j > 0 && front[j].crowd > front[j-1].crowd; j-- {
			front[j], front[j-1] = front[j-1], front[j]
		}
	}
}

// Frontier implements opt.Optimizer.
func (o *NSGA2) Frontier() []*plan.Plan { return o.archive.Plans() }

// Generations returns the number of completed generations.
func (o *NSGA2) Generations() int { return o.gen }
