package core

import (
	"math/rand/v2"

	"rmq/internal/cache"
	"rmq/internal/mutate"
	"rmq/internal/opt"
	"rmq/internal/plan"
	"rmq/internal/randplan"
)

// Config tunes the RMQ optimizer. The zero value is the paper's
// configuration.
type Config struct {
	// Space selects the join order space (Section 4.1): Bushy (the
	// paper's default, unconstrained) or LeftDeep. It determines the
	// random plan generator and the transformation rules.
	Space mutate.Space
	// Climb configures the Pareto climbing phase.
	Climb ClimbConfig
	// Alpha overrides the approximation-precision schedule; nil selects
	// the paper's DefaultAlpha.
	Alpha func(iteration int) float64
	// DisableCache disables sharing of partial plans across iterations
	// (the cache ablation): every iteration approximates frontiers in a
	// private cache and only the resulting full-query plans are retained.
	DisableCache bool
	// DisableFrontier skips the frontier approximation phase entirely
	// and archives only the locally optimal plans — this degenerates RMQ
	// into plain iterative improvement and is used by ablation tests.
	DisableFrontier bool
	// Shared, when non-nil, attaches the run to a session-scoped
	// concurrent plan cache: the worker warm-starts its private cache
	// from the store at Init and exchanges newly admitted sub-plan
	// frontier deltas with it after every iteration, so parallel workers
	// and successive runs of a session share discoveries instead of
	// rebuilding identical frontiers. Requires the problem's cost model
	// to be built over the store's interner (a mismatched store is
	// ignored and the run proceeds privately). Sharing changes the
	// iteration trajectory — the cache sees plans the private schedule
	// alone would not have found — so it is off by default; the
	// cache-ablation configurations disable it implicitly.
	Shared *cache.Shared
}

// Stats exposes per-run statistics of interest to the evaluation
// (Figure 3 uses PathLengths).
type Stats struct {
	// Iterations counts completed iterations of the main loop.
	Iterations int
	// PathLengths records, per iteration, the number of climbing moves
	// from the random plan to its local Pareto optimum.
	PathLengths []int
	// CachedSets and CachedPlans describe the plan cache size.
	CachedSets, CachedPlans int
}

// RMQ is the randomized multi-objective query optimizer of Algorithm 1.
// Each Step runs one iteration: generate a random bushy plan, improve it
// by Pareto climbing, then approximate the Pareto frontiers of all its
// intermediate results against the plan cache. It implements
// opt.Optimizer.
type RMQ struct {
	cfg     Config
	problem *opt.Problem
	rng     *rand.Rand
	climber *Climber
	cache   *cache.Cache
	sync    *cache.SyncState // non-nil only when attached to a shared store
	archive opt.Archive      // used only when DisableCache/DisableFrontier
	iter    int
	stats   Stats
}

// New returns an RMQ optimizer with the given configuration; call Init
// before stepping.
func New(cfg Config) *RMQ { return &RMQ{cfg: cfg} }

// Factory returns the harness factory for RMQ with the paper's default
// configuration.
func Factory() opt.Factory {
	return opt.Factory{Name: "RMQ", New: func() opt.Optimizer { return New(Config{}) }}
}

func init() {
	opt.Register("rmq", func(s opt.Spec) (opt.Optimizer, error) {
		return New(Config{Shared: s.SharedCache}), nil
	})
}

// Name implements opt.Optimizer.
func (r *RMQ) Name() string { return "RMQ" }

// Init implements opt.Optimizer.
func (r *RMQ) Init(p *opt.Problem, seed uint64) {
	r.problem = p
	r.rng = rand.New(rand.NewPCG(seed, 0x524d51)) // "RMQ"
	climbCfg := r.cfg.Climb
	climbCfg.Space = r.cfg.Space
	r.climber = NewClimber(p.Model, climbCfg)
	r.sync = nil
	shared := r.cfg.Shared
	if shared != nil && shared.Interner() == p.Model.Interner() &&
		!r.cfg.DisableCache && !r.cfg.DisableFrontier {
		// Warm start from the session store. A problem pooled by a
		// session carries the previous run's private cache and sync
		// marks (opt.Problem.Retained): reusing them turns the warm
		// start into a delta pull — everything this problem's earlier
		// runs saw is still cached, including the incremental
		// recombination memo, so repeat visits skip. A fresh problem
		// imports the whole store once instead.
		if rc, ok := p.Retained.(*retainedCache); ok && rc.shared == shared {
			r.cache, r.sync = rc.cache, rc.sync
		} else {
			r.cache = cache.New(p.Model.Interner())
			r.cache.TrackDirty()
			r.sync = shared.NewSync()
			p.Retained = &retainedCache{shared: shared, cache: r.cache, sync: r.sync}
		}
		r.sync.Pull(r.cache)
	} else {
		r.cache = cache.New(p.Model.Interner())
	}
	r.archive.Reset()
	r.iter = 0
	r.stats = Stats{}
}

// retainedCache is the state RMQ stashes in a pooled problem between
// shared-cache runs: the warmed private cache plus the sync marks that
// make the next run's warm start incremental. It is only reused when
// the session store matches (the store's identity implies the interner
// and metric subset match too).
type retainedCache struct {
	shared *cache.Shared
	cache  *cache.Cache
	sync   *cache.SyncState
}

// Step runs one iteration of the main loop (Algorithm 1) and always
// reports that more work remains: RMQ is an anytime algorithm that
// refines its approximation until stopped.
func (r *RMQ) Step() bool {
	r.iter++
	m := r.problem.Model

	// Generate a random plan in the configured join order space.
	var p *plan.Plan
	if r.cfg.Space == mutate.LeftDeep {
		p = randplan.RandomLeftDeep(m, r.problem.Query, r.rng)
	} else {
		p = randplan.Random(m, r.problem.Query, r.rng)
	}

	// Improve the plan via fast multi-objective local search.
	optPlan, steps := r.climber.Climb(p)
	r.stats.PathLengths = append(r.stats.PathLengths, steps)

	// Approximate the Pareto frontiers of the plan's intermediate
	// results with the iteration-dependent precision. Attached to a
	// shared store, the schedule runs on the store's cumulative counter:
	// the cache is refined by everyone's work, so its precision reflects
	// everyone's work (a solitary first run sees identical values, since
	// only its own steps advance the counter).
	schedIter := r.iter
	if r.sync != nil {
		schedIter = r.cfg.Shared.NextIteration()
	}
	alpha := DefaultAlpha(schedIter)
	if r.cfg.Alpha != nil {
		alpha = r.cfg.Alpha(schedIter)
	}
	switch {
	case r.cfg.DisableFrontier:
		r.archive.Add(optPlan)
	case r.cfg.DisableCache:
		// Ablation: approximate frontiers in a private cache so no
		// partial plans are shared across iterations, but keep the
		// full-query admission identical (same α into the persistent
		// root bucket) so only the sharing effect is isolated.
		// A per-iteration cache can never see a repeat visit, so the
		// incremental memo would be pure bookkeeping here — skip it.
		private := cache.New(m.Interner())
		approximateFrontiers(m, optPlan, private, alpha, false)
		for _, fp := range private.Get(r.problem.Query) {
			r.cache.Insert(fp, alpha)
		}
	default:
		approximateFrontiers(m, optPlan, r.cache, alpha, true)
	}

	if r.sync != nil {
		// Publish this iteration's admissions to the session store and
		// import what other workers found; both directions move only
		// deltas, and the pull is a single atomic load when nothing is
		// new (see cache.SyncState).
		r.sync.Sync(r.cache)
	}

	r.stats.Iterations = r.iter
	r.stats.CachedSets = r.cache.NumSets()
	r.stats.CachedPlans = r.cache.NumPlans()
	return true
}

// Frontier implements opt.Optimizer: the cached Pareto plans for the full
// query table set (P[q] in Algorithm 1).
func (r *RMQ) Frontier() []*plan.Plan {
	if r.cfg.DisableFrontier {
		return r.archive.Plans()
	}
	return r.cache.Get(r.problem.Query)
}

// FrontierDelta implements opt.DeltaFrontier: the result plans admitted
// since mark, straight from the root bucket's (or the ablation
// archive's) admission epochs, so periodic merges into a shared archive
// touch only what is new.
func (r *RMQ) FrontierDelta(mark uint64) ([]*plan.Plan, uint64) {
	if r.cfg.DisableFrontier {
		return r.archive.Since(mark)
	}
	b := r.cache.Bucket(r.problem.Query)
	return b.Since(mark), b.Epoch()
}

// Stats returns the statistics accumulated since Init.
func (r *RMQ) Stats() Stats { return r.stats }

// Cache exposes the plan cache for inspection by tests and tools.
func (r *RMQ) Cache() *cache.Cache { return r.cache }
