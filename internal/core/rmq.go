package core

import (
	"math/rand/v2"
	"runtime"

	"rmq/internal/cache"
	"rmq/internal/opt"
	"rmq/internal/plan"
	"rmq/internal/randplan"
)

// Config configures the RMQ optimizer. Its one field attaches a shared
// plan store; the search itself is fixed to the bushy join order space
// the paper evaluates. The zero value is the paper's configuration:
// random bushy plans, Algorithm 2's single-incumbent climb, and
// Algorithm 3's frontier approximation against a plan cache shared
// across iterations, with precision DefaultAlpha. The ablation
// variants (naive climbing, no partial-plan sharing, fixed α) live in
// this package's tests; iterative improvement without frontier
// approximation is the II baseline (internal/baselines/iterimp).
type Config struct {
	// Shared, when non-nil, attaches the run to a session-scoped
	// concurrent plan cache: the worker warm-starts its private cache
	// from the store at Init and exchanges newly admitted sub-plan
	// frontier deltas with it after every iteration, so parallel workers
	// and successive runs of a session share discoveries instead of
	// rebuilding identical frontiers. Requires the problem's cost model
	// to be built over the store's interner (a mismatched store is
	// ignored and the run proceeds privately). Sharing changes the
	// iteration trajectory — the cache sees plans the private schedule
	// alone would not have found — so it is off by default.
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
	iter    int
	stats   Stats
	root    *cache.Bucket // the query's table set: P[q], the frontier

	// Pipelining state (see Step). pending is the climbed plan whose
	// frontier approximation has not run yet; inflight is the one the
	// helper goroutine approximates during the current Step.
	pending, inflight climbed
	async             bool     // run stage B on a helper goroutine
	done              chan any // helper → Step: nil, or the panic it recovered
	runInflight       func()   // r.approximateInflight, bound once so go allocates no closure
	// pipe overrides the GOMAXPROCS-based choice of async; tests only.
	pipe pipeMode
	// stageHook, when non-nil, runs at the start of every stage B;
	// tests only (panic injection).
	stageHook func()
}

// climbed is one iteration's hand-off from stage A to stage B: the
// locally Pareto-optimal plan and the precision its frontiers are
// approximated with. A nil plan means nothing is handed off.
type climbed struct {
	plan  *plan.Plan
	alpha float64
	iter  int
}

// pipeMode selects how Step arranges its two stages.
type pipeMode uint8

const (
	pipeAuto   pipeMode = iota // pipelined when GOMAXPROCS > 1
	pipeInline                 // both stages back to back on the caller's goroutine
	pipeAsync                  // pipelined regardless of GOMAXPROCS
)

// New returns an RMQ optimizer with the given configuration; call Init
// before stepping.
func New(cfg Config) *RMQ {
	r := &RMQ{cfg: cfg, done: make(chan any, 1)}
	r.runInflight = r.approximateInflight
	return r
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
	r.sync = nil
	shared := r.cfg.Shared
	if shared != nil && shared.Interner() == p.Model.Interner() {
		// Warm start from the session store. A problem pooled by a
		// session carries the previous run's private cache and sync
		// marks (opt.Problem.Retained): reusing them turns the warm
		// start into a delta pull: everything this problem's earlier
		// runs saw is still cached. A fresh problem imports the whole
		// store once instead.
		if rc, ok := p.Retained.(*retainedCache); ok && rc.shared == shared {
			r.cache, r.sync, r.climber = rc.cache, rc.sync, rc.climber
		} else {
			r.cache = cache.New(p.Model.Interner())
			r.cache.TrackDirty()
			r.sync = shared.NewSync()
			r.climber = NewClimber(p.Model, ClimbConfig{})
			p.Retained = &retainedCache{shared: shared, cache: r.cache, sync: r.sync, climber: r.climber}
		}
		r.sync.Pull(r.cache)
	} else {
		r.cache = cache.New(p.Model.Interner())
		r.climber = NewClimber(p.Model, ClimbConfig{})
	}
	r.root = r.cache.Bucket(p.Query)
	r.iter = 0
	r.stats = Stats{}
	r.pending, r.inflight = climbed{}, climbed{}
	r.async = r.pipe == pipeAsync || r.pipe == pipeAuto && runtime.GOMAXPROCS(0) > 1
}

// retainedCache is the state RMQ stashes in a pooled problem between
// shared-cache runs: the warmed private cache plus the sync marks that
// make the next run's warm start incremental, and the climber, whose
// scratch arena and buffers stay allocated (a climber is bound to the
// problem's model). It is only reused when the session store matches
// (the store's identity implies the interner and metric subset match
// too).
type retainedCache struct {
	shared  *cache.Shared
	cache   *cache.Cache
	sync    *cache.SyncState
	climber *Climber
}

// Step runs one iteration of the main loop (Algorithm 1) and always
// reports that more work remains: RMQ is an anytime algorithm that
// refines its approximation until stopped.
//
// An iteration has two stages. Stage A draws the random plan, climbs it
// (Algorithm 2) and picks the iteration's α. Stage B approximates the
// frontiers of the climbed plan's intermediate results against the plan
// cache (Algorithm 3), syncs with the shared store and updates the cache
// statistics. Climbing never reads the cache, so when more than one
// processor is available (GOMAXPROCS > 1) Step pipelines the stages: it
// runs the previous iteration's stage B on a helper goroutine while it
// runs this iteration's stage A, joins both, and leaves this iteration's
// stage B pending. Stage B sees the plans, α values and cache of a
// sequential run, so cache decisions and frontiers are bit-identical to
// it. Both stages share one cost model, which is immutable apart from
// its table-set interner, and that is safe for concurrent use.
//
// No goroutine outlives a Step. The helper is joined before Step
// returns, also when stage A panics, and a panic in stage B is re-raised
// on the caller's goroutine after the join. Frontier, FrontierDelta,
// Stats and Cache complete a pending stage B first, so they observe
// every Step taken. With one processor both stages run inline, back to
// back, and nothing is left pending.
func (r *RMQ) Step() bool {
	if r.pending.plan != nil {
		r.inflight, r.pending = r.pending, climbed{}
		go r.runInflight()
		defer r.join()
	}
	next := r.climb()
	if r.async {
		r.pending = next
	} else {
		r.approximate(next)
	}
	return true
}

// climb is stage A of an iteration: a random bushy plan, improved via
// fast multi-objective local search, and the iteration's approximation
// precision.
func (r *RMQ) climb() climbed {
	r.iter++
	p := randplan.Random(r.problem.Model, r.problem.Query, r.rng)
	optPlan, steps := r.climber.Climb(p)
	r.stats.PathLengths = append(r.stats.PathLengths, steps)

	// Attached to a shared store, the schedule runs on the store's
	// cumulative counter: the cache is refined by everyone's work, so its
	// precision reflects everyone's work (a solitary first run sees
	// identical values, since only its own steps advance the counter).
	schedIter := r.iter
	if r.sync != nil {
		schedIter = r.cfg.Shared.NextIteration()
	}
	return climbed{plan: optPlan, alpha: DefaultAlpha(schedIter), iter: r.iter}
}

// approximate is stage B of an iteration: approximate the Pareto
// frontiers of the climbed plan's intermediate results with the
// iteration-dependent precision, exchange deltas with the shared store
// and record the cache statistics.
func (r *RMQ) approximate(c climbed) {
	if r.stageHook != nil {
		r.stageHook()
	}
	approximateFrontiers(r.problem.Model, c.plan, r.cache, c.alpha)
	if r.sync != nil {
		// Publish this iteration's admissions to the session store and
		// import what other workers found; both directions move only
		// deltas, and the pull is a single atomic load when nothing is
		// new (see cache.SyncState).
		r.sync.Sync(r.cache)
	}

	r.stats.Iterations = c.iter
	r.stats.CachedSets = r.cache.NumSets()
	r.stats.CachedPlans = r.cache.NumPlans()
}

// approximateInflight is the helper goroutine's body: stage B of the
// in-flight plan, reporting completion (and any panic) to join.
func (r *RMQ) approximateInflight() {
	defer func() { r.done <- recover() }()
	r.approximate(r.inflight)
}

// join waits for the helper goroutine and re-raises its panic, if any,
// on the caller's goroutine.
func (r *RMQ) join() {
	if v := <-r.done; v != nil {
		panic(v)
	}
}

// settle runs the pending stage B, if any, inline.
func (r *RMQ) settle() {
	if r.pending.plan != nil {
		c := r.pending
		r.pending = climbed{}
		r.approximate(c)
	}
}

// Frontier implements opt.Optimizer: the cached Pareto plans for the full
// query table set (P[q] in Algorithm 1), after completing the last Step's
// pending frontier approximation.
func (r *RMQ) Frontier() []*plan.Plan {
	r.settle()
	return r.root.Plans()
}

// FrontierDelta implements opt.DeltaFrontier: the result plans admitted
// since mark, straight from the root bucket's admission epochs, so
// periodic merges into a shared archive touch only what is new. Like
// Frontier, it first completes the pending frontier approximation.
func (r *RMQ) FrontierDelta(mark uint64) ([]*plan.Plan, uint64) {
	r.settle()
	return r.root.Since(mark), r.root.Epoch()
}

// Stats returns the statistics accumulated since Init, after completing
// the pending frontier approximation.
func (r *RMQ) Stats() Stats {
	r.settle()
	return r.stats
}

// Cache exposes the plan cache for inspection by tests and tools, after
// completing the pending frontier approximation.
func (r *RMQ) Cache() *cache.Cache {
	r.settle()
	return r.cache
}
