package core

import (
	"math/rand/v2"
	"runtime"
	"sync"

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

	// Pipelining state (see Step). pending is the climbed plan of the
	// last Step, not yet handed to stage B; ring holds the plans handed
	// to the helper goroutine that it has not finished, oldest at head.
	pending climbed
	async   bool       // run stage B on a helper goroutine
	mu      sync.Mutex // guards ring, head, queued, busy and fault
	moved   sync.Cond  // on mu: the helper freed a slot or exited
	ring    [ringCap]climbed
	head    int
	queued  int
	busy    bool   // a helper goroutine is draining the ring
	fault   any    // the panic that ended the helper, for join
	drainer func() // r.drain, bound once so go allocates no closure
	// pipe overrides the GOMAXPROCS-based choice of async; tests only.
	pipe pipeMode
	// stageHook and climbHook, when non-nil, run at the start of every
	// stage B and stage A; tests only (blocking and panic injection).
	stageHook, climbHook func()
}

// climbed is one iteration's hand-off from stage A to stage B: the
// locally Pareto-optimal plan and the precision its frontiers are
// approximated with. A nil plan means nothing is handed off.
type climbed struct {
	plan  *plan.Plan
	alpha float64
	iter  int
}

// ringCap is the number of climbed plans Step hands to stage B ahead
// of it: the plan the helper approximates counts, so stage A may lead
// stage B by this many iterations before Step waits. Stage B is the
// shorter stage on average, so the ring only absorbs the iterations
// where it is not.
const ringCap = 4

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
	r := &RMQ{cfg: cfg}
	r.moved.L = &r.mu
	r.drainer = r.drain
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
	// The previous run's stage Bs finish first; a panic among them, and
	// its pending plan, are dropped with the run.
	r.wait()
	r.pending = climbed{}
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
			// A run that ended without a completion point (a panic
			// between steps) may still approximate into the cache.
			rc.owner.wait()
			rc.owner = r
			r.cache, r.sync, r.climber = rc.cache, rc.sync, rc.climber
		} else {
			r.cache = cache.New(p.Model.Interner())
			r.cache.TrackDirty()
			r.sync = shared.NewSync()
			r.climber = NewClimber(p.Model, ClimbConfig{})
			p.Retained = &retainedCache{shared: shared, cache: r.cache, sync: r.sync, climber: r.climber, owner: r}
		}
		r.sync.Pull(r.cache)
	} else {
		r.cache = cache.New(p.Model.Interner())
		r.climber = NewClimber(p.Model, ClimbConfig{})
	}
	r.root = r.cache.Bucket(p.Query)
	r.iter = 0
	r.stats = Stats{}
	r.async = r.pipe == pipeAsync || r.pipe == pipeAuto && runtime.GOMAXPROCS(0) > 1
}

// retainedCache is the state RMQ stashes in a pooled problem between
// shared-cache runs: the warmed private cache plus the sync marks that
// make the next run's warm start incremental, and the climber, whose
// scratch arena and buffers stay allocated (a climber is bound to the
// problem's model). It is only reused when the session store matches
// (the store's identity implies the interner and metric subset match
// too). owner is the RMQ that last ran on it, whose stage Bs may still
// be writing the cache.
type retainedCache struct {
	shared  *cache.Shared
	cache   *cache.Cache
	sync    *cache.SyncState
	climber *Climber
	owner   *RMQ
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
// hands the previous iteration's climbed plan to a helper goroutine
// through a ring of ringCap plans, runs this iteration's stage A, keeps
// its plan pending and returns. The helper runs stage B on the ring's
// plans in order and exits when the ring is empty; Step waits only when
// the ring is full. Stage B sees the plans, α values and cache of a
// sequential run, so cache decisions and frontiers are bit-identical to
// it. Both stages share one cost model, which is immutable apart from
// its table-set interner, and that is safe for concurrent use.
//
// Stage B may still run after Step returns, until the next completion
// point. Frontier, FrontierDelta, Stats and Cache wait for the ring and
// then run the pending stage B inline, so they observe every Step
// taken; Init waits for the ring and drops the pending plan. A panic in
// stage B ends the helper and is re-raised on the caller's goroutine by
// a later Step or, at the latest, the next completion point; a panic in
// stage A waits for the ring before it unwinds. With one processor both
// stages run inline, back to back, and nothing is left pending.
func (r *RMQ) Step() bool {
	if !r.async {
		r.approximate(r.climb())
		return true
	}
	if r.pending.plan != nil {
		r.release(r.pending)
		r.pending = climbed{}
	}
	climbing := true
	defer func() {
		if climbing {
			r.wait() // stage A panicked: no stage B may outlive the unwind
		}
	}()
	r.pending = r.climb()
	climbing = false
	return true
}

// climb is stage A of an iteration: a random bushy plan, improved via
// fast multi-objective local search, and the iteration's approximation
// precision.
func (r *RMQ) climb() climbed {
	if r.climbHook != nil {
		r.climbHook()
	}
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

// release hands a climbed plan to the helper goroutine, starting one
// when none is draining the ring. It waits while the ring is full, and
// re-raises a panic that ended the helper instead of handing c off.
func (r *RMQ) release(c climbed) {
	r.mu.Lock()
	for r.queued == ringCap { //rmq:allow-loop(the helper frees a slot per stage B, or empties the ring on a panic)
		r.moved.Wait()
	}
	if r.fault != nil {
		r.mu.Unlock()
		r.join()
	}
	r.ring[(r.head+r.queued)%ringCap] = c
	r.queued++
	start := !r.busy
	r.busy = true
	r.mu.Unlock()
	if start {
		go r.drainer()
	}
}

// drain is the helper goroutine's body: stage B of the ring's plans,
// oldest first, until the ring is empty. A panic empties the ring and
// is kept for join.
func (r *RMQ) drain() {
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			r.fault = v
			r.ring, r.head, r.queued = [ringCap]climbed{}, 0, 0
			r.busy = false
			r.moved.Broadcast()
			r.mu.Unlock()
		}
	}()
	r.mu.Lock()
	for r.queued > 0 { //rmq:allow-loop(Step adds at most ringCap plans ahead of the helper)
		c := r.ring[r.head]
		r.mu.Unlock()
		r.approximate(c)
		r.mu.Lock()
		r.ring[r.head] = climbed{}
		r.head = (r.head + 1) % ringCap
		r.queued--
		r.moved.Broadcast()
	}
	r.busy = false
	r.moved.Broadcast()
	r.mu.Unlock()
}

// wait blocks until no helper goroutine is draining the ring, then
// takes the panic that ended the last one, if any.
func (r *RMQ) wait() (fault any) {
	r.mu.Lock()
	for r.busy { //rmq:allow-loop(the helper clears busy when the ring is empty, or on a panic)
		r.moved.Wait()
	}
	fault, r.fault = r.fault, nil
	r.mu.Unlock()
	return fault
}

// join waits for the ring to drain and re-raises the helper's panic, if
// any, on the caller's goroutine.
func (r *RMQ) join() {
	if v := r.wait(); v != nil {
		panic(v)
	}
}

// settle completes every Step taken: it joins the ring, then runs the
// pending stage B, if any, inline.
func (r *RMQ) settle() {
	r.join()
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
