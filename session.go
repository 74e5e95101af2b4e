package rmq

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"rmq/internal/cache"
	"rmq/internal/opt"
	"rmq/internal/tableset"
)

// ErrRetentionMismatch reports that a run's WithCacheRetention disagrees
// with the retention precision of the session's already-created shared
// store for the run's metric subset. Retention is fixed by the run that
// creates a store; a later run asking for a different value would
// silently optimize under someone else's memory bound, so the mismatch
// is an error instead. Match the creating run's retention, omit the
// option to reuse the store as-is, or use a separate session. Restore
// and ApplyDeltas report it for a stream whose stores carry another α
// than the session's defaults declare.
var ErrRetentionMismatch = errors.New("cache retention conflicts with the session store's retention")

// ErrWorkerPanic reports that an optimizer worker panicked during a
// run. The panic was contained at the worker boundary — the process,
// the session, and its shared plan cache survive intact, and sibling
// workers ran to completion — but the request that triggered it fails
// with this error rather than returning a frontier a poisoned worker
// may have contributed to. Use errors.As with *opt.PanicError to
// recover the panic value and stack.
var ErrWorkerPanic = errors.New("optimizer worker panicked")

// Session binds a catalog and default options for repeated optimization
// of queries against the same database. With WithSharedCache, a session
// retains the plan cache — the α-approximate sub-plan frontiers that
// almost all of an iteration's work is answered from once warm — across
// runs and shares it among the parallel workers of each run, so
// repeated and overlapping queries warm-start instead of relearning
// identical frontiers. Such runs also reuse per-worker state: each
// worker borrows a problem instance from an internal pool, so the
// private plan cache of earlier runs, with its sync marks, turns a
// later run's warm start into a delta pull. The pool is capped — a
// release keeps at most max(GOMAXPROCS, the run's parallelism) warmed
// instances per metric subset — so bursts of concurrent runs do not
// pin unbounded memory; PoolStats reports its state. A run
// without the shared cache builds fresh problem instances and parks
// none of them, so its table-set interner lives for that run alone. A
// Session is safe for concurrent use; every worker has its own problem
// instance, whose retained optimizer state belongs to that worker. The
// retention precision of the shared plan cache is fixed per metric
// subset by the run that creates the store: a later run passing a
// different WithCacheRetention gets ErrRetentionMismatch.
type Session struct {
	cat      *Catalog
	defaults []Option
	// retention is the α its defaults declare through WithCacheRetention,
	// 0 when they declare none. Restored and replicated stores must
	// carry it.
	retention float64

	mu sync.Mutex
	// pool holds warmed problem instances of shared-cache runs, keyed by
	// metric subset (a metricsKey, which also names the subset's store):
	// every pooled problem's cost model is built over that store's
	// interner. Each key's population is capped (see release); a burst of
	// concurrent runs must not pin burst×parallelism warmed instances.
	pool map[string][]*opt.Problem
	// pooled is the current total across pool keys; poolHigh its
	// high-water mark and dropped the instances discarded at the cap.
	pooled   int
	poolHigh int
	dropped  int
	// shared holds the session's retained plan caches, one per metric
	// subset (cost vectors of different dimensionality are incomparable).
	// Created lazily by the first run that enables sharing.
	shared map[string]*cache.Shared
}

// NewSession creates a session over the catalog. The given options
// become defaults for every run of the session; per-run options override
// them. Option errors are reported here, eagerly.
func NewSession(cat *Catalog, defaults ...Option) (*Session, error) {
	if err := validCatalog(cat); err != nil {
		return nil, err
	}
	cfg, err := resolveConfig(defaults)
	if err != nil {
		return nil, err
	}
	// Probe the algorithm factory so a misconfigured default (unknown
	// algorithm, bad DPAlpha) fails at session setup, not per query.
	if _, err := newOptimizer(cfg, nil); err != nil {
		return nil, err
	}
	sess := &Session{
		cat:      cat,
		defaults: append([]Option(nil), defaults...),
		pool:     make(map[string][]*opt.Problem),
	}
	if cfg.retentionSet {
		sess.retention = cfg.retention
	}
	return sess, nil
}

// Catalog returns the session's catalog.
func (s *Session) Catalog() *Catalog { return s.cat }

// CacheStats describes the session's retained shared plan cache (see
// WithSharedCache): how many table sets have cached frontiers and how
// many plans they hold in total, summed over the metric subsets the
// session has optimized under. Both are zero when no run has enabled
// sharing.
type CacheStats struct {
	// Sets is the number of distinct table sets with retained frontiers.
	Sets int
	// Plans is the total number of retained sub-plans.
	Plans int
	// Bytes is the estimated retained memory of those frontiers. An
	// estimate from the set and plan counts, not an accounting of every
	// index structure; see cache.Shared.Bytes.
	Bytes int64
	// IDs is the number of table-set ids the stores' interners hold.
	// Stores intern only the sets they cache, so IDs equals Sets while no
	// run is in flight.
	IDs int
}

// CacheStats reports the current size of the session's shared plan
// cache. Its growth is bounded by the retention precision (see
// WithCacheRetention).
func (s *Session) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cs CacheStats
	for _, sh := range s.shared {
		sets, plans := sh.Stats()
		cs.Sets += sets
		cs.Plans += plans
		cs.Bytes += sh.Bytes()
		cs.IDs += sh.Interner().Len()
	}
	return cs
}

// CacheBytes reports the estimated retained memory of the session's
// shared plan caches, summed over metric subsets.
func (s *Session) CacheBytes() int64 { return s.CacheStats().Bytes }

// EffectiveRetention returns the coarsest retention precision α any of
// the session's shared caches currently admits under — the declared
// retention, or a coarser value after TightenCache shed plans under
// memory pressure. Zero when no run has enabled sharing.
func (s *Session) EffectiveRetention() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var eff float64
	for _, sh := range s.shared {
		if a := sh.EffectiveRetention(); a > eff {
			eff = a
		}
	}
	return eff
}

// TightenCache re-prunes every shared cache of the session under the
// coarser retention precision α and makes it the effective retention
// for future admissions, reporting the number of plans dropped. It is
// the graceful-degradation lever for memory pressure: by the anytime
// contract the surviving cache is a valid coarser-α frontier set, so
// warm starts stay correct, merely less detailed. The declared
// retention (what runs assert against via WithCacheRetention) is
// unchanged. α values ≤ 1 are a no-op.
func (s *Session) TightenCache(alpha float64) (removed int) {
	s.mu.Lock()
	stores := make([]*cache.Shared, 0, len(s.shared))
	for _, sh := range s.shared {
		stores = append(stores, sh)
	}
	s.mu.Unlock()
	for _, sh := range stores {
		removed += sh.Shed(alpha)
	}
	return removed
}

// PoolStats describes the session's pool of warmed problem instances:
// how many are currently parked, the most that were ever parked at
// once, and how many were dropped at the cap. Only
// shared-cache runs (WithSharedCache) park instances, so a session that
// never shares reports zeros.
type PoolStats struct {
	// Pooled is the number of problem instances currently parked,
	// summed across metric subsets. Instances borrowed by running
	// Optimize calls are not counted.
	Pooled int
	// HighWater is the largest Pooled value the session ever reached.
	// With the per-subset cap it is bounded regardless of burst size.
	HighWater int
	// Dropped counts warmed instances discarded because returning them
	// would have exceeded the per-subset cap.
	Dropped int
}

// PoolStats reports the current state of the session's problem pool.
func (s *Session) PoolStats() PoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return PoolStats{Pooled: s.pooled, HighWater: s.poolHigh, Dropped: s.dropped}
}

// sharedCache returns the session's shared plan cache for the metric
// subset, creating it on first use. The retention precision is fixed by
// the creating run's configuration; later runs reuse the store as-is
// when they leave retention unset, and get ErrRetentionMismatch when
// they explicitly ask for a different one.
func (s *Session) sharedCache(cfg config) (*cache.Shared, error) {
	sh, created := s.store(metricsKey(cfg.metrics), cfg.retention)
	if !created && cfg.retentionSet && cfg.retention != sh.Retention() {
		return nil, fmt.Errorf("rmq: %w: run wants α = %v, the store was created with α = %v (retention is fixed per metric subset by the creating run; match it, omit WithCacheRetention, or use a separate session)",
			ErrRetentionMismatch, cfg.retention, sh.Retention())
	}
	return sh, nil
}

// store returns the session's shared plan cache for a metric-subset tag
// (a metricsKey, which is also the tag on the wire), creating it and its
// interner at the given retention when absent. It reports
// whether it created the store.
func (s *Session) store(tag string, retention float64) (sh *cache.Shared, created bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh = s.shared[tag]; sh != nil {
		return sh, false
	}
	sh = cache.NewShared(tableset.NewInterner(), retention)
	if s.shared == nil {
		s.shared = make(map[string]*cache.Shared)
	}
	s.shared[tag] = sh
	return sh, true
}

// Optimize computes an approximation of the Pareto plan set for joining
// all tables of the session's catalog, under the session defaults plus
// the given per-run options. See the package-level Optimize for the
// termination and cancellation contract.
func (s *Session) Optimize(ctx context.Context, opts ...Option) (*Frontier, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := resolveConfig(s.defaults, opts)
	if err != nil {
		return nil, err
	}

	// The built-in baselines have no sub-plan cache, and their moves
	// intern every set they build: they run as without sharing.
	baseline := slices.Contains([]Algorithm{AlgoII, AlgoSA, Algo2P, AlgoNSGA2, AlgoDP, AlgoWS}, cfg.algorithm)
	var shared *cache.Shared
	if cfg.sharedCache && !baseline {
		shared, err = s.sharedCache(cfg)
		if err != nil {
			return nil, err
		}
	}
	problems := s.acquire(cfg.metrics, cfg.parallelism, shared)
	defer s.release(cfg.metrics, shared, problems)
	workers := make([]opt.Worker, cfg.parallelism)
	for i := range workers {
		o, err := newOptimizer(cfg, shared)
		if err != nil {
			return nil, err
		}
		workers[i] = opt.Worker{
			Optimizer: o,
			Problem:   problems[i],
			Seed:      workerSeed(cfg.seed, i),
		}
	}

	// The context deadline is the primary budget; WithTimeout tightens
	// it, and a default of one second kicks in when nothing else bounds
	// the run.
	timeout := cfg.timeout
	if timeout <= 0 && cfg.maxIterations == 0 {
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			timeout = time.Second
		}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	res, err := opt.Run(ctx, opt.RunConfig{
		Workers:       workers,
		MaxIterations: cfg.maxIterations,
		MergeEvery:    cfg.mergeEvery(),
		Observe:       cfg.observer(),
	})
	if err != nil {
		var perr *opt.PanicError
		if errors.As(err, &perr) {
			return nil, fmt.Errorf("rmq: %w: %w", ErrWorkerPanic, err)
		}
		return nil, fmt.Errorf("rmq: %w", err)
	}
	plans := append([]*Plan(nil), res.Plans...)
	sortPlans(plans)
	return &Frontier{
		Plans:      plans,
		Metrics:    append([]Metric(nil), cfg.metrics...),
		Iterations: res.Iterations,
		Elapsed:    res.Elapsed,
	}, nil
}

// workerSeed derives the seed of worker i from the run seed. Worker 0
// keeps the run seed, so sequential runs match the pre-parallelism
// behavior; higher workers take the i-th output of a SplitMix64
// generator whose stream origin is the finalizer-mixed run seed. The
// mixing matters for serving workloads that derive per-request seeds:
// the previous bare golden-ratio increment made run seed s worker 1
// collide bit-for-bit with run seed s+0x9E3779B97F4A7C15 worker 0 (and,
// generally, worker i of seed s with worker i+k of seed s-k·golden),
// silently duplicating multi-start trajectories across requests.
// Hashing the origin before the increment leaves no algebraic relation
// between the streams of different run seeds.
func workerSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	return splitmix64(splitmix64(seed) + uint64(i)*0x9E3779B97F4A7C15)
}

// splitmix64 is the SplitMix64 finalizer (Steele et al.), a bijective
// avalanche mix of the full 64-bit state.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// metricsKey canonically encodes a metric subset; it keys the shared
// stores and the problem pool.
func metricsKey(metrics []Metric) string {
	key := make([]byte, len(metrics))
	for i, m := range metrics {
		key[i] = byte(m)
	}
	return string(key)
}

// acquire returns n problem instances for the run's workers, each used
// by exactly one worker at a time. A shared-cache run takes warmed
// instances of its metric subset from the pool and builds the shortfall
// over the store's interner, so their plan ids live in the store's
// namespace; a private run builds fresh instances.
func (s *Session) acquire(metrics []Metric, n int, shared *cache.Shared) []*opt.Problem {
	got := make([]*opt.Problem, 0, n)
	var in *tableset.Interner // nil: every private problem gets its own
	if shared != nil {
		in = shared.Interner()
		key := metricsKey(metrics)
		s.mu.Lock()
		free := s.pool[key]
		take := min(n, len(free))
		got = append(got, free[len(free)-take:]...)
		for i := len(free) - take; i < len(free); i++ {
			free[i] = nil // keep the parked suffix collectable
		}
		s.pool[key] = free[:len(free)-take]
		s.pooled -= take
		s.mu.Unlock()
	}
	for len(got) < n {
		got = append(got, opt.NewProblemWithInterner(s.cat, metrics, in))
	}
	return got
}

// release parks the problem instances a shared-cache run borrowed,
// warmed by that run, under its metric subset; a private run's
// instances are dropped with the run. The per-subset population is
// capped at as many instances as GOMAXPROCS or this run's parallelism,
// whichever is larger, and the overflow is dropped, oldest first — without the cap, a burst of B
// concurrent runs at parallelism P permanently pinned B×P warmed
// instances, each holding a cost model, caches, and scratch arenas.
func (s *Session) release(metrics []Metric, shared *cache.Shared, problems []*opt.Problem) {
	if shared == nil {
		return
	}
	key := metricsKey(metrics)
	limit := max(runtime.GOMAXPROCS(0), len(problems))
	s.mu.Lock()
	defer s.mu.Unlock()
	before := len(s.pool[key])
	free := append(s.pool[key], problems...)
	if over := len(free) - limit; over > 0 {
		s.dropped += over
		// Keep the most recently released instances — the warmest ones.
		copy(free, free[over:])
		for i := limit; i < len(free); i++ {
			free[i] = nil
		}
		free = free[:limit]
	}
	s.pool[key] = free
	s.pooled += len(free) - before
	s.poolHigh = max(s.poolHigh, s.pooled)
}
