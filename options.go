package rmq

import (
	"fmt"
	"time"

	"rmq/internal/costmodel"
	"rmq/internal/opt"
)

// Option configures one optimization run. Options passed to NewSession
// become session defaults; options passed to Optimize apply on top of
// them, later options overriding earlier ones.
type Option func(*config)

// config is the resolved run configuration after applying all options.
type config struct {
	metrics       []Metric
	timeout       time.Duration
	maxIterations int
	seed          uint64
	algorithm     Algorithm
	dpAlpha       float64
	parallelism   int
	sharedCache   bool
	retention     float64
	retentionSet  bool
	progress      func(Progress)
	progressEvery int
	onImprovement func(Progress)
	err           error
}

// fail records the first option error; resolution reports it.
func (c *config) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// resolveConfig applies the option layers in order and validates the
// result.
func resolveConfig(layers ...[]Option) (config, error) {
	var c config
	for _, layer := range layers {
		for _, o := range layer {
			if o != nil {
				o(&c)
			}
		}
	}
	if c.err != nil {
		return c, c.err
	}
	if len(c.metrics) == 0 {
		c.metrics = costmodel.AllMetrics()
	}
	seen := make(map[Metric]bool, len(c.metrics))
	for _, m := range c.metrics {
		if m >= costmodel.NumMetrics {
			return c, fmt.Errorf("rmq: unknown metric %v", m)
		}
		if seen[m] {
			return c, fmt.Errorf("rmq: duplicate metric %v", m)
		}
		seen[m] = true
	}
	if c.parallelism <= 0 {
		c.parallelism = 1
	}
	if c.retention < 1 {
		c.retention = 1
	}
	return c, nil
}

// WithMetrics selects the cost metric subset (the paper's l); the
// default is all three. Duplicate or unknown metrics are rejected.
func WithMetrics(metrics ...Metric) Option {
	ms := append([]Metric(nil), metrics...)
	return func(c *config) { c.metrics = ms }
}

// WithTimeout bounds the optimization wall-clock time, in addition to
// any context deadline. If neither a context deadline, a timeout, nor an
// iteration cap bounds the run, a default timeout of one second applies.
func WithTimeout(d time.Duration) Option {
	return func(c *config) {
		if d <= 0 {
			c.fail(fmt.Errorf("rmq: non-positive timeout %v", d))
			return
		}
		c.timeout = d
	}
}

// WithMaxIterations bounds the number of optimizer steps per worker (RMQ
// iterations, NSGA-II generations, ...). With a fixed seed it makes runs
// deterministic, independent of machine speed — including parallel runs,
// whose merged frontier costs are then reproducible.
func WithMaxIterations(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail(fmt.Errorf("rmq: negative iteration cap %d", n))
			return
		}
		c.maxIterations = n
	}
}

// WithSeed makes the run reproducible; runs with equal seeds and
// iteration caps produce identical frontiers. In parallel runs each
// worker derives its own seed from this one and its worker index.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithAlgorithm selects the optimization algorithm by registry name;
// default AlgoRMQ. See RegisterAlgorithm for plugging in external
// algorithms.
func WithAlgorithm(a Algorithm) Option {
	return func(c *config) { c.algorithm = a }
}

// WithDPAlpha sets the approximation factor for AlgoDP (default 2).
func WithDPAlpha(alpha float64) Option {
	return func(c *config) { c.dpAlpha = alpha }
}

// WithParallelism runs n independent optimizer instances concurrently
// (parallel multi-start), each with its own derived seed and its own
// cost-model state, merging everything they find into one shared
// non-dominated archive. n ≤ 1 means sequential. An iteration cap
// applies per worker; Frontier.Iterations reports the sum. Multi-start
// only pays off for randomized algorithms: a deterministic,
// seed-ignoring algorithm like AlgoDP performs the same computation on
// every worker.
func WithParallelism(n int) Option {
	return func(c *config) { c.parallelism = n }
}

// WithSharedCache shares the plan cache — the per-table-set Pareto
// frontiers of sub-plans that RMQ amortizes its iterations through —
// across the parallel workers of a run and across the Optimize calls of
// a Session. All workers publish newly found sub-plan frontiers into
// one session-scoped concurrent store and warm-start from it, so a
// session serving repeated or overlapping queries skips the cold-start
// frontier building on every call after the first, and N parallel
// workers pay the cold start once instead of N times.
//
// Sharing is off by default because it changes iteration trajectories:
// a worker's cache sees plans that its private schedule alone would not
// have found, so runs with equal seeds are no longer bit-identical to
// private-cache runs (results remain valid Pareto approximations, and
// at equal budgets the shared-cache frontier is empirically no worse —
// see the differential quality tests). The store retains every
// published plan that survives pruning at the retention precision; see
// WithCacheRetention for bounding memory growth. Only algorithms with a
// sub-plan cache (AlgoRMQ) consult the store; the other built-ins run as
// without sharing.
func WithSharedCache(enabled bool) Option {
	return func(c *config) { c.sharedCache = enabled }
}

// WithCacheRetention sets the precision α ≥ 1 at which a session's
// shared plan cache (WithSharedCache) retains published frontiers.
// Retention 1 — the default — keeps the exact non-dominated union of
// every frontier ever published: maximum warm-start fidelity, memory
// growing as workers and runs accumulate diverse trade-offs. A
// retention α > 1 keeps only α-approximate frontiers, which bounds the
// retained plans per table set polynomially (the paper's Lemma 6) and
// trades a bounded loss of frontier detail for firmly bounded memory.
// Plan costs span orders of magnitude under this cost model, so
// pruning has teeth from α ≈ 2 upward (α = 2 roughly quarters a
// long-lived session's store). The retention of a session's store is
// fixed by the first run that creates it (per metric subset); later
// runs reuse the store as-is. Passed to NewSession, it also fixes the α
// that Session.Restore and Session.ApplyDeltas accept.
func WithCacheRetention(alpha float64) Option {
	return func(c *config) {
		if alpha < 1 {
			c.fail(fmt.Errorf("rmq: cache retention %v below 1", alpha))
			return
		}
		c.retention = alpha
		c.retentionSet = true
	}
}

// Progress is an anytime snapshot of a running optimization, as
// delivered to WithProgress and OnImprovement callbacks.
type Progress struct {
	// Iterations is the total number of optimizer steps performed so
	// far, summed across parallel workers.
	Iterations int
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Metrics is the metric subset the plan costs refer to.
	Metrics []Metric
	// Plans is the current merged non-dominated plan set, sorted by
	// cost. The slice is a copy owned by the receiver.
	Plans []*Plan
}

// WithProgress streams anytime frontier snapshots to fn, at most once
// per `every` optimizer steps (every ≤ 1 reports after each step). The
// callback runs on an optimizer goroutine — calls are serialized, but a
// slow callback stalls the run.
func WithProgress(every int, fn func(Progress)) Option {
	return func(c *config) {
		c.progress = fn
		c.progressEvery = every
	}
}

// OnImprovement invokes fn whenever the merged frontier improves, i.e. a
// newly found plan was admitted to the non-dominated archive. The
// callback runs on an optimizer goroutine — calls are serialized, but a
// slow callback stalls the run.
func OnImprovement(fn func(Progress)) Option {
	return func(c *config) { c.onImprovement = fn }
}

// mergeEvery returns the worker merge cadence matching the streaming
// options: every step when improvements must be detected, batched to
// the progress interval when only throttled progress is wanted, and 0
// (Run's default, irrelevant without an observer) otherwise.
func (c *config) mergeEvery() int {
	if c.onImprovement != nil {
		return 1
	}
	if c.progress != nil && c.progressEvery > 1 {
		return c.progressEvery
	}
	return 0
}

// observer builds the opt.Run observe callback for the configured
// streaming options, or nil when none are set. Run serializes observe
// calls, so the closure's state needs no locking.
func (c *config) observer() func(opt.Event) {
	progress, onImprove := c.progress, c.onImprovement
	if progress == nil && onImprove == nil {
		return nil
	}
	every := c.progressEvery
	if every < 1 {
		every = 1
	}
	metrics := append([]Metric(nil), c.metrics...)
	next := every
	return func(ev opt.Event) {
		improve := onImprove != nil && ev.Improved
		report := progress != nil && ev.Iterations >= next
		if !improve && !report {
			return
		}
		p := Progress{
			Iterations: ev.Iterations,
			Elapsed:    ev.Elapsed,
			Metrics:    metrics,
			Plans:      ev.Snapshot(),
		}
		sortPlans(p.Plans)
		if improve {
			onImprove(p)
		}
		if report {
			for next <= ev.Iterations {
				next += every
			}
			progress(p)
		}
	}
}
