package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"time"

	"rmq"
	"rmq/client"
	"rmq/internal/api"
	"rmq/internal/core"
	"rmq/internal/cost"
	"rmq/internal/opt"
	"rmq/internal/quality"
	"rmq/internal/randplan"
	"rmq/internal/server"
)

// scale sizes the workloads. "full" is what BENCHMARK.json runs;
// "smoke" shrinks every size so a workload finishes in about a second.
type scale struct {
	setupReps int // set-ups per run; setup_s is their median

	serveCatalogs, serveTables       int
	primeIters, warmIters, coldIters int
	warmRate, mixedRate              float64 // open-loop requests per second
	coldEvery                        int     // serve-mixed: every coldEvery-th request is cold
	cacheBudget                      int64   // serve-warm's MaxCacheBytes

	largeCatalogs, largeIters int

	restartTables, restartRuns, restartIters, firstIters int

	offPathSamples int // traced runs: random plans climbed off the timed path
}

var scales = map[string]scale{
	"full": {
		setupReps:     3,
		serveCatalogs: 4, serveTables: 24,
		primeIters: 400, warmIters: 40, coldIters: 400,
		warmRate: 40, mixedRate: 20, coldEvery: 5,
		cacheBudget:   256 << 20,
		largeCatalogs: refCatalogs, largeIters: 200,
		restartTables: 16, restartRuns: 3, restartIters: 1500, firstIters: 40,
		offPathSamples: 480,
	},
	"smoke": {
		setupReps:     1,
		serveCatalogs: 2, serveTables: 8,
		primeIters: 40, warmIters: 10, coldIters: 40,
		warmRate: 40, mixedRate: 20, coldEvery: 5,
		cacheBudget:   64 << 10,
		largeCatalogs: 3, largeIters: 5,
		restartTables: 8, restartRuns: 2, restartIters: 50, firstIters: 10,
		offPathSamples: 12,
	},
}

// runCtx is one workload run's configuration.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	sc      scale
	tr      *tracer // nil for an untraced run
	refPath string
}

// Seed streams: a seed a run uses is its -seed shifted left by 20 bits
// plus a stream offset plus an index, so runs with different seeds
// never share inputs and streams within a run never collide.
const (
	streamCatalog = 1 << 16
	streamPrime   = 2 << 16
	streamRequest = 3 << 16
	streamWarmup  = 4 << 16
	streamOffPath = 5 << 16
)

func (c *runCtx) seedFor(stream, i int) uint64 { return c.seed<<20 + uint64(stream+i) }

// fixedCatalogSeed is the generator seed of long-lived catalog i, the
// same for every -seed. How much a catalog's sessions cache, and so
// how long their requests and snapshots take, varies severalfold from
// one generated catalog to the next; with a handful of catalogs per run
// that would drown any change in the code. -seed varies the requests,
// cold catalogs and optimizer seeds instead.
func fixedCatalogSeed(i int) uint64 { return uint64(streamCatalog + i) }

// traced reports whether operation i of a traced run goes through the
// timing wrapper. Traced and untraced operations alternate, flipping
// parity every period operations so each input of a rotation of that
// length is seen both ways; trace.overhead_pct compares the two halves.
func (c *runCtx) traced(i, period int) bool {
	return c.tr != nil && (i+i/max(period, 2))%2 == 0
}

// runData is what a workload run measured, before it becomes metrics.
type runData struct {
	serve     bool
	setups    []time.Duration
	setupCals []time.Duration // the calibration time after each set-up
	all       []op            // every timed operation
	lat       []op            // the operations whose latency is reported
	tput      []op            // the closed-loop operations behind the throughputs
	tTime     loopTime

	rt       runtimeDelta // over rtOps operations
	rtOps    int
	liveHeap uint64

	cache         rmq.CacheStats
	shedEvents    uint64
	effRetention  float64
	poolHigh      int
	rejected      uint64
	retries       uint64
	snapshotBytes int
	snapshotPlans int

	off *offPath // traced runs only
}

// setupDone records a set-up that began at start, and calibrates after
// it: the median of three calibrations, as set-up has no operations of
// its own to spread the calibration's noise over.
func (d *runData) setupDone(start time.Time) {
	d.setups = append(d.setups, time.Since(start))
	cals := []float64{float64(calibrate()), float64(calibrate()), float64(calibrate())}
	d.setupCals = append(d.setupCals, time.Duration(median(cals)))
}

type workload struct {
	name string
	run  func(*runCtx) (*runData, error)
}

var workloads = []workload{
	{"serve-warm", func(c *runCtx) (*runData, error) { return runServe(c, false) }},
	{"serve-mixed", func(c *runCtx) (*runData, error) { return runServe(c, true) }},
	{"large-cold", runLargeCold},
	{"restart", runRestart},
}

// nproc bounds the benchmark's concurrent callers and connections.
func nproc() int { return runtime.GOMAXPROCS(0) }

// metricSubsets rotate serve requests through the three per-subset
// stores of each catalog session.
var metricSubsets = [][]string{nil, {"time", "buffer"}, {"time"}}

var allMetrics = []rmq.Metric{rmq.MetricTime, rmq.MetricBuffer, rmq.MetricDisc}

func subsetDim(si int) int {
	if metricSubsets[si] == nil {
		return 3
	}
	return len(metricSubsets[si])
}

// --- serve-warm and serve-mixed ---

// serveEnv is an in-process rmqd with its warm catalogs registered and
// every (catalog, metric subset) slot primed.
type serveEnv struct {
	srv    *http.Server
	served chan struct{}
	tp     *http.Transport
	cl     *client.Client
	ids    []string
	specs  []catSpec
	primed [][]cost.Vector // per slot: the frontier the priming request returned
}

func (e *serveEnv) slot(i int) (catalog, subset int) {
	s := i % len(e.primed)
	return s % len(e.ids), s / len(e.ids)
}

func startServe(c *runCtx, budget int64) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = server.New(server.Config{MaxInFlight: 2 * nproc(), MaxCacheBytes: budget})
	if c.tr != nil {
		h = c.tr.wrapHandler(h)
	}
	e := &serveEnv{srv: &http.Server{Handler: h}, served: make(chan struct{})}
	go func() {
		defer close(e.served)
		_ = e.srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	e.tp = http.DefaultTransport.(*http.Transport).Clone()
	e.tp.MaxConnsPerHost, e.tp.MaxIdleConnsPerHost = nproc(), nproc()
	e.cl = &client.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: keyTransport{e.tp}}}

	ctx := context.Background()
	for i := range c.sc.serveCatalogs {
		spec := catSpec{tables: c.sc.serveTables, graph: rmq.Chain, seed: fixedCatalogSeed(i)}
		info, err := e.cl.Register(ctx, api.CatalogRequest{
			Generate:  &api.GenerateSpec{Tables: spec.tables, Graph: "chain", Seed: spec.seed},
			Retention: 2,
		})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("registering catalog %d: %w", i, err)
		}
		e.ids = append(e.ids, info.ID)
		e.specs = append(e.specs, spec)
	}
	e.primed = make([][]cost.Vector, len(e.ids)*len(metricSubsets))
	for i := range e.primed {
		ci, si := e.slot(i)
		s := c.seedFor(streamPrime, i)
		resp, err := e.cl.Optimize(ctx, api.OptimizeRequest{
			Catalog: e.ids[ci], MaxIterations: c.sc.primeIters, Metrics: metricSubsets[si], Seed: &s,
		})
		if err == nil {
			e.primed[i], err = wireFrontier(resp, subsetDim(si))
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("priming catalog %s: %w", e.ids[ci], err)
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	_ = e.srv.Close() // the listener error, if any, is Serve's to report
	<-e.served
	e.tp.CloseIdleConnections()
}

// request performs serve operation i: a warm optimize of the next slot
// in rotation or, on serve-mixed, every coldEvery-th one a cold request
// that registers a fresh catalog, optimizes it and deletes it.
func (e *serveEnv) request(c *runCtx, i int, mixed bool) op {
	ci, si := e.slot(i)
	s := c.seedFor(streamRequest, i)
	o := op{kind: "warm", key: s, traced: c.traced(i, len(e.primed))}
	req := api.OptimizeRequest{Catalog: e.ids[ci], MaxIterations: c.sc.warmIters, Metrics: metricSubsets[si], Seed: &s}
	ctx := context.Background()
	if o.traced {
		req.Algorithm = tracedAlgorithm
		ctx = withTraceKey(ctx, s)
	}
	cold := mixed && i%c.sc.coldEvery == c.sc.coldEvery-1
	o.begin = time.Now()
	if cold {
		o.kind = "cold"
		info, err := e.cl.Register(ctx, api.CatalogRequest{
			Generate: &api.GenerateSpec{Tables: c.sc.serveTables, Graph: "chain", Seed: s},
		})
		if err != nil {
			o.end, o.err = time.Now(), fmt.Errorf("register: %w", err)
			return o
		}
		req.Catalog, req.MaxIterations = info.ID, c.sc.coldIters
	}
	resp, err := e.cl.Optimize(ctx, req)
	o.end = time.Now()
	o.call = o.end.Sub(o.begin)
	if o.traced {
		c.tr.record("client.call", "", s, o.begin, o.end)
	}
	if cold {
		// Untraced context: the delete is clean-up, not part of the
		// request the spans describe.
		if derr := e.cl.Delete(context.Background(), req.Catalog); derr != nil && err == nil {
			err = fmt.Errorf("delete: %w", derr)
		}
	}
	if err != nil {
		o.err = err
		return o
	}
	o.run = time.Duration(resp.ElapsedMS * float64(time.Millisecond))
	o.iterations = resp.Iterations
	front, err := wireFrontier(resp, subsetDim(si))
	o.plans = len(front)
	if err != nil {
		o.err = err
		return o
	}
	if !cold {
		o.eps = quality.Epsilon(front, e.primed[i%len(e.primed)])
	}
	return o
}

// runServe: serve-warm runs an open loop at warmRate against a server
// with a plan-cache budget; serve-mixed runs one at mixedRate without a
// budget, one request in coldEvery cold. Each runs for half the run,
// then a closed loop of nproc clients, whose completion rate is the
// capacity, for the other half.
func runServe(c *runCtx, mixed bool) (*runData, error) {
	budget, rate := c.sc.cacheBudget, c.sc.warmRate
	if mixed {
		budget, rate = 0, c.sc.mixedRate
	}
	d := &runData{serve: true}
	var env *serveEnv
	for range c.sc.setupReps {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = startServe(c, budget); err != nil {
			return nil, err
		}
		d.setupDone(start)
	}
	defer env.close()

	// Allocations, cache state and heap are taken over the open loop: it
	// does the same requests on every machine, while the closed loop
	// completes as many as the machine manages, and each one grows the
	// caches.
	do := func(i int) op { return env.request(c, i, mixed) }
	openDur := c.seconds / 2
	before := readRuntime()
	d.lat = openLoop(rate, openDur, nproc(), 0, do)
	d.rt, d.rtOps = readRuntime().since(before), len(d.lat)
	stats, err := env.cl.Stats(context.Background())
	if err != nil {
		return nil, fmt.Errorf("reading server stats: %w", err)
	}
	d.shedEvents = stats.ShedEvents
	for _, cs := range stats.Catalogs {
		d.cache.Sets += cs.Cache.Sets
		d.cache.Plans += cs.Cache.Plans
		d.cache.Bytes += cs.Cache.Bytes
		d.poolHigh += cs.Pool.HighWater
		d.effRetention = math.Max(d.effRetention, cs.EffectiveRetention)
	}
	d.liveHeap = liveHeapBytes()

	d.tput, d.tTime = closedLoop(c.seconds-openDur, nproc(), len(d.lat), 1, do)
	d.all = append(append([]op(nil), d.lat...), d.tput...)
	if stats, err = env.cl.Stats(context.Background()); err != nil {
		return nil, fmt.Errorf("reading server stats: %w", err)
	}
	d.rejected, d.retries = stats.Rejected, env.cl.Metrics().Retries
	if c.tr != nil {
		off := measureOffPath(env.specs, allMetrics, c.sc.offPathSamples, c.seedFor(streamOffPath, 0))
		d.off = &off
	}
	return d, nil
}

// --- large-cold ---

// runLargeCold optimizes 100-table queries one after another, each on a
// fresh Session: whole passes over the reference catalogs, so every run
// has the same mix of them. The first pass runs on fixed seeds, so
// alpha_gm, which scores
// its frontiers against the reference, is a property of the code alone;
// later passes take their seeds from -seed.
func runLargeCold(c *runCtx) (*runData, error) {
	d := &runData{}
	var ref *reference
	for range c.sc.setupReps {
		start := time.Now()
		r, err := loadReference(c.refPath, c.sc.largeCatalogs)
		if err != nil {
			return nil, err
		}
		// One untimed query lets lazy runtime set-up finish before timing.
		if w, _ := largeQuery(c, r, 0, c.seedFor(streamWarmup, 0), false); w.err != nil {
			return nil, fmt.Errorf("warm-up query: %w", w.err)
		}
		d.setupDone(start)
		ref = r
	}
	n := len(ref.cats)
	var last *rmq.Session
	before := readRuntime()
	d.all, d.tTime = closedLoop(c.seconds, 1, 0, n, func(i int) op {
		seed := uint64(i + 1)
		if i >= n {
			seed = c.seedFor(streamRequest, i)
		}
		o, sess := largeQuery(c, ref, i%n, seed, c.traced(i, n))
		if i >= n {
			o.eps = 0 // alpha_gm scores the first pass only
		}
		last = sess
		return o
	})
	d.rt, d.rtOps = readRuntime().since(before), len(d.all)
	d.lat, d.tput = d.all, d.all
	// The heap a caller holds with one large-query session alive.
	d.liveHeap = liveHeapBytes()
	if last != nil {
		d.poolHigh = last.PoolStats().HighWater
	}
	runtime.KeepAlive(last)
	if c.tr != nil {
		off := measureOffPath(ref.specs, allMetrics, c.sc.offPathSamples, c.seedFor(streamOffPath, 0))
		d.off = &off
	}
	return d, nil
}

// largeQuery optimizes reference catalog ci on a fresh session, which it
// returns alongside the operation.
func largeQuery(c *runCtx, ref *reference, ci int, seed uint64, traced bool) (op, *rmq.Session) {
	o := op{kind: "query", key: seed, traced: traced}
	opts := []rmq.Option{rmq.WithMaxIterations(c.sc.largeIters), rmq.WithSeed(seed), rmq.WithParallelism(1)}
	if traced {
		opts = append(opts, rmq.WithAlgorithm(tracedAlgorithm))
	}
	o.begin = time.Now()
	sess, err := rmq.NewSession(ref.cats[ci])
	var f *rmq.Frontier
	callStart := time.Now()
	if err == nil {
		f, err = sess.Optimize(context.Background(), opts...)
	}
	o.end = time.Now()
	o.call = o.end.Sub(callStart)
	if traced {
		c.tr.record("rmq.optimize", "", seed, callStart, o.end)
	}
	if err != nil {
		o.err = err
		return o, sess
	}
	o.run, o.iterations, o.plans = f.Elapsed, f.Iterations, len(f.Plans)
	front := frontierCosts(f)
	if o.err = checkFrontier(front, 3); o.err == nil {
		o.eps = quality.Epsilon(front, ref.frontiers[ci])
	}
	return o, sess
}

// --- restart ---

// runRestart warms one seed session, then repeats the restart path: its
// Snapshot, a fresh Session restoring it, and that session's first
// query, which must answer at least as well as the seed session did.
func runRestart(c *runCtx) (*runData, error) {
	d := &runData{}
	spec := catSpec{tables: c.sc.restartTables, graph: rmq.Chain, seed: fixedCatalogSeed(0)}
	metrics := []rmq.Metric{rmq.MetricTime, rmq.MetricBuffer}
	defaults := []rmq.Option{rmq.WithMetrics(metrics...), rmq.WithSharedCache(true), rmq.WithCacheRetention(1)}
	var (
		cat  *rmq.Catalog
		seed *rmq.Session
		last *rmq.Frontier
	)
	for range c.sc.setupReps {
		start := time.Now()
		cat = spec.generate()
		sess, err := rmq.NewSession(cat, defaults...)
		if err != nil {
			return nil, err
		}
		for r := range c.sc.restartRuns {
			last, err = sess.Optimize(context.Background(), rmq.WithMaxIterations(c.sc.restartIters),
				rmq.WithParallelism(nproc()), rmq.WithSeed(c.seedFor(streamPrime, r)))
			if err != nil {
				return nil, fmt.Errorf("warming the seed session: %w", err)
			}
		}
		d.setupDone(start)
		seed = sess
	}
	seedFront := frontierCosts(last)
	if err := checkFrontier(seedFront, len(metrics)); err != nil {
		return nil, fmt.Errorf("seed session frontier: %w", err)
	}

	var (
		snapshotBytes int
		restoredSess  *rmq.Session
	)
	before := readRuntime()
	d.all, d.tTime = closedLoop(c.seconds, 1, 0, 1, func(i int) op {
		key := c.seedFor(streamRequest, i)
		o := op{kind: "cycle", key: key, traced: c.traced(i, 2)}
		o.begin = time.Now()
		data, err := seed.Snapshot()
		encoded := time.Now()
		var fresh *rmq.Session
		if err == nil {
			fresh, err = rmq.NewSession(cat, defaults...)
		}
		if err == nil {
			err = fresh.Restore(data)
		}
		restored := time.Now()
		var f *rmq.Frontier
		if err == nil {
			opts := []rmq.Option{rmq.WithMaxIterations(c.sc.firstIters), rmq.WithSeed(key)}
			if o.traced {
				opts = append(opts, rmq.WithAlgorithm(tracedAlgorithm))
			}
			f, err = fresh.Optimize(context.Background(), opts...)
		}
		o.end = time.Now()
		o.encode, o.restore, o.call = encoded.Sub(o.begin), restored.Sub(encoded), o.end.Sub(restored)
		if o.traced {
			c.tr.record("rmq.snapshot", "", key, o.begin, encoded)
			c.tr.record("rmq.restore", "", key, encoded, restored)
			c.tr.record("rmq.optimize", "", key, restored, o.end)
		}
		if err != nil {
			o.err = err
			return o
		}
		snapshotBytes, restoredSess = len(data), fresh
		o.run, o.iterations, o.plans = f.Elapsed, f.Iterations, len(f.Plans)
		front := frontierCosts(f)
		if o.err = checkFrontier(front, len(metrics)); o.err != nil {
			return o
		}
		// A restored session starts from everything the seed session had
		// found, so its first answer must cover that frontier exactly.
		if o.eps = quality.Epsilon(front, seedFront); o.eps != 1 {
			o.err = fmt.Errorf("%w: first query after restore is %v-approximate to the frontier before the snapshot, want 1", errWrongOutput, o.eps)
		}
		return o
	})
	d.rt, d.rtOps = readRuntime().since(before), len(d.all)
	d.lat, d.tput = d.all, d.all
	for _, s := range []*rmq.Session{seed, restoredSess} {
		cs := s.CacheStats()
		d.cache.Sets += cs.Sets
		d.cache.Plans += cs.Plans
		d.cache.Bytes += cs.Bytes
	}
	d.effRetention = seed.EffectiveRetention()
	d.poolHigh = seed.PoolStats().HighWater
	d.snapshotBytes, d.snapshotPlans = snapshotBytes, seed.CacheStats().Plans
	// The heap held by the seed session and one restored session.
	d.liveHeap = liveHeapBytes()
	runtime.KeepAlive(seed)
	runtime.KeepAlive(restoredSess)
	if c.tr != nil {
		off := measureOffPath([]catSpec{spec}, metrics, c.sc.offPathSamples, c.seedFor(streamOffPath, 0))
		d.off = &off
	}
	return d, nil
}

// --- shared pieces ---

// catSpec is the generator input of one catalog.
type catSpec struct {
	tables int
	graph  rmq.GraphKind
	seed   uint64
}

func (s catSpec) generate() *rmq.Catalog {
	return rmq.GenerateCatalog(rmq.WorkloadSpec{Tables: s.tables, Graph: s.graph}, s.seed)
}

// offPath times the first two phases of an RMQ iteration, random plan
// generation and Pareto climbing, on problems built apart from the
// timed path, together with catalog generation and problem set-up.
type offPath struct {
	generate, problem, random, climb []time.Duration
	moves                            []int
}

func measureOffPath(specs []catSpec, metrics []rmq.Metric, samples int, seed uint64) offPath {
	var m offPath
	per := max(1, samples/len(specs))
	for ci, spec := range specs {
		t0 := time.Now()
		cat := spec.generate()
		t1 := time.Now()
		p := opt.NewProblem(cat, metrics)
		t2 := time.Now()
		m.generate = append(m.generate, t1.Sub(t0))
		m.problem = append(m.problem, t2.Sub(t1))
		climber := core.NewClimber(p.Model, core.ClimbConfig{})
		rng := rand.New(rand.NewPCG(seed, uint64(ci)))
		for range per {
			start := time.Now()
			pl := randplan.Random(p.Model, p.Query, rng)
			generated := time.Now()
			_, moves := climber.Climb(pl)
			m.random = append(m.random, generated.Sub(start))
			m.climb = append(m.climb, time.Since(generated))
			m.moves = append(m.moves, moves)
		}
	}
	return m
}

// errWrongOutput marks failures of the output checks, as opposed to
// calls that failed outright; a run with any is not correct.
var errWrongOutput = errors.New("wrong output")

// wireFrontier converts a served frontier to cost vectors and checks it.
func wireFrontier(resp api.OptimizeResponse, dim int) ([]cost.Vector, error) {
	front := make([]cost.Vector, len(resp.Plans))
	for i, p := range resp.Plans {
		if len(p.Cost) != dim {
			return nil, fmt.Errorf("%w: plan %d has %d costs, want %d", errWrongOutput, i, len(p.Cost), dim)
		}
		front[i] = cost.New(p.Cost...)
	}
	return front, checkFrontier(front, dim)
}

// checkFrontier is the output check every served or returned frontier
// must pass: non-empty, dim finite non-negative costs per plan, and no
// plan dominated by another. (Zero is a real cost: a plan that writes
// no temporary pages uses no disc space.)
func checkFrontier(front []cost.Vector, dim int) error {
	if len(front) == 0 {
		return fmt.Errorf("%w: empty frontier", errWrongOutput)
	}
	for i, v := range front {
		if v.Dim() != dim {
			return fmt.Errorf("%w: plan %d has %d costs, want %d", errWrongOutput, i, v.Dim(), dim)
		}
		for k := range dim {
			if x := v.At(k); !(x >= 0) || math.IsInf(x, 1) {
				return fmt.Errorf("%w: plan %d cost %d is %v, want finite and non-negative", errWrongOutput, i, k, x)
			}
		}
	}
	if nd := quality.NonDominated(front); len(nd) != len(front) {
		return fmt.Errorf("%w: %d of %d frontier plans are dominated or duplicated", errWrongOutput, len(front)-len(nd), len(front))
	}
	return nil
}
