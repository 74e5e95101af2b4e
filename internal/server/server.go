// Package server implements rmqd's HTTP/JSON optimization service: the
// layer that puts the library's anytime, context-driven optimizer on
// the wire. Clients register catalogs (POST /catalogs) and optimize
// against them (POST /optimize); each registered catalog is backed by
// one long-lived rmq.Session with the shared plan cache, so repeated
// and overlapping queries against the same catalog warm-start instead
// of rebuilding sub-plan frontiers per request.
//
// A catalog's retention α is its registration's "retention" (exact when
// absent), on every node and across restarts: the checkpoint manifest
// and a router's replicas copy the registration. Warm state arrives by
// two routes only — replicate_from pulls from a peer
// (GET /catalogs/{id}/deltas) and the snapshot directory at startup
// (LoadCheckpoint) — and each refuses state taken at another α.
//
// The paper's anytime property is the serving contract: a request's
// deadline (timeout_ms, capped by the server's MaxTimeout) becomes a
// context deadline, and when it expires mid-optimization the best
// frontier found so far is returned with status 200 — budgeted latency,
// graceful quality degradation. A client that disconnects cancels its
// run promptly through the request context. Streaming requests
// ("stream": true) get server-sent events with intermediate frontier
// snapshots, so clients can stop early once the trade-offs suffice.
//
// Admission control is a bounded in-flight gauge: requests beyond
// MaxInFlight are rejected immediately with 429 and a Retry-After hint
// instead of queueing into the deadline. GET /healthz and GET /stats
// expose liveness and the session-level telemetry (plan-cache sizes,
// problem-pool high-water marks, in-flight/served/rejected counters).
//
//rmq:cancelable
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rmq"
	"rmq/internal/api"
	"rmq/internal/faultinject"
)

// Config parameterizes a Server. The zero value serves with sensible
// defaults for an interactive deployment.
type Config struct {
	// MaxInFlight bounds concurrently admitted /optimize requests;
	// excess requests get 429 immediately. Default 2×GOMAXPROCS.
	MaxInFlight int
	// DefaultTimeout is the per-request optimization budget when the
	// request names neither timeout_ms nor max_iterations. Default
	// 500ms.
	DefaultTimeout time.Duration
	// MaxTimeout caps every request budget (and backstops
	// iteration-bounded requests), which also bounds how long graceful
	// shutdown can take. Default 30s.
	MaxTimeout time.Duration
	// MaxParallelism caps per-request multi-start parallelism. Default
	// max(8, 4×GOMAXPROCS).
	MaxParallelism int
	// SnapshotDir, when set, enables plan-cache persistence: Checkpoint
	// writes each catalog's registration manifest and rmq-snap stream
	// there, and LoadCheckpoint re-registers them at startup.
	SnapshotDir string
	// MaxCacheBytes budgets the estimated memory of all catalogs'
	// shared plan caches. When the total exceeds it, the server tightens
	// cache retention (Lemma-6 pruning bounds what survives) instead of
	// growing until the OOM killer picks a victim. 0 means unbounded.
	MaxCacheBytes int64
	// AllowSnapshotFetch permits registrations carrying replicate_from
	// to continuously pull cache deltas from peers. Off by default: the
	// pulls are outbound requests to caller-supplied URLs, which an
	// operator must opt into. It is the only route by which the server
	// issues outbound requests.
	AllowSnapshotFetch bool
	// ReplicateInterval is how often a replicated catalog's puller asks
	// its peer for new deltas. Default 1s.
	ReplicateInterval time.Duration
	// Logf, when non-nil, receives one line per notable event
	// (registrations, rejections). The hot path never logs.
	Logf func(format string, args ...any)
}

// maxCatalogTables bounds catalog registrations: the library's table
// sets hold at most 128 tables (tableset.MaxTables), and an
// unauthenticated endpoint must not allocate unbounded catalogs from a
// one-line request anyway.
const maxCatalogTables = 128

// Server is the HTTP handler of the optimization service. Create with
// New; safe for concurrent use.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sem   chan struct{} // admission semaphore; len(sem) is the in-flight gauge
	start time.Time

	// baseCtx parents every catalog's replication puller; Close cancels
	// it. draining and replaying feed /readyz.
	baseCtx   context.Context
	cancelAll context.CancelFunc
	draining  atomic.Bool
	replaying atomic.Bool

	served   atomic.Uint64
	rejected atomic.Uint64
	panics   atomic.Uint64
	// service is an EWMA of observed /optimize service time in
	// nanoseconds; it sizes the Retry-After hint on 429.
	service atomic.Int64
	// shedEvents counts cache-budget retention tightenings.
	shedEvents atomic.Uint64

	evMu sync.Mutex
	// quarantined records checkpoint files set aside as damaged during
	// LoadCheckpoint, surfaced in /stats.
	quarantined []api.QuarantineEvent

	// shedMu serializes cache-budget enforcement; concurrent requests
	// finding the store over budget must not all replay the prune.
	shedMu sync.Mutex

	mu       sync.RWMutex
	catalogs map[string]*catalogEntry
	nextID   uint64
}

// catalogEntry is one registered catalog with its long-lived session.
type catalogEntry struct {
	id       string
	name     string
	tables   int
	sess     *rmq.Session
	requests atomic.Uint64
	// instance is the catalog's incarnation id: random at registration,
	// stamped into every delta stream it serves. Replication cursors are
	// only meaningful against one instance, so a restart (new random id)
	// forces pullers into a clean full resync instead of letting stale
	// cursors silently skip history.
	instance uint64
	// repl is the background delta puller for catalogs registered with
	// replicate_from; nil otherwise.
	repl *replicator
	// spec is the registration: everything needed to rebuild the
	// catalog and session after a restart. Checkpoint persists it as the
	// catalog's manifest.
	spec api.CatalogRequest
}

// New builds a Server from the config, applying defaults for unset
// fields.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 500 * time.Millisecond
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.MaxParallelism <= 0 {
		cfg.MaxParallelism = max(8, 4*runtime.GOMAXPROCS(0))
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		start:    time.Now(),
		catalogs: make(map[string]*catalogEntry),
	}
	s.baseCtx, s.cancelAll = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /catalogs", s.handleRegisterCatalog)
	s.mux.HandleFunc("GET /catalogs", s.handleListCatalogs)
	s.mux.HandleFunc("DELETE /catalogs/{id}", s.handleDeleteCatalog)
	s.mux.HandleFunc("GET /catalogs/{id}/deltas", s.handleGetDeltas)
	s.mux.HandleFunc("POST /optimize", s.handleOptimize)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s
}

// ServeHTTP dispatches to the service's routes behind a panic-recovery
// boundary: a panicking handler fails its own request with a 500 and a
// JSON error body instead of killing the whole process, and the next
// request on the same server serves normally. http.ErrAbortHandler is
// re-panicked — it is net/http's own control flow for aborting a
// response, not a failure to report.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rw := &recoverableWriter{ResponseWriter: w}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		s.panics.Add(1)
		s.logf("panic serving %s %s: %v", r.Method, r.URL.Path, rec)
		if !rw.wrote {
			api.WriteError(w, http.StatusInternalServerError, "internal error: %v", rec)
		}
		// Headers already sent (e.g. mid-stream): the response ends
		// truncated; recovering here still keeps the process alive.
	}()
	s.mux.ServeHTTP(rw, r)
}

// recoverableWriter tracks whether the response was started, so the
// recovery boundary knows if a 500 can still be written, and preserves
// http.Flusher for the SSE streaming path.
type recoverableWriter struct {
	http.ResponseWriter
	wrote bool
}

func (rw *recoverableWriter) WriteHeader(code int) {
	rw.wrote = true
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *recoverableWriter) Write(b []byte) (int, error) {
	rw.wrote = true
	return rw.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does; a
// no-op otherwise (streaming then degrades to one buffered response
// rather than failing).
func (rw *recoverableWriter) Flush() {
	if fl, ok := rw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// InFlight returns the number of currently admitted /optimize requests.
func (s *Server) InFlight() int { return len(s.sem) }

// Capacity returns the admission cap: MaxInFlight after defaults.
func (s *Server) Capacity() int { return cap(s.sem) }

// observeService folds one /optimize service time into the EWMA behind
// the Retry-After hint (decay 1/8: a few requests dominate, history
// fades fast enough to track load shifts).
func (s *Server) observeService(d time.Duration) {
	for { //rmq:allow-loop(CAS retry loop, bounded by contention)
		old := s.service.Load()
		next := old + (int64(d)-old)/8
		if s.service.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterHint sizes a 429's Retry-After in whole seconds from the
// observed service-time EWMA scaled by the in-flight depth: the fuller
// the server, the longer a retry should wait for a slot to drain.
// Clamped to [1, 60] — always a positive integer, never an hour.
func (s *Server) retryAfterHint() int {
	ewma := time.Duration(s.service.Load())
	depth := float64(len(s.sem)) / float64(cap(s.sem))
	secs := int((time.Duration(float64(ewma)*depth) + time.Second - 1) / time.Second)
	return min(max(secs, 1), 60)
}

// entries snapshots the registered catalogs.
func (s *Server) entries() []*catalogEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*catalogEntry, 0, len(s.catalogs))
	for _, e := range s.catalogs {
		out = append(out, e)
	}
	return out
}

// cacheBytes estimates the retained memory of all catalogs' shared
// plan caches.
func (s *Server) cacheBytes() int64 {
	var total int64
	for _, e := range s.entries() {
		total += e.sess.CacheBytes()
	}
	return total
}

// enforceCacheBudget sheds plan-cache memory when the estimated total
// exceeds MaxCacheBytes: it tightens every catalog's effective cache
// retention in escalating steps (α 2, 4, … 64) until the estimate is
// back under budget. By the anytime contract each surviving cache is a
// valid coarser-α frontier set — the server degrades warm-start detail
// instead of growing until the OOM killer picks a victim. Runs after
// requests, off the request's critical path; concurrent callers
// coalesce onto one shedder. Steps a catalog has already reached are
// skipped (admission under the raised retention keeps its stores
// pruned), so a server pinned over budget at the α = 64 ceiling does
// no repeated sweeping — it has already shed everything this design
// allows.
func (s *Server) enforceCacheBudget() {
	if s.cfg.MaxCacheBytes <= 0 || s.cacheBytes() <= s.cfg.MaxCacheBytes {
		return
	}
	if !s.shedMu.TryLock() {
		return // a concurrent request is already shedding
	}
	defer s.shedMu.Unlock()
	for alpha := 2.0; alpha <= 64; alpha *= 2 {
		total := s.cacheBytes()
		if total <= s.cfg.MaxCacheBytes {
			return
		}
		removed, tightened := 0, false
		for _, e := range s.entries() {
			if alpha > e.sess.EffectiveRetention() {
				removed += e.sess.TightenCache(alpha)
				tightened = true
			}
		}
		if !tightened {
			continue
		}
		s.shedEvents.Add(1)
		s.logf("cache budget: %d bytes over %d, tightened retention to α = %v, dropped %d plans",
			total, s.cfg.MaxCacheBytes, alpha, removed)
	}
}

// recordQuarantine notes a damaged checkpoint file for /stats.
func (s *Server) recordQuarantine(file, reason string) {
	s.evMu.Lock()
	s.quarantined = append(s.quarantined, api.QuarantineEvent{File: file, Reason: reason})
	s.evMu.Unlock()
	s.logf("quarantined checkpoint file %s: %s", file, reason)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// --- helpers ---

func parseMetrics(names []string) ([]rmq.Metric, error) {
	out := make([]rmq.Metric, 0, len(names))
	for _, n := range names {
		switch strings.ToLower(n) {
		case "time":
			out = append(out, rmq.MetricTime)
		case "buffer":
			out = append(out, rmq.MetricBuffer)
		case "disc":
			out = append(out, rmq.MetricDisc)
		default:
			return nil, fmt.Errorf("unknown metric %q (want time, buffer or disc)", n)
		}
	}
	return out, nil
}

func metricNames(metrics []rmq.Metric) []string {
	out := make([]string, len(metrics))
	for i, m := range metrics {
		out[i] = m.String()
	}
	return out
}

// --- catalog handlers ---

func (s *Server) handleRegisterCatalog(w http.ResponseWriter, r *http.Request) {
	var req api.CatalogRequest
	if !api.DecodeBody(w, r, &req) {
		return
	}
	entry, err := s.register(&req, "", nil)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.logf("registered catalog %s (%q, %d tables)", entry.id, entry.name, entry.tables)
	api.WriteJSON(w, http.StatusCreated, entry.info())
}

// buildCatalog materializes the catalog a registration request
// describes (explicit tables or the workload generator). All errors are
// client errors.
func buildCatalog(req *api.CatalogRequest) (*rmq.Catalog, error) {
	switch {
	case req.Generate != nil && len(req.Tables) > 0:
		return nil, fmt.Errorf("give either tables or generate, not both")
	case req.Generate != nil:
		spec := rmq.WorkloadSpec{Tables: req.Generate.Tables}
		var err error
		if spec.Graph, err = rmq.ParseGraph(req.Generate.Graph); err != nil {
			return nil, err
		}
		if spec.Selectivity, err = rmq.ParseSelectivity(req.Generate.Selectivity); err != nil {
			return nil, err
		}
		if spec.Tables < 1 || spec.Tables > maxCatalogTables {
			return nil, fmt.Errorf("generate.tables must be in [1, %d]", maxCatalogTables)
		}
		return rmq.GenerateCatalog(spec, req.Generate.Seed), nil
	case len(req.Tables) > maxCatalogTables:
		return nil, fmt.Errorf("%d tables exceeds the limit %d", len(req.Tables), maxCatalogTables)
	case len(req.Tables) > 0:
		tables := make([]rmq.Table, len(req.Tables))
		for i, t := range req.Tables {
			tables[i] = rmq.Table{Name: t.Name, Rows: t.Rows}
		}
		edges := make([]rmq.Edge, len(req.Edges))
		for i, e := range req.Edges {
			edges[i] = rmq.Edge{A: e.A, B: e.B, Selectivity: e.Selectivity}
		}
		return rmq.NewCatalog(tables, edges)
	default:
		return nil, fmt.Errorf("catalog request needs tables or generate")
	}
}

// register builds the catalog and session for a registration request,
// optionally warm-starts the session from snap (a checkpointed
// generation), and installs the entry.
// id pins the catalog id (checkpoint reloads reuse the persisted ids);
// empty allocates the next one. It is the single registration path for
// live requests and LoadCheckpoint.
func (s *Server) register(req *api.CatalogRequest, id string, snap []byte) (*catalogEntry, error) {
	cat, err := buildCatalog(req)
	if err != nil {
		return nil, err
	}
	if err := s.validateReplicateFrom(req.ReplicateFrom); err != nil {
		return nil, err
	}
	// The catalog's retention: the registration's, exact when absent.
	// Fixed here for the catalog's lifetime, and declared on the session
	// so a checkpoint or a peer's deltas taken at another α are refused;
	// /stats reports it as effective_retention until budget shedding
	// coarsens it.
	retention := req.Retention
	if retention == 0 {
		retention = 1
	}
	sess, err := rmq.NewSession(cat, rmq.WithSharedCache(true), rmq.WithCacheRetention(retention))
	if err != nil {
		return nil, err
	}
	if len(snap) > 0 {
		if err := sess.Restore(snap); err != nil {
			return nil, fmt.Errorf("restoring snapshot: %w", err)
		}
	}

	entry := &catalogEntry{
		name:     req.Name,
		tables:   cat.NumTables(),
		sess:     sess,
		instance: newInstance(),
		spec:     *req,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == "" {
		s.nextID++
		id = "c" + strconv.FormatUint(s.nextID, 10)
	} else if s.catalogs[id] != nil {
		return nil, fmt.Errorf("catalog %q already registered", id)
	}
	entry.id = id
	s.catalogs[entry.id] = entry
	if len(req.ReplicateFrom) > 0 {
		// Deliberately after install and with no liveness check: a
		// replica with every peer down is a degraded catalog that keeps
		// trying, not a failed registration.
		s.startReplicator(entry, req.ReplicateFrom)
	}
	return entry, nil
}

func (e *catalogEntry) info() api.CatalogInfo {
	return api.CatalogInfo{ID: e.id, Name: e.name, Tables: e.tables}
}

func (s *Server) handleListCatalogs(w http.ResponseWriter, r *http.Request) {
	entries := s.entries()
	out := make([]api.CatalogInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.info())
	}
	api.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleDeleteCatalog(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e, ok := s.catalogs[id]
	delete(s.catalogs, id)
	s.mu.Unlock()
	if !ok {
		api.WriteError(w, http.StatusNotFound, "unknown catalog %q", id)
		return
	}
	if e.repl != nil {
		e.repl.stop()
	}
	// In-flight requests holding the entry finish normally; sessions
	// are concurrency-safe and simply become collectable afterwards.
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) catalog(id string) *catalogEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.catalogs[id]
}

// --- health and stats ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": float64(time.Since(s.start)) / float64(time.Millisecond),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	entries := s.entries()
	resp := api.StatsResponse{
		UptimeMS:      float64(time.Since(s.start)) / float64(time.Millisecond),
		InFlight:      s.InFlight(),
		Capacity:      s.Capacity(),
		Served:        s.served.Load(),
		Rejected:      s.rejected.Load(),
		Panics:        s.panics.Load(),
		MaxCacheBytes: s.cfg.MaxCacheBytes,
		ShedEvents:    s.shedEvents.Load(),
		Catalogs:      make([]api.CatalogStats, 0, len(entries)),
	}
	s.evMu.Lock()
	if len(s.quarantined) > 0 {
		resp.Quarantined = append([]api.QuarantineEvent(nil), s.quarantined...)
	}
	s.evMu.Unlock()
	if faultinject.Enabled() {
		resp.Faults = faultinject.Stats()
	}
	for _, e := range entries {
		cs := e.sess.CacheStats()
		ps := e.sess.PoolStats()
		resp.CacheBytes += cs.Bytes
		st := api.CatalogStats{
			CatalogInfo: e.info(),
			Requests:    e.requests.Load(),
			Cache: api.CacheStatsJSON{
				Sets: cs.Sets, Plans: cs.Plans, Bytes: cs.Bytes, IDs: cs.IDs,
			},
			EffectiveRetention: e.sess.EffectiveRetention(),
			Pool: api.PoolStatsJSON{
				Pooled: ps.Pooled, HighWater: ps.HighWater,
				Dropped: ps.Dropped,
			},
		}
		if e.repl != nil {
			st.Replication = e.repl.stats()
		}
		resp.Catalogs = append(resp.Catalogs, st)
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// errStatus maps an rmq.Optimize error to an HTTP status: a contained
// worker panic or injected fault is a server-side failure (500) — the
// request failed, the process and its caches did not — and every other
// library error is a request problem.
func errStatus(err error) int {
	if errors.Is(err, rmq.ErrWorkerPanic) || faultinject.IsInjected(err) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}
