package cluster

// The routing tier. rmqrouter owns the cluster-level catalog
// namespace: a registration hashes onto the ring, lands on a replica
// set of Replication nodes (primary first), and the replicas register
// with replicate_from pointing at the primary so cache deltas flow
// continuously. Queries go through one forwarding loop with one rule:
// a live node's reply is an answer and passes through untouched (a
// frontier, a 429 with its Retry-After, a refused request); only a
// failed node moves the request on — a transport error or a 5xx fails
// over, and a 404 (the node lost the catalog) drops the replica, then
// fails over. A repair loop re-grows placements whose ready-replica
// count fell below the replication factor — the node that died stays
// listed (it may come back warm), but a spare ready node is seeded from
// the survivors so the catalog is N-way replicated again.
//
// Registration is deliberately optimistic: a placement that could only
// reach one node still registers (degraded, logged, repairable) —
// a cluster mid-incident must keep accepting work it can serve, and
// the anytime contract makes a single cold replica a slower answer,
// not a wrong one.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rmq/client"
	"rmq/internal/api"
	"rmq/internal/faultinject"
)

// Config parameterizes a Router.
type Config struct {
	// Nodes are the rmqd base URLs forming the cluster.
	Nodes []string
	// Replication is the replica count per catalog. Default 2, capped
	// at the node count.
	Replication int
	// Health parameterizes the node prober.
	Health HealthConfig
	// RepairInterval is how often degraded placements are re-grown.
	// Default 2s.
	RepairInterval time.Duration
	// Logf, when non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
}

// Router is the HTTP handler of the routing tier. Create with
// NewRouter, start background work with Start; safe for concurrent
// use.
type Router struct {
	cfg    Config
	rf     int
	ring   *Ring
	prober *Prober
	mux    *http.ServeMux
	// httpc carries forwarded requests and the node clients' calls
	// through the injectable transport (site router.forward). No timeout:
	// forwarded optimizations are bounded by their own deadlines and the
	// caller's context.
	httpc *http.Client
	// nodes holds one client per node over httpc, without retries: for
	// registration, delete and repair the router's own loops move on to
	// the next node instead.
	nodes map[string]*client.Client

	forwards    atomic.Uint64
	failovers   atomic.Uint64
	routeErrors atomic.Uint64
	repairs     atomic.Uint64

	mu         sync.Mutex
	placements map[string]*placement
	nextID     uint64
}

// placement is one cluster-level catalog: its spec (the registration,
// retention included, which every replica registers with) and the
// replicas holding it.
type placement struct {
	id   string
	name string
	spec api.CatalogRequest

	mu       sync.Mutex
	replicas []replicaRef // [0] is the original primary
}

type replicaRef struct {
	node    string // node base URL
	localID string // the catalog id on that node
}

// RouterStats is the router's GET /stats payload.
type RouterStats struct {
	Nodes      []NodeStatus      `json:"nodes"`
	Placements []PlacementStatus `json:"placements"`
	// Forwards counts routed optimizations; Failovers how many replica
	// attempts failed and moved on; RouteErrors requests that exhausted
	// every replica; Repairs replicas re-grown by the repair loop.
	Forwards    uint64 `json:"forwards"`
	Failovers   uint64 `json:"failovers"`
	RouteErrors uint64 `json:"route_errors,omitempty"`
	Repairs     uint64 `json:"repairs,omitempty"`
	// Degraded counts placements with fewer ready replicas than the
	// replication factor.
	Degraded int `json:"degraded"`
}

// PlacementStatus is one catalog's placement row in /stats.
type PlacementStatus struct {
	ID       string          `json:"id"`
	Name     string          `json:"name,omitempty"`
	Replicas []ReplicaStatus `json:"replicas"`
	Degraded bool            `json:"degraded"`
}

// ReplicaStatus is one replica of a placement.
type ReplicaStatus struct {
	Node    string `json:"node"`
	LocalID string `json:"local_id"`
	Ready   bool   `json:"ready"`
}

// NewRouter builds the routing tier over a fixed node set.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	rf := cfg.Replication
	if rf <= 0 {
		rf = 2
	}
	rf = min(rf, len(cfg.Nodes))
	if cfg.RepairInterval <= 0 {
		cfg.RepairInterval = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	rt := &Router{
		cfg:    cfg,
		rf:     rf,
		ring:   NewRing(cfg.Nodes, 0),
		prober: NewProber(cfg.Nodes, cfg.Health, cfg.Logf),
		mux:    http.NewServeMux(),
		httpc: &http.Client{
			Transport: faultinject.Transport("router.forward", nil),
		},
		nodes:      make(map[string]*client.Client, len(cfg.Nodes)),
		placements: make(map[string]*placement),
	}
	for _, node := range cfg.Nodes {
		rt.nodes[node] = &client.Client{Base: node, HTTP: rt.httpc, MaxRetries: -1}
	}
	rt.mux.HandleFunc("POST /catalogs", rt.handleRegister)
	rt.mux.HandleFunc("GET /catalogs", rt.handleList)
	rt.mux.HandleFunc("DELETE /catalogs/{id}", rt.handleDelete)
	rt.mux.HandleFunc("POST /optimize", rt.handleOptimize)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /stats", rt.handleStats)
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Start launches the health prober and the repair loop; they stop when
// ctx ends. The first probe round completes before Start returns, so a
// freshly started router already knows which nodes are ready.
func (rt *Router) Start(ctx context.Context) {
	rt.prober.ProbeOnce(ctx)
	go rt.prober.Run(ctx)
	go rt.repairLoop(ctx)
}

// ProbeNow runs one synchronous probe round — deterministic health
// refresh for tests and for Start.
func (rt *Router) ProbeNow(ctx context.Context) {
	rt.prober.ProbeOnce(ctx)
}

// --- registration ---

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req api.CatalogRequest
	if !api.DecodeBody(w, r, &req) {
		return
	}
	if len(req.ReplicateFrom) > 0 {
		api.WriteError(w, http.StatusBadRequest, "replicate_from is owned by the router; register plain catalogs")
		return
	}
	rt.mu.Lock()
	rt.nextID++
	id := "r" + strconv.FormatUint(rt.nextID, 10)
	rt.mu.Unlock()

	want := rt.ring.PickN(id, rt.rf)

	// Primary: the first candidate that accepts the registration. A 4xx
	// is the caller's error — every node would refuse the same spec — so
	// it passes through; only a failed node moves on to the next
	// candidate.
	var primary replicaRef
	var primaryInfo api.CatalogInfo
	var lastErr error
	for _, node := range readyFirst(rt.prober, want, func(n string) string { return n }) {
		info, err := rt.nodes[node].Register(r.Context(), req)
		var refused *client.StatusError
		if errors.As(err, &refused) && refused.Status < 500 {
			api.WriteError(w, refused.Status, "%s", refused.Message)
			return
		}
		if err != nil {
			lastErr = fmt.Errorf("%s: %w", node, err)
			rt.cfg.Logf("register %s: primary candidate %s failed: %v", id, node, err)
			continue
		}
		primary = replicaRef{node: node, localID: info.ID}
		primaryInfo = info
		break
	}
	if primary.node == "" {
		rt.routeErrors.Add(1)
		api.WriteError(w, http.StatusServiceUnavailable, "no node accepted the registration: %v", lastErr)
		return
	}

	p := &placement{id: id, name: req.Name, spec: req, replicas: []replicaRef{primary}}
	// Replicas: same spec, cold, continuously pulling from the primary.
	// A refused or unreachable replica degrades the placement instead
	// of failing the registration; the repair loop re-grows it.
	replicaReq := p.spec
	replicaReq.ReplicateFrom = []string{catalogURL(primary)}
	for _, node := range want {
		if len(p.replicas) >= rt.rf {
			break
		}
		if node == primary.node {
			continue
		}
		if !rt.prober.Ready(node) {
			rt.cfg.Logf("register %s: replica node %s not ready, placement degraded", id, node)
			continue
		}
		info, err := rt.nodes[node].Register(r.Context(), replicaReq)
		if err != nil {
			rt.cfg.Logf("register %s: replica on %s failed: %v", id, node, err)
			continue
		}
		p.replicas = append(p.replicas, replicaRef{node: node, localID: info.ID})
	}
	rt.mu.Lock()
	rt.placements[id] = p
	rt.mu.Unlock()
	rt.cfg.Logf("registered catalog %s (%q) on %d/%d replicas, primary %s",
		id, req.Name, len(p.replicas), rt.rf, primary.node)

	info := primaryInfo
	info.ID = id
	api.WriteJSON(w, http.StatusCreated, info)
}

// catalogURL is the peer-visible URL of a replica's catalog.
func catalogURL(ref replicaRef) string {
	return ref.node + "/catalogs/" + ref.localID
}

// readyFirst orders items with those on ready nodes in front,
// preserving relative order within each group: a registration's
// primary lands on a node that can serve now whenever one exists, and
// a request tries ready replicas (primary first among them) before the
// rest. The rest stay as a last resort — hysteresis can lag a
// recovery, and a request with no better option should try rather
// than fail.
func readyFirst[T any](prober *Prober, items []T, node func(T) string) []T {
	var ready, rest []T
	for _, it := range items {
		if prober.Ready(node(it)) {
			ready = append(ready, it)
		} else {
			rest = append(rest, it)
		}
	}
	return append(ready, rest...)
}

// --- forwarding ---

func (rt *Router) placement(id string) *placement {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.placements[id]
}

// refs snapshots the placement's replicas, primary first.
func (p *placement) refs() []replicaRef {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]replicaRef(nil), p.replicas...)
}

// dropReplica removes a replica that provably no longer holds the
// catalog (the node answered 404: a restart lost its registration).
// The repair loop re-grows the placement.
func (rt *Router) dropReplica(p *placement, ref replicaRef) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, r := range p.replicas {
		if r == ref {
			p.replicas = append(p.replicas[:i], p.replicas[i+1:]...)
			rt.cfg.Logf("placement %s: replica %s dropped (catalog gone)", p.id, ref.node)
			return
		}
	}
}

func (rt *Router) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req api.OptimizeRequest
	if !api.DecodeBody(w, r, &req) {
		return
	}
	p := rt.placement(req.Catalog)
	if p == nil {
		api.WriteError(w, http.StatusNotFound, "unknown catalog %q", req.Catalog)
		return
	}
	rt.forward(w, r, p, req)
}

// forward sends an optimization to the placement's replicas, ready ones
// first, each under its local catalog id, and passes the first live
// answer through: 2xx, 429 with its Retry-After, and other 4xx are a
// node's reply, not a node's failure. A transport error or a 5xx fails
// over to the next replica; a 404 means the node restarted without
// persistence and lost the catalog, so the replica is dropped (the
// repair loop re-grows the placement) and the request fails over.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, p *placement, opt api.OptimizeRequest) {
	rt.forwards.Add(1)
	lastErr := errors.New("no replicas left")
	for _, ref := range readyFirst(rt.prober, p.refs(), func(ref replicaRef) string { return ref.node }) {
		opt.Catalog = ref.localID
		body, err := json.Marshal(opt)
		if err != nil {
			api.WriteError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, ref.node+"/optimize", bytes.NewReader(body))
		if err != nil {
			api.WriteError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.httpc.Do(req)
		switch {
		case err != nil:
			if r.Context().Err() != nil {
				return // caller gone; nothing to answer
			}
			lastErr = err
		case resp.StatusCode == http.StatusNotFound:
			drainClose(resp)
			rt.dropReplica(p, ref)
			lastErr = fmt.Errorf("%s lost the catalog", ref.node)
		case resp.StatusCode >= 500:
			data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10)) // best effort: the status already fails over
			resp.Body.Close()
			lastErr = fmt.Errorf("%s answered %d: %s", ref.node, resp.StatusCode, api.ErrorMessage(data))
		default:
			copyResponse(w, resp)
			return
		}
		rt.failovers.Add(1)
	}
	rt.routeErrors.Add(1)
	api.WriteError(w, http.StatusServiceUnavailable, "no replica of %q reachable: %v", p.id, lastErr)
}

func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	p := rt.placements[id]
	delete(rt.placements, id)
	rt.mu.Unlock()
	if p == nil {
		api.WriteError(w, http.StatusNotFound, "unknown catalog %q", id)
		return
	}
	// Best effort on every replica: a down node cannot resurrect the
	// catalog later (nodes do not gossip), so a failed delete only
	// leaks a local session until that node restarts.
	for _, ref := range p.refs() {
		_ = rt.nodes[ref.node].Delete(r.Context(), ref.localID)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	ps := rt.allPlacements()
	out := make([]api.CatalogInfo, 0, len(ps))
	for _, p := range ps {
		out = append(out, api.CatalogInfo{ID: p.id, Name: p.name})
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// allPlacements snapshots the registered placements.
func (rt *Router) allPlacements() []*placement {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return slices.Collect(maps.Values(rt.placements))
}

// --- repair ---

func (rt *Router) repairLoop(ctx context.Context) {
	t := time.NewTicker(rt.cfg.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.RepairOnce(ctx)
		}
	}
}

// RepairOnce re-grows every placement whose ready-replica count fell
// below the replication factor, seeding new replicas from the
// surviving ones. Exported for deterministic tests; the repair loop
// calls it on a timer.
func (rt *Router) RepairOnce(ctx context.Context) {
	for _, p := range rt.allPlacements() {
		if ctx.Err() != nil {
			return
		}
		rt.repairPlacement(ctx, p)
	}
}

func (rt *Router) repairPlacement(ctx context.Context, p *placement) {
	p.mu.Lock()
	member := make(map[string]bool, len(p.replicas))
	ready := 0
	sources := make([]string, 0, len(p.replicas))
	for _, ref := range p.replicas {
		member[ref.node] = true
		if rt.prober.Ready(ref.node) {
			ready++
			sources = append(sources, catalogURL(ref))
		}
	}
	p.mu.Unlock()
	if ready >= rt.rf || len(sources) == 0 {
		// Either healthy, or nothing alive to seed a new replica from —
		// if the whole placement is down there is no state to copy and
		// nothing useful to register.
		return
	}
	req := p.spec
	req.ReplicateFrom = sources
	for _, node := range rt.ring.PickN(p.id, len(rt.cfg.Nodes)) {
		if ready >= rt.rf {
			return
		}
		if member[node] || !rt.prober.Ready(node) {
			continue
		}
		info, err := rt.nodes[node].Register(ctx, req)
		if err != nil {
			rt.cfg.Logf("repair %s: node %s refused: %v", p.id, node, err)
			continue
		}
		p.mu.Lock()
		p.replicas = append(p.replicas, replicaRef{node: node, localID: info.ID})
		p.mu.Unlock()
		ready++
		rt.repairs.Add(1)
		rt.cfg.Logf("repair %s: new replica on %s (seeded from %d survivors)", p.id, node, len(sources))
	}
}

// --- health and stats ---

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz: the router can do useful work once it has probed the
// cluster at least once and some node is ready to take traffic.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	switch {
	case rt.prober.Rounds() == 0:
		reasons = []string{"no probe round completed"}
	case !slices.ContainsFunc(rt.cfg.Nodes, rt.prober.Ready):
		reasons = []string{"no backend node is ready"}
	}
	api.WriteReady(w, reasons)
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	ps := rt.allPlacements()
	stats := RouterStats{
		Nodes:       rt.prober.Status(),
		Placements:  make([]PlacementStatus, 0, len(ps)),
		Forwards:    rt.forwards.Load(),
		Failovers:   rt.failovers.Load(),
		RouteErrors: rt.routeErrors.Load(),
		Repairs:     rt.repairs.Load(),
	}
	for _, p := range ps {
		p.mu.Lock()
		row := PlacementStatus{ID: p.id, Name: p.name, Replicas: make([]ReplicaStatus, 0, len(p.replicas))}
		ready := 0
		for _, ref := range p.replicas {
			up := rt.prober.Ready(ref.node)
			if up {
				ready++
			}
			row.Replicas = append(row.Replicas, ReplicaStatus{Node: ref.node, LocalID: ref.localID, Ready: up})
		}
		p.mu.Unlock()
		row.Degraded = ready < rt.rf
		if row.Degraded {
			stats.Degraded++
		}
		stats.Placements = append(stats.Placements, row)
	}
	api.WriteJSON(w, http.StatusOK, stats)
}

// --- small helpers ---

// copyResponse streams a backend response through: status, the headers
// that matter (Content-Type, Retry-After, Content-Length), then the
// body with per-chunk flushes so SSE progress events pass through
// unbuffered.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "Content-Length", "Cache-Control"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	fw := io.Writer(w)
	if fl, ok := w.(http.Flusher); ok {
		fw = flushWriter{w: w, fl: fl}
	}
	_, _ = io.Copy(fw, resp.Body)
}

type flushWriter struct {
	w  io.Writer
	fl http.Flusher
}

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	f.fl.Flush()
	return n, err
}

func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
}
