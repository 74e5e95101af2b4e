package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rmq/internal/api"
	"rmq/internal/server"
)

const genCatalog = `{"generate":{"tables":10,"graph":"chain","seed":4}}`

// testCluster is a router over real rmqd nodes.
type testCluster struct {
	rt    *Router
	rts   *httptest.Server
	nodes map[string]*httptest.Server // node base URL -> backend
	urls  []string
}

func newTestCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{nodes: make(map[string]*httptest.Server, n)}
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(server.New(server.Config{
			AllowSnapshotFetch: true,
			ReplicateInterval:  20 * time.Millisecond,
		}))
		t.Cleanup(ts.Close)
		tc.nodes[ts.URL] = ts
		tc.urls = append(tc.urls, ts.URL)
	}
	cfg.Nodes = tc.urls
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.rt = rt
	tc.rts = httptest.NewServer(rt)
	t.Cleanup(tc.rts.Close)
	rt.ProbeNow(context.Background())
	return tc
}

func postJSON(t *testing.T, base, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

// nodePlans reads one catalog's cached plan count straight off a node.
func nodePlans(t *testing.T, node, localID string) int {
	t.Helper()
	resp, err := http.Get(node + "/stats")
	if err != nil {
		return 0 // node may be dead mid-test
	}
	defer resp.Body.Close()
	var stats api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, c := range stats.Catalogs {
		if c.ID == localID {
			return c.Cache.Plans
		}
	}
	return 0
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("condition not met within %v; goroutines:\n%s", timeout, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The tentpole end-to-end: register through the router, watch the
// replica warm via delta replication, kill the primary mid-run, and
// see the query fail over and the repair loop re-grow the placement.
func TestRouterClusterFailoverAndRepair(t *testing.T) {
	tc := newTestCluster(t, 3, Config{Replication: 2})

	var info api.CatalogInfo
	if code := postJSON(t, tc.rts.URL, "/catalogs", genCatalog, &info); code != http.StatusCreated {
		t.Fatalf("register via router: status %d", code)
	}
	p := tc.rt.placement(info.ID)
	if p == nil || len(p.replicas) != 2 {
		t.Fatalf("placement %+v, want 2 replicas", p)
	}
	primary, replica := p.replicas[0], p.replicas[1]
	if primary.node == replica.node {
		t.Fatal("both replicas on one node")
	}

	var resp api.OptimizeResponse
	body := fmt.Sprintf(`{"catalog":%q,"max_iterations":300,"seed":7}`, info.ID)
	if code := postJSON(t, tc.rts.URL, "/optimize", body, &resp); code != http.StatusOK {
		t.Fatalf("optimize via router: status %d", code)
	}
	if len(resp.Plans) == 0 {
		t.Fatal("no plans through the router")
	}

	// The replica warms from the primary without ever being queried.
	warmed := nodePlans(t, primary.node, primary.localID)
	if warmed == 0 {
		t.Fatal("primary has no cached plans after optimizing")
	}
	waitFor(t, 10*time.Second, func() bool {
		return nodePlans(t, replica.node, replica.localID) >= warmed
	})

	// Kill the primary. The prober has not noticed yet — the very next
	// query must still succeed by failing over mid-request.
	tc.nodes[primary.node].CloseClientConnections()
	tc.nodes[primary.node].Close()
	if code := postJSON(t, tc.rts.URL, "/optimize", body, &resp); code != http.StatusOK {
		t.Fatalf("optimize after primary death: status %d", code)
	}
	if got := tc.rt.failovers.Load(); got == 0 {
		t.Fatal("failover not counted after primary death")
	}

	// Two probe rounds demote the dead node (downAfter = 2); the
	// repair loop then re-grows the placement onto the third node,
	// seeded from the survivor.
	tc.rt.ProbeNow(context.Background())
	tc.rt.ProbeNow(context.Background())
	if tc.rt.prober.Ready(primary.node) {
		t.Fatal("dead primary still ready after two probe rounds")
	}
	tc.rt.RepairOnce(context.Background())
	p.mu.Lock()
	nreplicas := len(p.replicas)
	var joined replicaRef
	for _, ref := range p.replicas {
		if ref.node != primary.node && ref.node != replica.node {
			joined = ref
		}
	}
	p.mu.Unlock()
	if nreplicas != 3 || joined.node == "" {
		t.Fatalf("placement holds %d replicas after repair, want the third node joined", nreplicas)
	}
	if tc.rt.repairs.Load() == 0 {
		t.Fatal("repair not counted")
	}
	// The joiner converges from the surviving replica via delta pulls.
	waitFor(t, 10*time.Second, func() bool {
		return nodePlans(t, joined.node, joined.localID) > 0
	})

	// Router /stats tells the story: a demoted node, a failover, a repair.
	var stats RouterStats
	getStats := func() {
		t.Helper()
		resp, err := http.Get(tc.rts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
	}
	getStats()
	if stats.Failovers == 0 || stats.Repairs == 0 || stats.Forwards < 2 {
		t.Fatalf("router stats %+v, want failovers, repairs and forwards recorded", stats)
	}
	ready := 0
	for _, n := range stats.Nodes {
		if n.Ready {
			ready++
		}
	}
	if ready != 2 {
		t.Fatalf("%d nodes ready in stats, want 2 of 3", ready)
	}
}

// --- stub-backed tests for wire behavior ---

// stubNode mimics just enough of rmqd for routing-layer tests; its
// optimize behavior is switchable at runtime.
type stubNode struct {
	ts         *httptest.Server
	mode       atomic.Int32 // 0 = 200 ok, 1 = 404 catalog gone, 2 = 429 backpressure, 3 = 500 failure
	registered atomic.Int32
	optimized  atomic.Int32
}

func newStubNode(t *testing.T) *stubNode {
	t.Helper()
	s := &stubNode{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("POST /catalogs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"id":"c%d","tables":10}`, s.registered.Add(1))
	})
	mux.HandleFunc("DELETE /catalogs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /optimize", func(w http.ResponseWriter, r *http.Request) {
		s.optimized.Add(1)
		switch s.mode.Load() {
		case 1:
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown catalog"}`)
		case 2:
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"at capacity"}`)
		case 3:
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"worker panic"}`)
		default:
			fmt.Fprint(w, `{"plans":[{"costs":[1,2]}],"iterations":1}`)
		}
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func stubRouter(t *testing.T, rf int, stubs ...*stubNode) (*Router, *httptest.Server) {
	t.Helper()
	nodes := make([]string, len(stubs))
	for i, s := range stubs {
		nodes[i] = s.ts.URL
	}
	rt, err := NewRouter(Config{Nodes: nodes, Replication: rf, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow(context.Background())
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)
	return rt, rts
}

// Backpressure from a live node is an answer: 429 and its Retry-After
// pass through the router untouched, and nothing fails over.
func TestRouter429PassesThroughWithRetryAfter(t *testing.T) {
	stub := newStubNode(t)
	rt, rts := stubRouter(t, 1, stub)
	var info api.CatalogInfo
	if code := postJSON(t, rts.URL, "/catalogs", genCatalog, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	stub.mode.Store(2)
	resp, err := http.Post(rts.URL+"/optimize", "application/json",
		strings.NewReader(fmt.Sprintf(`{"catalog":%q}`, info.ID)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 passed through", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After %q, want %q propagated from the backend", got, "3")
	}
	if rt.failovers.Load() != 0 {
		t.Fatal("429 triggered a failover; backpressure is not node failure")
	}
}

// A 404 from a live node means a restart lost the catalog: the replica
// is dropped from the placement and the request fails over.
func TestRouterDropsReplicaThatLostCatalog(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	rt, rts := stubRouter(t, 2, a, b)
	var info api.CatalogInfo
	if code := postJSON(t, rts.URL, "/catalogs", genCatalog, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	p := rt.placement(info.ID)
	if len(p.replicas) != 2 {
		t.Fatalf("placement %+v, want 2 replicas", p.replicas)
	}
	// Whichever stub is primary forgets its catalogs.
	primaryStub := a
	if p.replicas[0].node == b.ts.URL {
		primaryStub = b
	}
	primaryStub.mode.Store(1)

	var resp api.OptimizeResponse
	if code := postJSON(t, rts.URL, "/optimize", fmt.Sprintf(`{"catalog":%q}`, info.ID), &resp); code != http.StatusOK {
		t.Fatalf("optimize: status %d, want failover past the amnesiac node", code)
	}
	p.mu.Lock()
	left := len(p.replicas)
	p.mu.Unlock()
	if left != 1 {
		t.Fatalf("%d replicas left, want the amnesiac one dropped", left)
	}
	if rt.failovers.Load() == 0 {
		t.Fatal("failover not counted")
	}

	// With both stubs refusing, the router answers 503 and counts a
	// route error rather than hanging or lying.
	a.mode.Store(1)
	b.mode.Store(1)
	var e api.ErrorResponse
	if code := postJSON(t, rts.URL, "/optimize", fmt.Sprintf(`{"catalog":%q}`, info.ID), &e); code != http.StatusServiceUnavailable ||
		!strings.Contains(e.Error, "lost the catalog") {
		t.Fatalf("all replicas gone: status %d (%s), want 503 naming the lost catalog", code, e.Error)
	}
	if rt.routeErrors.Load() == 0 {
		t.Fatal("route error not counted")
	}
}

// A 5xx is a failed node: the request fails over to the next replica,
// the failover is counted, and the replica stays in the placement (the
// node may recover; only a 404 proves the catalog gone).
func TestRouter5xxFailsOverWithoutDropping(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	rt, rts := stubRouter(t, 2, a, b)
	var info api.CatalogInfo
	if code := postJSON(t, rts.URL, "/catalogs", genCatalog, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	p := rt.placement(info.ID)
	primaryStub, otherStub := a, b
	if p.replicas[0].node == b.ts.URL {
		primaryStub, otherStub = b, a
	}
	primaryStub.mode.Store(3)

	if code := postJSON(t, rts.URL, "/optimize", fmt.Sprintf(`{"catalog":%q}`, info.ID), nil); code != http.StatusOK {
		t.Fatalf("optimize: status %d, want the other replica's answer", code)
	}
	if otherStub.optimized.Load() != 1 {
		t.Fatalf("other replica served %d requests, want 1", otherStub.optimized.Load())
	}
	if rt.failovers.Load() == 0 {
		t.Fatal("failover not counted")
	}
	p.mu.Lock()
	left := len(p.replicas)
	p.mu.Unlock()
	if left != 2 {
		t.Fatalf("%d replicas left, want both kept: a 5xx is not a lost catalog", left)
	}
}

// Streamed optimization passes through the router unbuffered: the
// first progress event reaches the caller while the node is still
// running the optimization, and the stream ends with the result. One
// metric and three progress events keep the whole stream under the
// 512 bytes net/http buffers before its first write, so a router that
// did not flush per chunk would deliver nothing until the run ended.
func TestRouterStreamsProgress(t *testing.T) {
	tc := newTestCluster(t, 2, Config{Replication: 2})
	var info api.CatalogInfo
	if code := postJSON(t, tc.rts.URL, "/catalogs", genCatalog, &info); code != http.StatusCreated {
		t.Fatalf("register via router: status %d", code)
	}
	resp, err := http.Post(tc.rts.URL+"/optimize", "application/json",
		strings.NewReader(fmt.Sprintf(`{"catalog":%q,"stream":true,"max_iterations":3000,"progress_every":1000,"metrics":["time"],"seed":3}`, info.ID)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	inFlight := func() int {
		n := 0
		for _, node := range tc.urls {
			r, err := http.Get(node + "/stats")
			if err != nil {
				t.Fatal(err)
			}
			var stats api.StatsResponse
			err = json.NewDecoder(r.Body).Decode(&stats)
			r.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			n += stats.InFlight
		}
		return n
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var events []string
	for sc.Scan() {
		ev, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		if len(events) == 0 {
			if ev != "progress" {
				t.Fatalf("first event %q, want progress", ev)
			}
			if n := inFlight(); n != 1 {
				t.Fatalf("first progress event arrived with %d optimizations in flight, want 1: the stream was buffered", n)
			}
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 || events[len(events)-1] != "result" {
		t.Fatalf("events %v, want progress events then a final result", events)
	}
}

// A registration the spec itself makes invalid is the caller's error:
// the first node's 400 passes through with its message, and no further
// node is tried.
func TestRouterRegisterPassesThroughClientErrors(t *testing.T) {
	var registrations atomic.Int32
	var nodes []string
	for i := 0; i < 2; i++ {
		node := server.New(server.Config{AllowSnapshotFetch: true})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/catalogs" {
				registrations.Add(1)
			}
			node.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		nodes = append(nodes, ts.URL)
	}
	rt, err := NewRouter(Config{Nodes: nodes, Replication: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow(context.Background())
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)

	var er api.ErrorResponse
	if code := postJSON(t, rts.URL, "/catalogs", `{"generate":{"tables":0}}`, &er); code != http.StatusBadRequest {
		t.Fatalf("invalid registration: status %d (%q), want the node's 400", code, er.Error)
	}
	if !strings.Contains(er.Error, "generate.tables must be in [1, 128]") {
		t.Fatalf("error %q, want the node's message", er.Error)
	}
	if n := registrations.Load(); n != 1 {
		t.Fatalf("%d nodes tried, want 1: every node refuses the same spec", n)
	}
	if rt.routeErrors.Load() != 0 || len(rt.allPlacements()) != 0 {
		t.Fatal("a refused registration counted as a route error or left a placement")
	}
}

func TestRouterRejectsClientReplicateFrom(t *testing.T) {
	stub := newStubNode(t)
	_, rts := stubRouter(t, 1, stub)
	body := `{"generate":{"tables":4,"graph":"chain","seed":1},"replicate_from":["http://x/catalogs/c1"]}`
	if code := postJSON(t, rts.URL, "/catalogs", body, nil); code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: replication topology is router-owned", code)
	}
}

// The router serves no snapshot route and refuses the registration
// fields rmqd dropped: a replica's warm state comes from replicate_from
// alone, and every catalog shares its plan cache.
func TestRouterRefusesSnapshotSurface(t *testing.T) {
	stub := newStubNode(t)
	_, rts := stubRouter(t, 1, stub)
	for field, body := range map[string]string{
		"snapshot":     `{"generate":{"tables":4},"snapshot":"cm1xLXNuYXA="}`,
		"shared_cache": `{"generate":{"tables":4},"shared_cache":false}`,
	} {
		var e api.ErrorResponse
		if code := postJSON(t, rts.URL, "/catalogs", body, &e); code != http.StatusBadRequest || !strings.Contains(e.Error, `"`+field+`"`) {
			t.Errorf("%s: status %d (%s), want 400 naming the field", field, code, e.Error)
		}
	}
	if n := stub.registered.Load(); n != 0 {
		t.Fatalf("refused registrations reached the node %d times", n)
	}
	var info api.CatalogInfo
	if code := postJSON(t, rts.URL, "/catalogs", genCatalog, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	resp, err := http.Get(rts.URL + "/catalogs/" + info.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /catalogs/%s/snapshot: status %d, want 404", info.ID, resp.StatusCode)
	}
}

func TestRouterReadyzAndUnknownCatalog(t *testing.T) {
	stub := newStubNode(t)
	rt, err := NewRouter(Config{Nodes: []string{stub.ts.URL}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(rts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Unprobed router: not ready yet, but alive.
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("unprobed readyz: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	rt.ProbeNow(context.Background())
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("probed readyz: %d, want 200", code)
	}
	if code := postJSON(t, rts.URL, "/optimize", `{"catalog":"nope"}`, nil); code != http.StatusNotFound {
		t.Fatalf("unknown catalog: %d, want 404", code)
	}
}

func TestRouterDeleteFansOut(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	rt, rts := stubRouter(t, 2, a, b)
	var info api.CatalogInfo
	if code := postJSON(t, rts.URL, "/catalogs", genCatalog, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	req, err := http.NewRequest(http.MethodDelete, rts.URL+"/catalogs/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if rt.placement(info.ID) != nil {
		t.Fatal("placement survives deletion")
	}
	if code := postJSON(t, rts.URL, "/optimize", fmt.Sprintf(`{"catalog":%q}`, info.ID), nil); code != http.StatusNotFound {
		t.Fatalf("optimize after delete: status %d, want 404", code)
	}
}
