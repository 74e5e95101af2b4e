// Tests for the optimization service: catalog lifecycle, the anytime
// deadline contract through the HTTP path, client-disconnect
// cancellation (no goroutine leak), admission control, streaming, and
// a concurrent mixed-catalog stress that CI runs under the race
// detector.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rmq/internal/api"
)

// testServer starts an httptest server over a fresh service.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// post issues a JSON POST and decodes the JSON response body into out
// (skipped when out is nil), returning the status code.
func post(t *testing.T, ts *httptest.Server, path string, body string, out any) int {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

// register registers a generated catalog and returns its id.
func register(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	var info api.CatalogInfo
	if code := post(t, ts, "/catalogs", body, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	if info.ID == "" {
		t.Fatal("register: empty catalog id")
	}
	return info.ID
}

// checkFrontier asserts a well-formed, mutually non-dominated response
// frontier.
func checkFrontier(t *testing.T, resp *api.OptimizeResponse) {
	t.Helper()
	if len(resp.Plans) == 0 {
		t.Fatal("empty frontier")
	}
	dim := len(resp.Metrics)
	for _, p := range resp.Plans {
		if len(p.Cost) != dim {
			t.Fatalf("plan cost %v has %d components, metrics are %v", p.Cost, len(p.Cost), resp.Metrics)
		}
		for _, c := range p.Cost {
			if c < 0 {
				t.Fatalf("negative cost in %v", p.Cost)
			}
		}
	}
	dominates := func(a, b []float64) bool {
		strict := false
		for i := range a {
			if a[i] > b[i] {
				return false
			}
			if a[i] < b[i] {
				strict = true
			}
		}
		return strict
	}
	for i, a := range resp.Plans {
		for j, b := range resp.Plans {
			if i != j && dominates(a.Cost, b.Cost) {
				t.Fatalf("frontier contains dominated plan: %v dominates %v", a.Cost, b.Cost)
			}
		}
	}
}

func TestServerCatalogLifecycleAndOptimize(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := register(t, ts, `{"name":"demo","generate":{"tables":8,"graph":"chain","seed":1}}`)

	var resp api.OptimizeResponse
	code := post(t, ts, "/optimize",
		fmt.Sprintf(`{"catalog":%q,"max_iterations":60,"seed":7,"metrics":["time","buffer"],"include_plans":true}`, id),
		&resp)
	if code != http.StatusOK {
		t.Fatalf("optimize: status %d", code)
	}
	if resp.Iterations != 60 {
		t.Errorf("iterations = %d, want 60", resp.Iterations)
	}
	if got := resp.Metrics; len(got) != 2 || got[0] != "time" || got[1] != "buffer" {
		t.Errorf("metrics = %v", got)
	}
	checkFrontier(t, &resp)
	for _, p := range resp.Plans {
		if p.Tree == "" {
			t.Error("include_plans requested but tree missing")
		}
	}
	if resp.DeadlineExpired {
		t.Error("iteration-bounded run reported an expired deadline")
	}
	// The second request against the same catalog runs warm: the
	// session's shared store must have retained frontiers.
	if resp.Cache.Sets == 0 || resp.Cache.Plans == 0 {
		t.Errorf("shared cache retained nothing after a run: %+v", resp.Cache)
	}

	// Explicit table registration.
	id2 := register(t, ts, `{"tables":[{"name":"a","rows":1000},{"name":"b","rows":500},{"name":"c","rows":20000}],
		"edges":[{"a":0,"b":1,"selectivity":0.01},{"a":1,"b":2,"selectivity":0.1}]}`)
	var resp2 api.OptimizeResponse
	if code := post(t, ts, "/optimize", fmt.Sprintf(`{"catalog":%q,"max_iterations":30}`, id2), &resp2); code != http.StatusOK {
		t.Fatalf("optimize explicit catalog: status %d", code)
	}
	checkFrontier(t, &resp2)

	// Listing and deletion.
	resp3, err := ts.Client().Get(ts.URL + "/catalogs")
	if err != nil {
		t.Fatal(err)
	}
	var list []api.CatalogInfo
	if err := json.NewDecoder(resp3.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if len(list) != 2 {
		t.Fatalf("listed %d catalogs, want 2", len(list))
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/catalogs/"+id2, nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if code := post(t, ts, "/optimize", fmt.Sprintf(`{"catalog":%q}`, id2), nil); code != http.StatusNotFound {
		t.Fatalf("optimize deleted catalog: status %d, want 404", code)
	}
}

func TestServerRequestValidation(t *testing.T) {
	_, ts := testServer(t, Config{MaxParallelism: 4})
	id := register(t, ts, `{"generate":{"tables":6,"seed":1}}`)
	for name, body := range map[string]string{
		"unknown catalog":    `{"catalog":"nope"}`,
		"unknown metric":     fmt.Sprintf(`{"catalog":%q,"metrics":["latency"]}`, id),
		"duplicate metric":   fmt.Sprintf(`{"catalog":%q,"metrics":["time","time"]}`, id),
		"unknown algorithm":  fmt.Sprintf(`{"catalog":%q,"algorithm":"bogus"}`, id),
		"excess parallelism": fmt.Sprintf(`{"catalog":%q,"parallelism":64}`, id),
		"unknown field":      fmt.Sprintf(`{"catalog":%q,"budget":12}`, id),
		"negative iters":     fmt.Sprintf(`{"catalog":%q,"max_iterations":-1}`, id),
		"negative timeout":   fmt.Sprintf(`{"catalog":%q,"timeout_ms":-5}`, id),
		"negative workers":   fmt.Sprintf(`{"catalog":%q,"parallelism":-3}`, id),
		"negative progress":  fmt.Sprintf(`{"catalog":%q,"stream":true,"progress_every":-1}`, id),
		"negative dp alpha":  fmt.Sprintf(`{"catalog":%q,"dp_alpha":-2}`, id),
		"removed retention":  fmt.Sprintf(`{"catalog":%q,"retention":2}`, id),
	} {
		var e api.ErrorResponse
		code := post(t, ts, "/optimize", body, &e)
		want := http.StatusBadRequest
		if name == "unknown catalog" {
			want = http.StatusNotFound
		}
		if code != want {
			t.Errorf("%s: status %d, want %d", name, code, want)
		}
		if e.Error == "" {
			t.Errorf("%s: error response without message", name)
		}
		// A field the protocol no longer has is refused by name, not
		// ignored: a client still sending it learns what changed.
		if field, ok := strings.CutPrefix(name, "removed "); ok && !strings.Contains(e.Error, `"`+field+`"`) {
			t.Errorf("%s: error %q does not name the field", name, e.Error)
		}
	}
	for name, body := range map[string]string{
		"empty":              `{}`,
		"both forms":         `{"tables":[{"rows":10}],"generate":{"tables":3}}`,
		"bad graph":          `{"generate":{"tables":3,"graph":"mesh"}}`,
		"bad table rows":     `{"tables":[{"rows":0}]}`,
		"bad edge":           `{"tables":[{"rows":10}],"edges":[{"a":0,"b":5,"selectivity":0.5}]}`,
		"oversized generate": `{"generate":{"tables":1000000}}`,
		"negative retention": `{"generate":{"tables":3},"retention":-1}`,
	} {
		if code := post(t, ts, "/catalogs", body, nil); code != http.StatusBadRequest {
			t.Errorf("catalog %s: status %d, want 400", name, code)
		}
	}
}

// TestServerDeadlineExpiryReturnsFrontier pins the serving side of the
// anytime property: a request whose deadline expires mid-optimization
// still answers 200 with the valid, non-empty best-so-far frontier.
func TestServerDeadlineExpiryReturnsFrontier(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Large enough that 150ms is nowhere near convergence.
	id := register(t, ts, `{"generate":{"tables":30,"graph":"star","seed":8}}`)
	start := time.Now()
	var resp api.OptimizeResponse
	code := post(t, ts, "/optimize", fmt.Sprintf(`{"catalog":%q,"timeout_ms":150,"seed":4}`, id), &resp)
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 on deadline expiry", code)
	}
	if !resp.DeadlineExpired {
		t.Error("deadline_expired not reported")
	}
	checkFrontier(t, &resp)
	if elapsed > 5*time.Second {
		t.Errorf("request took %v against a 150ms budget", elapsed)
	}
}

// TestServerClientDisconnectCancelsRun pins prompt cancellation: a
// client that goes away must cancel the optimization through the
// request context, with no goroutine left running the abandoned query.
func TestServerClientDisconnectCancelsRun(t *testing.T) {
	srv, ts := testServer(t, Config{MaxTimeout: time.Minute})
	id := register(t, ts, `{"generate":{"tables":30,"graph":"star","seed":8}}`)

	// Let the pooled transport settle, then count goroutines.
	ts.Client().CloseIdleConnections()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	body := fmt.Sprintf(`{"catalog":%q,"timeout_ms":55000,"parallelism":2,"seed":1}`, id)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/optimize", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Wait until the request is admitted and optimizing, then vanish.
	waitFor(t, 5*time.Second, func() bool { return srv.InFlight() == 1 })
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected the client-side context cancellation error")
	}

	// The run must wind down promptly: in-flight gauge back to zero and
	// no goroutines pinned by the abandoned optimization (allow slack
	// for transport bookkeeping).
	waitFor(t, 10*time.Second, func() bool { return srv.InFlight() == 0 })
	ts.Client().CloseIdleConnections()
	waitFor(t, 10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+3
	})
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

// TestServerAdmissionControl pins the backpressure contract: beyond
// MaxInFlight, requests answer 429 + Retry-After immediately instead of
// queueing.
func TestServerAdmissionControl(t *testing.T) {
	srv, ts := testServer(t, Config{MaxInFlight: 1, MaxTimeout: time.Minute})
	id := register(t, ts, `{"generate":{"tables":25,"graph":"star","seed":2}}`)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := fmt.Sprintf(`{"catalog":%q,"timeout_ms":55000}`, id)
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/optimize", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, 5*time.Second, func() bool { return srv.InFlight() == 1 })

	resp, err := ts.Client().Post(ts.URL+"/optimize", "application/json",
		strings.NewReader(fmt.Sprintf(`{"catalog":%q,"timeout_ms":50}`, id)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 at capacity", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	cancel()
	<-done
	waitFor(t, 10*time.Second, func() bool { return srv.InFlight() == 0 })

	// Capacity freed: the next request is admitted again.
	var ok api.OptimizeResponse
	if code := post(t, ts, "/optimize", fmt.Sprintf(`{"catalog":%q,"max_iterations":10}`, id), &ok); code != http.StatusOK {
		t.Fatalf("post-burst request: status %d", code)
	}

	var stats api.StatsResponse
	getJSON(t, ts, "/stats", &stats)
	if stats.Rejected == 0 {
		t.Error("stats do not count the rejection")
	}
	if stats.Capacity != 1 {
		t.Errorf("stats capacity = %d, want 1", stats.Capacity)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
}

func parseSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = append([]byte(nil), strings.TrimPrefix(line, "data: ")...)
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return events
}

// TestServerStreamingEmitsProgressAndResult exercises the SSE variant:
// intermediate anytime snapshots followed by exactly one final result.
func TestServerStreamingEmitsProgressAndResult(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := register(t, ts, `{"generate":{"tables":12,"graph":"chain","seed":3}}`)
	resp, err := ts.Client().Post(ts.URL+"/optimize", "application/json",
		strings.NewReader(fmt.Sprintf(`{"catalog":%q,"stream":true,"max_iterations":300,"progress_every":50,"seed":5}`, id)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := parseSSE(t, resp.Body)
	var progress, results int
	var last api.OptimizeResponse
	prevIters := 0
	for _, ev := range events {
		switch ev.name {
		case "progress":
			progress++
			var p api.ProgressEvent
			if err := json.Unmarshal(ev.data, &p); err != nil {
				t.Fatalf("bad progress payload %s: %v", ev.data, err)
			}
			if p.Iterations < prevIters {
				t.Errorf("progress iterations went backwards: %d after %d", p.Iterations, prevIters)
			}
			prevIters = p.Iterations
			if p.Plans != len(p.Frontier) {
				t.Errorf("progress plans = %d but frontier has %d entries", p.Plans, len(p.Frontier))
			}
		case "result":
			results++
			if err := json.Unmarshal(ev.data, &last); err != nil {
				t.Fatalf("bad result payload: %v", err)
			}
		default:
			t.Errorf("unexpected event %q", ev.name)
		}
	}
	if progress == 0 {
		t.Error("no progress events over 300 iterations at every=50")
	}
	if results != 1 {
		t.Fatalf("%d result events, want 1", results)
	}
	checkFrontier(t, &last)
	if last.Iterations != 300 {
		t.Errorf("final iterations = %d, want 300", last.Iterations)
	}

	// A streaming request with an invalid option fails with a proper
	// status code, not a 200 stream.
	r2, err := ts.Client().Post(ts.URL+"/optimize", "application/json",
		strings.NewReader(fmt.Sprintf(`{"catalog":%q,"stream":true,"algorithm":"bogus"}`, id)))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("streaming with bad option: status %d, want 400", r2.StatusCode)
	}
}

func TestServerHealthzAndStats(t *testing.T) {
	_, ts := testServer(t, Config{})
	var health map[string]any
	getJSON(t, ts, "/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}
	id := register(t, ts, `{"name":"st","generate":{"tables":8,"seed":1}}`)
	if code := post(t, ts, "/optimize", fmt.Sprintf(`{"catalog":%q,"max_iterations":40}`, id), nil); code != http.StatusOK {
		t.Fatalf("optimize: %d", code)
	}
	var stats api.StatsResponse
	getJSON(t, ts, "/stats", &stats)
	if stats.InFlight != 0 || stats.Served != 1 {
		t.Errorf("in_flight %d served %d, want 0/1", stats.InFlight, stats.Served)
	}
	if len(stats.Catalogs) != 1 {
		t.Fatalf("stats list %d catalogs", len(stats.Catalogs))
	}
	cs := stats.Catalogs[0]
	if cs.Requests != 1 || cs.Name != "st" {
		t.Errorf("catalog stats %+v", cs)
	}
	if cs.Cache.Sets == 0 || cs.Cache.Plans == 0 {
		t.Errorf("shared-cache stats empty after a run: %+v", cs.Cache)
	}
	if cs.Pool.Pooled == 0 || cs.Pool.HighWater == 0 {
		t.Errorf("pool stats empty after a run: %+v", cs.Pool)
	}
}

// TestServerConcurrentMixedCatalogStress drives ≥8 concurrent requests
// across two catalogs with mixed metric subsets, parallelism, and
// streaming — the shape CI's race detector needs to see.
func TestServerConcurrentMixedCatalogStress(t *testing.T) {
	srv, ts := testServer(t, Config{MaxInFlight: 32})
	ids := []string{
		register(t, ts, `{"generate":{"tables":10,"graph":"chain","seed":1}}`),
		register(t, ts, `{"generate":{"tables":12,"graph":"star","seed":2}}`),
	}
	subsets := [][]string{nil, {"time"}, {"time", "buffer"}, {"time", "disc"}}
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for call := 0; call < 2; call++ {
				id := ids[(c+call)%len(ids)]
				req := map[string]any{
					"catalog":        id,
					"max_iterations": 40,
					"seed":           c*100 + call,
					"parallelism":    1 + c%2,
				}
				if m := subsets[c%len(subsets)]; m != nil {
					req["metrics"] = m
				}
				stream := c%3 == 0
				req["stream"] = stream
				body, _ := json.Marshal(req)
				resp, err := ts.Client().Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d call %d: %v", c, call, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					data, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					t.Errorf("client %d call %d: status %d: %s", c, call, resp.StatusCode, data)
					return
				}
				if stream {
					events := parseSSE(t, resp.Body)
					if len(events) == 0 || events[len(events)-1].name != "result" {
						t.Errorf("client %d call %d: stream without final result", c, call)
					}
				} else {
					var or api.OptimizeResponse
					if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
						t.Errorf("client %d call %d: %v", c, call, err)
					} else if len(or.Plans) == 0 {
						t.Errorf("client %d call %d: empty frontier", c, call)
					}
				}
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	if got := srv.InFlight(); got != 0 {
		t.Errorf("in-flight gauge stuck at %d", got)
	}
	var stats api.StatsResponse
	getJSON(t, ts, "/stats", &stats)
	if stats.Served != clients*2 {
		t.Errorf("served %d, want %d", stats.Served, clients*2)
	}
}
