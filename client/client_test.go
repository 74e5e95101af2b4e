package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rmq/internal/api"
)

// fastClient returns a client for srv with sub-millisecond backoff so
// retry tests run fast.
func fastClient(srv *httptest.Server) *Client {
	return &Client{
		Base:      srv.URL,
		HTTP:      srv.Client(),
		BaseDelay: 200 * time.Microsecond,
		MaxDelay:  2 * time.Millisecond,
	}
}

func TestOptimizeRetriesTransient500(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"catalog":"c1","metrics":["time"],"plans":[],"iterations":5,"elapsed_ms":1,"deadline_expired":false,"cache":{"sets":0,"plans":0}}`))
	}))
	defer srv.Close()
	c := fastClient(srv)
	resp, err := c.Optimize(context.Background(), api.OptimizeRequest{Catalog: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Iterations != 5 {
		t.Errorf("iterations = %d", resp.Iterations)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server hit %d times, want 3", got)
	}
	m := c.Metrics()
	if m.Calls != 1 || m.Retries != 2 || m.Abandoned != 0 {
		t.Errorf("metrics = %+v, want 1 call, 2 retries, 0 abandoned", m)
	}
}

func TestRegisterNotRetriedOn500(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := fastClient(srv)
	_, err := c.Register(context.Background(), api.CatalogRequest{})
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Status != 500 || serr.Message != "boom" {
		t.Fatalf("err = %v, want StatusError 500 boom", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("non-idempotent register retried: %d hits", got)
	}
	if m := c.Metrics(); m.Abandoned != 1 {
		t.Errorf("metrics = %+v, want 1 abandoned", m)
	}
}

// TestNegativeMaxRetriesMakesOneAttempt checks that a negative
// MaxRetries disables retries: an idempotent call against a server
// answering 503 reaches it exactly once.
func TestNegativeMaxRetriesMakesOneAttempt(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"unavailable"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := fastClient(srv)
	c.MaxRetries = -1
	_, err := c.Optimize(context.Background(), api.OptimizeRequest{Catalog: "c1"})
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want StatusError 503", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server hit %d times, want 1", got)
	}
	if m := c.Metrics(); m.Calls != 1 || m.Retries != 0 || m.Abandoned != 1 {
		t.Errorf("metrics = %+v, want 1 call, 0 retries, 1 abandoned", m)
	}
}

func TestRetryAfterHonoredOn429(t *testing.T) {
	var hits atomic.Int32
	var gap atomic.Int64
	var last atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 {
			gap.Store(now - prev)
		}
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
			return
		}
		_, _ = w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	c := fastClient(srv)
	// Registration is not idempotent, but 429 is rejected at admission,
	// so even Register must retry it.
	if _, err := c.Register(context.Background(), api.CatalogRequest{}); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 2 {
		t.Fatalf("hits = %d, want 2", hits.Load())
	}
	if got := time.Duration(gap.Load()); got < 900*time.Millisecond {
		t.Errorf("retried after %v, want >= ~1s (Retry-After honored)", got)
	}
}

func TestContextDeadlineBoundsRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := fastClient(srv)
	c.MaxDelay = time.Hour // do not cap the server's hint
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Optimize(ctx, api.OptimizeRequest{Catalog: "c1"})
	if err == nil {
		t.Fatal("no error despite saturated server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("call outlived its context by %v", elapsed)
	}
}

func TestDialErrorRetriedThenAbandoned(t *testing.T) {
	// A listener that was closed: connections are refused at dial time,
	// so even the non-idempotent register retries (the request never
	// went out) and eventually abandons.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close()
	c := &Client{
		Base:       srv.URL,
		BaseDelay:  100 * time.Microsecond,
		MaxDelay:   time.Millisecond,
		MaxRetries: 2,
	}
	_, err := c.Register(context.Background(), api.CatalogRequest{})
	if err == nil {
		t.Fatal("register against a dead server succeeded")
	}
	if m := c.Metrics(); m.Retries != 2 || m.Abandoned != 1 {
		t.Errorf("metrics = %+v, want 2 retries and 1 abandoned", m)
	}
}

func TestErrorBodyParsing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown catalog \"nope\""}`, http.StatusNotFound)
	}))
	defer srv.Close()
	c := fastClient(srv)
	_, err := c.Stats(context.Background())
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Status != 404 || serr.Message != `unknown catalog "nope"` {
		t.Fatalf("err = %v", err)
	}
}

func TestFetchURL(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/catalogs/c1/snapshot" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte("snapbytes"))
	}))
	defer srv.Close()
	c := fastClient(srv)
	data, err := c.FetchURL(context.Background(), srv.URL+"/catalogs/c1/snapshot")
	if err != nil || string(data) != "snapbytes" {
		t.Fatalf("FetchURL = %q, %v", data, err)
	}
	if data, err = c.Snapshot(context.Background(), "c1"); err != nil || string(data) != "snapbytes" {
		t.Fatalf("Snapshot = %q, %v", data, err)
	}
}

// deadServer returns a URL whose listener is closed: dials are refused.
func deadServer() string {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close()
	return srv.URL
}

func TestFailoverRotationOrder(t *testing.T) {
	var bHits, cHits atomic.Int32
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bHits.Add(1)
		_, _ = w.Write([]byte(`{}`))
	}))
	defer b.Close()
	cSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cHits.Add(1)
		_, _ = w.Write([]byte(`{}`))
	}))
	defer cSrv.Close()
	c := &Client{
		Endpoints: []string{deadServer(), b.URL, cSrv.URL},
		BaseDelay: 100 * time.Microsecond,
		MaxDelay:  time.Millisecond,
		Cooldown:  time.Hour,
	}
	// First call: endpoint 0 refuses the dial, rotation lands on 1 — in
	// order, never skipping to 2.
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if bHits.Load() != 1 || cHits.Load() != 0 {
		t.Fatalf("hits after first call: b=%d c=%d, want rotation to stop at b", bHits.Load(), cHits.Load())
	}
	if m := c.Metrics(); m.Failovers != 1 || m.Retries != 1 {
		t.Fatalf("metrics = %+v, want 1 failover, 1 retry", m)
	}
	// Second call: sticky on the endpoint that worked; the dead one is
	// cooling down and is not probed again.
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if bHits.Load() != 2 || cHits.Load() != 0 {
		t.Fatalf("hits after second call: b=%d c=%d, want sticky on b", bHits.Load(), cHits.Load())
	}
	if m := c.Metrics(); m.Failovers != 1 || m.Retries != 1 {
		t.Fatalf("metrics after sticky call = %+v, want no new failovers", m)
	}
}

func TestFailoverOn500ButNotOn429(t *testing.T) {
	var aMode atomic.Int32 // 0: 500, 1: 429-then-ok
	var aHits, bHits atomic.Int32
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case aMode.Load() == 0:
			aHits.Add(1)
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		case aHits.Add(1) == 2: // second 429-mode hit succeeds
			_, _ = w.Write([]byte(`{}`))
		default:
			http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
		}
	}))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bHits.Add(1)
		_, _ = w.Write([]byte(`{}`))
	}))
	defer b.Close()
	c := &Client{
		Endpoints: []string{a.URL, b.URL},
		BaseDelay: 100 * time.Microsecond,
		MaxDelay:  time.Millisecond,
		Cooldown:  time.Microsecond, // expire instantly so a is probed again
	}
	// 500 from a rotates to b.
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if aHits.Load() != 1 || bHits.Load() != 1 {
		t.Fatalf("hits = a:%d b:%d, want one each (rotate on 500)", aHits.Load(), bHits.Load())
	}
	if m := c.Metrics(); m.Failovers != 1 {
		t.Fatalf("metrics = %+v, want 1 failover", m)
	}
	// Move back to a (cooldown expired, cursor rotated past b on its own
	// next failure — force it by pointing a fresh client at a first).
	c2 := &Client{
		Endpoints: []string{a.URL, b.URL},
		BaseDelay: 100 * time.Microsecond,
		MaxDelay:  time.Millisecond,
	}
	aMode.Store(1)
	aHits.Store(0) // mode-1 hit 1 answers 429, hit 2 succeeds
	before := bHits.Load()
	if _, err := c2.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if bHits.Load() != before {
		t.Fatal("429 caused a failover; backpressure must stay on the same endpoint")
	}
	if m := c2.Metrics(); m.Failovers != 0 || m.Retries != 1 {
		t.Fatalf("metrics = %+v, want retry without failover", m)
	}
}

func TestFailoverContextErrorsNeverRetry(t *testing.T) {
	var hits atomic.Int32
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		<-r.Context().Done()
	}))
	defer slow.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		_, _ = w.Write([]byte(`{}`))
	}))
	defer b.Close()
	c := &Client{
		Endpoints: []string{slow.URL, b.URL},
		BaseDelay: 100 * time.Microsecond,
		MaxDelay:  time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Stats(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("a context expiry reached %d endpoints, want 1 (no failover on context errors)", got)
	}
	if m := c.Metrics(); m.Retries != 0 || m.Failovers != 0 || m.Abandoned != 1 {
		t.Fatalf("metrics = %+v, want no retries or failovers", m)
	}
}

func TestFailoverCooldownReadmitsEndpoint(t *testing.T) {
	var aHits atomic.Int32
	var aDead atomic.Bool
	aDead.Store(true)
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aHits.Add(1)
		if aDead.Load() {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		_, _ = w.Write([]byte(`{}`))
	}))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{}`))
	}))
	defer b.Close()
	c := &Client{
		Endpoints: []string{a.URL, b.URL},
		BaseDelay: 100 * time.Microsecond,
		MaxDelay:  time.Millisecond,
		Cooldown:  20 * time.Millisecond,
	}
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err) // failed over to b
	}
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err) // still inside a's cooldown: sticky on b
	}
	if got := aHits.Load(); got != 1 {
		t.Fatalf("a probed %d times during cooldown, want 1", got)
	}
	// After the cooldown a is probed again in its rotation turn — which
	// comes up when b fails. Kill b by closing it.
	aDead.Store(false)
	time.Sleep(25 * time.Millisecond)
	b.Close()
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := aHits.Load(); got != 2 {
		t.Fatalf("recovered endpoint not re-admitted after cooldown: %d hits", got)
	}
}

func TestFailoverRegisterRotatesOnDialFailure(t *testing.T) {
	var hits atomic.Int32
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		_, _ = w.Write([]byte(`{"id":"c1"}`))
	}))
	defer b.Close()
	c := &Client{
		Endpoints: []string{deadServer(), b.URL},
		BaseDelay: 100 * time.Microsecond,
		MaxDelay:  time.Millisecond,
	}
	// Registration is not idempotent, but a refused dial means the
	// request never went out — so even Register fails over.
	info, err := c.Register(context.Background(), api.CatalogRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "c1" || hits.Load() != 1 {
		t.Fatalf("info = %+v, hits = %d", info, hits.Load())
	}
	if m := c.Metrics(); m.Failovers != 1 {
		t.Fatalf("metrics = %+v, want 1 failover", m)
	}
}
