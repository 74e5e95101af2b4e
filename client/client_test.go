package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
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
		if r.URL.Path != "/catalogs/c1/deltas" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte("deltabytes"))
	}))
	defer srv.Close()
	c := fastClient(srv)
	data, err := c.FetchURL(context.Background(), srv.URL+"/catalogs/c1/deltas")
	if err != nil || string(data) != "deltabytes" {
		t.Fatalf("FetchURL = %q, %v", data, err)
	}
}

// TestContextErrorsNeverRetry checks that a context ending while a
// request is in flight ends the call: the context's error comes back,
// nothing is retried, and the server saw one request. The context is
// cancelled only once the handler has the request, so exactly one
// attempt reaches the server however slowly the test runs.
func TestContextErrorsNeverRetry(t *testing.T) {
	var hits atomic.Int32
	arrived := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		arrived <- struct{}{}
		<-r.Context().Done()
	}))
	defer srv.Close()
	c := fastClient(srv)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-arrived
		cancel()
	}()
	_, err := c.Stats(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context canceled", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server hit %d times, want 1", got)
	}
	if m := c.Metrics(); m.Retries != 0 || m.Abandoned != 1 {
		t.Fatalf("metrics = %+v, want 0 retries, 1 abandoned", m)
	}
}

// TestOversizedBodyFailsWithoutRetry checks the body cap: a 2xx body one
// byte over maxBody is an error, not a silently truncated success, and
// fetching it again would not help, so even an idempotent call stops.
func TestOversizedBodyFailsWithoutRetry(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		chunk := make([]byte, 64<<10)
		for left := maxBody + 1; left > 0; left -= len(chunk) {
			if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	c := fastClient(srv)
	data, err := c.FetchURL(context.Background(), srv.URL+"/catalogs/c1/deltas")
	if err == nil || !strings.Contains(err.Error(), "exceeded 64 MiB") {
		t.Fatalf("FetchURL = %d bytes, %v; want an exceeded-64-MiB error", len(data), err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server hit %d times, want 1", got)
	}
	if m := c.Metrics(); m.Retries != 0 || m.Abandoned != 1 {
		t.Errorf("metrics = %+v, want 0 retries, 1 abandoned", m)
	}
}
