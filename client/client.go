// Package client is the retrying HTTP client for rmqd's API.
//
// It wraps the wire protocol of internal/server (types in internal/api)
// with the failure semantics a production caller needs and that every
// ad-hoc caller gets wrong: jittered exponential backoff, 429
// admission rejections honored via their Retry-After hint, transient
// transport errors retried only when the request is safe to repeat,
// and every sleep bounded by the caller's context deadline.
//
// Retry classification:
//
//   - 429: always retryable — the server rejected the request at
//     admission, before executing it, so repeating it cannot duplicate
//     work. The wait is the server's Retry-After hint when given (the
//     server derives it from its own load), the backoff schedule
//     otherwise.
//   - 5xx and transport errors after the request may have reached the
//     server: retried only for idempotent calls. Optimization is a pure
//     computation over a registered catalog, so Optimize, Stats,
//     Snapshot and Checkpoint retry; Register creates server state and
//     does not.
//   - Dial-level failures (the connection was never established):
//     retried for every call — the request never went out.
//   - Context cancellation and deadline expiry: never retried; the
//     context's error is returned immediately.
//
// Failover: when Endpoints lists more than one server, retries that
// indicate endpoint trouble (dial failures, transport errors, 5xx) move
// to the next endpoint in order instead of hammering the failed one;
// 429 stays put, because backpressure means the endpoint is alive and
// its Retry-After hint is about *its* load. A failed endpoint is
// remembered and skipped for Cooldown, after which it is probed again
// in its turn. The client is sticky: it keeps using the endpoint that
// last worked until that one fails.
//
// The zero value of Client is not usable; set Base (or Endpoints). One
// Client is one metrics domain: callers that want per-class retry
// accounting (as cmd/rmqload does) create one Client per class over a
// shared *http.Client, which carries the connection pool.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rmq/internal/api"
)

// Client calls one rmqd instance with retries. Fields are read-only
// after first use; the methods are safe for concurrent use.
type Client struct {
	// Base is the server's URL prefix, e.g. "http://127.0.0.1:8080".
	Base string
	// Endpoints lists alternative server URL prefixes for failover.
	// When set, calls rotate across them on endpoint failures and Base
	// is ignored; when empty, the client talks to Base alone.
	Endpoints []string
	// HTTP is the underlying transport; http.DefaultClient when nil.
	// Share one across Clients to share its connection pool.
	HTTP *http.Client
	// MaxRetries bounds retry attempts per call (not counting the first
	// attempt). Zero means the default, 4; a negative value means no
	// retries, so every call makes exactly one attempt.
	MaxRetries int
	// BaseDelay is the first backoff step; doubles per retry with full
	// jitter. Default 100ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (Retry-After hints included).
	// Default 5s.
	MaxDelay time.Duration
	// Cooldown is how long a failed endpoint is skipped in rotation
	// before being probed again. Default 2s.
	Cooldown time.Duration

	calls     atomic.Uint64
	retries   atomic.Uint64
	abandoned atomic.Uint64
	failovers atomic.Uint64

	mu        sync.Mutex
	cursor    int                  // index of the endpoint in current use
	downUntil map[string]time.Time // per-endpoint health memory
}

// Metrics is a snapshot of a Client's retry accounting.
type Metrics struct {
	// Calls is the number of API calls issued (not attempts).
	Calls uint64
	// Retries is the total number of retry attempts across calls.
	Retries uint64
	// Abandoned is the number of calls that ultimately failed — retries
	// exhausted, a non-retryable response, or context expiry.
	Abandoned uint64
	// Failovers is the number of times a retry moved to a different
	// endpoint because the one in use looked down.
	Failovers uint64
}

// Metrics returns the client's current retry accounting.
func (c *Client) Metrics() Metrics {
	return Metrics{
		Calls:     c.calls.Load(),
		Retries:   c.retries.Load(),
		Abandoned: c.abandoned.Load(),
		Failovers: c.failovers.Load(),
	}
}

// StatusError is a non-2xx response that was not retried (or survived
// every retry): the status code and the server's JSON error message.
type StatusError struct {
	Status  int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// Register registers a catalog (POST /catalogs). Registration creates
// server state, so it is retried only on dial-level failures where the
// request never reached the server.
func (c *Client) Register(ctx context.Context, req api.CatalogRequest) (api.CatalogInfo, error) {
	var info api.CatalogInfo
	err := c.callJSON(ctx, http.MethodPost, "/catalogs", false, req, &info)
	return info, err
}

// Optimize runs a non-streaming optimization (POST /optimize).
// Optimization is a pure computation, so transient failures retry.
func (c *Client) Optimize(ctx context.Context, req api.OptimizeRequest) (api.OptimizeResponse, error) {
	var resp api.OptimizeResponse
	err := c.callJSON(ctx, http.MethodPost, "/optimize", true, req, &resp)
	return resp, err
}

// Delete removes a catalog (DELETE /catalogs/{id}). Deletion is
// idempotent on the server (a repeat answers 404, which is not
// retried), so transient failures retry.
func (c *Client) Delete(ctx context.Context, catalogID string) error {
	_, err := c.call(ctx, http.MethodDelete, "/catalogs/"+url.PathEscape(catalogID), true, nil, nil)
	return err
}

// Stats fetches the server's telemetry (GET /stats).
func (c *Client) Stats(ctx context.Context) (api.StatsResponse, error) {
	var resp api.StatsResponse
	err := c.callJSON(ctx, http.MethodGet, "/stats", true, nil, &resp)
	return resp, err
}

// Healthz probes liveness (GET /healthz).
func (c *Client) Healthz(ctx context.Context) error {
	return c.callJSON(ctx, http.MethodGet, "/healthz", true, nil, nil)
}

// Snapshot fetches a catalog's current plan-cache snapshot stream
// (GET /catalogs/{id}/snapshot).
func (c *Client) Snapshot(ctx context.Context, catalogID string) ([]byte, error) {
	return c.call(ctx, http.MethodGet, "/catalogs/"+url.PathEscape(catalogID)+"/snapshot", true, nil, nil)
}

// Checkpoint persists a catalog's checkpoint on the server
// (POST /catalogs/{id}/snapshot). Checkpointing is idempotent.
func (c *Client) Checkpoint(ctx context.Context, catalogID string) error {
	_, err := c.call(ctx, http.MethodPost, "/catalogs/"+url.PathEscape(catalogID)+"/snapshot", true, nil, nil)
	return err
}

// FetchURL fetches an absolute URL with the client's retry policy —
// the rmqd-to-rmqd snapshot hand-off path, where the target is another
// server entirely and neither Base nor endpoint rotation applies.
func (c *Client) FetchURL(ctx context.Context, rawURL string) ([]byte, error) {
	return c.callOn(ctx, nil, http.MethodGet, rawURL, true, nil, nil)
}

// callJSON performs a call with a JSON request and response body.
func (c *Client) callJSON(ctx context.Context, method, path string, idempotent bool, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	raw, err := c.call(ctx, method, path, idempotent, body, jsonType(in))
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func jsonType(in any) map[string]string {
	if in == nil {
		return nil
	}
	return map[string]string{"Content-Type": "application/json"}
}

// call resolves the endpoint set and runs the retry loop for a
// server-relative path.
func (c *Client) call(ctx context.Context, method, path string, idempotent bool, body []byte, hdr map[string]string) ([]byte, error) {
	eps := c.Endpoints
	if len(eps) == 0 {
		eps = []string{c.Base}
	}
	return c.callOn(ctx, eps, method, path, idempotent, body, hdr)
}

// callOn is the retry loop shared by every call. With endpoints, path
// is server-relative and retries may rotate; with eps == nil, path is
// an absolute URL and every attempt targets it. It returns the
// response body on 2xx.
func (c *Client) callOn(ctx context.Context, eps []string, method, path string, idempotent bool, body []byte, hdr map[string]string) ([]byte, error) {
	c.calls.Add(1)
	maxRetries := c.MaxRetries
	if maxRetries == 0 {
		maxRetries = 4
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		url := path
		ep := ""
		if eps != nil {
			ep = c.pick(eps)
			url = ep + path
		}
		data, retryIn, err := c.attempt(ctx, httpc, method, url, idempotent, body, hdr)
		if err == nil {
			c.markUp(ep)
			return data, nil
		}
		lastErr = err
		if retryIn < 0 || attempt >= maxRetries {
			break
		}
		if len(eps) > 1 && endpointTrouble(err) {
			c.markDown(ep, len(eps))
			if c.anyUp(eps) {
				// The next endpoint is fresh: skip the backoff (a
				// Retry-After hint is still about the failed endpoint).
				continue
			}
			// Every endpoint is cooling down — back off like a
			// single-endpoint client would.
		}
		if err := c.sleep(ctx, max(retryIn, c.backoff(attempt))); err != nil {
			lastErr = err
			break
		}
	}
	c.abandoned.Add(1)
	return nil, lastErr
}

// pick returns the endpoint to try: the one in current use, unless its
// cooldown is running, in which case the scan continues in rotation
// order. When every endpoint is cooling down the current one is used
// anyway — a probably-dead endpoint still beats not trying.
func (c *Client) pick(eps []string) string {
	if len(eps) == 1 {
		return eps[0]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for i := range eps {
		idx := (c.cursor + i) % len(eps)
		if until, down := c.downUntil[eps[idx]]; !down || now.After(until) {
			c.cursor = idx
			return eps[idx]
		}
	}
	return eps[c.cursor%len(eps)]
}

// markDown records an endpoint failure: start its cooldown and advance
// the rotation cursor so the next attempt lands elsewhere.
func (c *Client) markDown(ep string, n int) {
	c.failovers.Add(1)
	cd := c.Cooldown
	if cd <= 0 {
		cd = 2 * time.Second
	}
	c.mu.Lock()
	if c.downUntil == nil {
		c.downUntil = make(map[string]time.Time)
	}
	c.downUntil[ep] = time.Now().Add(cd)
	c.cursor = (c.cursor + 1) % n
	c.mu.Unlock()
}

// anyUp reports whether at least one endpoint is out of cooldown.
func (c *Client) anyUp(eps []string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for _, ep := range eps {
		if until, down := c.downUntil[ep]; !down || now.After(until) {
			return true
		}
	}
	return false
}

// markUp clears an endpoint's health memory after a success, so a
// recovered endpoint is trusted again immediately.
func (c *Client) markUp(ep string) {
	if ep == "" {
		return
	}
	c.mu.Lock()
	delete(c.downUntil, ep)
	c.mu.Unlock()
}

// endpointTrouble reports whether a retryable failure indicts the
// endpoint rather than the request: transport errors and 5xx rotate;
// 429 is live backpressure and stays put.
func endpointTrouble(err error) bool {
	var serr *StatusError
	if errors.As(err, &serr) {
		return serr.Status >= 500
	}
	return true
}

// attempt performs one HTTP exchange. retryIn < 0 means the failure is
// not retryable; retryIn > 0 is a server-mandated minimum wait
// (Retry-After); retryIn == 0 leaves the wait to the backoff schedule.
func (c *Client) attempt(ctx context.Context, httpc *http.Client, method, url string, idempotent bool, body []byte, hdr map[string]string) (data []byte, retryIn time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, -1, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := httpc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, -1, ctx.Err()
		}
		// A dial-level failure means the request never went out, so
		// even non-idempotent calls may retry; past that point only
		// idempotent ones can.
		if idempotent || isDialError(err) {
			return nil, 0, err
		}
		return nil, -1, err
	}
	defer resp.Body.Close()
	data, readErr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if readErr != nil {
			if idempotent {
				return nil, 0, readErr
			}
			return nil, -1, readErr
		}
		return data, 0, nil
	}
	serr := &StatusError{Status: resp.StatusCode, Message: api.ErrorMessage(data)}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		// Rejected at admission — nothing executed, always retryable.
		// The server's Retry-After reflects its current load.
		return nil, retryAfter(resp), serr
	case resp.StatusCode >= 500 && idempotent:
		return nil, 0, serr
	default:
		return nil, -1, serr
	}
}

// backoff is the jittered exponential schedule: full jitter over
// BaseDelay·2^attempt, capped at MaxDelay.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxDelay := c.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 5 * time.Second
	}
	d := base << min(attempt, 20)
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	// Full jitter: uniform in [d/2, d] — decorrelates clients that were
	// rejected together so they do not return together.
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// sleep waits for d or until the context ends, whichever is first. d is
// not clamped to MaxDelay here: the backoff schedule caps itself, but a
// server's Retry-After hint must be honored in full — only the caller's
// context deadline cuts it short.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryAfter parses a 429's Retry-After header (integer seconds).
func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// isDialError reports whether the transport failure happened before the
// request was sent — the connection was never established.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}
