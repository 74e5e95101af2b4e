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
//     computation over a registered catalog, so Optimize retries, as do
//     Delete, Stats, Healthz and FetchURL (a replica's delta pull);
//     Register creates server state and does not.
//   - Dial-level failures (the connection was never established):
//     retried for every call — the request never went out.
//   - Context cancellation and deadline expiry: never retried; the
//     context's error is returned immediately.
//
// A Client talks to one server, Base. Failover between servers is the
// router's job (internal/cluster): any replica holding a catalog's
// cache answers correctly, a colder one only slower, so one layer
// decides where a request goes when a node fails.
//
// The zero value of Client is not usable; set Base. One Client is one
// metrics domain: callers that want per-class retry accounting (as
// cmd/rmqload does) create one Client per class over a shared
// *http.Client, which carries the connection pool.
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
	"sync/atomic"
	"time"

	"rmq/internal/api"
)

// Client calls one rmqd instance with retries. Fields are read-only
// after first use; the methods are safe for concurrent use.
type Client struct {
	// Base is the server's URL prefix, e.g. "http://127.0.0.1:8080".
	Base string
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
	// MaxDelay caps a single backoff step; a server's Retry-After hint
	// is honored in full. Default 5s.
	MaxDelay time.Duration

	calls     atomic.Uint64
	retries   atomic.Uint64
	abandoned atomic.Uint64
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
}

// Metrics returns the client's current retry accounting.
func (c *Client) Metrics() Metrics {
	return Metrics{
		Calls:     c.calls.Load(),
		Retries:   c.retries.Load(),
		Abandoned: c.abandoned.Load(),
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
	_, err := c.do(ctx, http.MethodDelete, c.Base+"/catalogs/"+url.PathEscape(catalogID), true, nil)
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

// FetchURL fetches an absolute URL with the client's retry policy —
// the rmqd-to-rmqd path of replicate_from's delta pulls, where the
// target is another server entirely and Base does not apply.
func (c *Client) FetchURL(ctx context.Context, rawURL string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, rawURL, true, nil)
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
	raw, err := c.do(ctx, method, c.Base+path, idempotent, body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// do is the retry loop shared by every call: every attempt targets url,
// sending body, when non-nil, as JSON. It returns the response body on
// 2xx.
func (c *Client) do(ctx context.Context, method, url string, idempotent bool, body []byte) ([]byte, error) {
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
		data, retryIn, err := c.attempt(ctx, httpc, method, url, idempotent, body)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if retryIn < 0 || attempt >= maxRetries {
			break
		}
		if err := c.sleep(ctx, max(retryIn, c.backoff(attempt))); err != nil {
			lastErr = err
			break
		}
	}
	c.abandoned.Add(1)
	return nil, lastErr
}

// maxBody caps the response body a call reads.
const maxBody = 64 << 20

// attempt performs one HTTP exchange. retryIn < 0 means the failure is
// not retryable; retryIn > 0 is a server-mandated minimum wait
// (Retry-After); retryIn == 0 leaves the wait to the backoff schedule.
func (c *Client) attempt(ctx context.Context, httpc *http.Client, method, url string, idempotent bool, body []byte) (data []byte, retryIn time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, -1, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
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
	data, readErr := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if readErr != nil {
			if idempotent {
				return nil, 0, readErr
			}
			return nil, -1, readErr
		}
		if len(data) > maxBody {
			// A truncated body would pass for a whole one (a delta
			// stream then fails its CRC, as if corrupt), and a retry
			// would only fetch the same oversized body again.
			return nil, -1, fmt.Errorf("%s %s: response exceeded %d MiB", method, url, maxBody>>20)
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
