package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rmq"
	"rmq/internal/core"
	"rmq/internal/opt"
	"rmq/internal/plan"
)

// Traced runs time each layer from outside, around the calls into it:
// the client call, the server's HTTP handler, Session.Optimize and its
// reported opt.Run time, and every Init, Step and Frontier call of the
// RMQ optimizer through a registered wrapper algorithm. All spans of
// one operation share its key, the request seed, which is also the seed
// the run hands worker 0's Init.

// tracedAlgorithm is the registry name of the timing wrapper around
// RMQ; traced operations select it instead of the default "rmq".
const tracedAlgorithm = "rmq-traced"

// keyHeader carries a traced request's key from the client transport to
// the handler wrapper.
const keyHeader = "X-Rmqbench-Key"

// span is one timed call. Times are nanoseconds since the tracer began.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Key    uint64 `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a run's spans in memory until the trace file is written.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record adds a span; on a nil tracer (an untraced run) it does nothing.
func (t *tracer) record(name, parent string, key uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Parent: parent, Key: key, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans, plus one opt.run span per traced operation
// (placed at its Init, lasting the run time the call reported), as
// trace-<workload>.json in dir.
func (t *tracer) write(dir, workload string, d *runData) (string, error) {
	spans := t.snapshot()
	initAt := make(map[uint64]int64)
	for _, s := range spans {
		if s.Name == "core.init" {
			initAt[s.Key] = s.Start
		}
	}
	parent := "rmq.optimize"
	if d.serve {
		parent = "server.handler"
	}
	for _, o := range d.all {
		if start, ok := initAt[o.key]; ok && o.traced && o.run > 0 {
			spans = append(spans, span{Name: "opt.run", Parent: parent, Key: o.key, Start: start, End: start + int64(o.run)})
		}
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}

// activeTracer receives the spans of rmq-traced optimizer instances; the
// registry's factories cannot be handed per-run state any other way.
var activeTracer atomic.Pointer[tracer]

var registerTraced sync.Once

// useTracer makes t the destination of rmq-traced spans, registering the
// wrapper algorithm on first use.
func useTracer(t *tracer) {
	registerTraced.Do(func() {
		rmq.RegisterAlgorithm(tracedAlgorithm, func(spec rmq.AlgorithmSpec) (rmq.Optimizer, error) {
			return &tracedRMQ{inner: core.New(core.Config{Shared: spec.SharedCache}), tr: activeTracer.Load()}, nil
		})
	})
	activeTracer.Store(t)
}

// tracedRMQ forwards every optimizer call to RMQ and times it. It must
// forward FrontierDelta too: without opt.DeltaFrontier the run would
// merge full frontiers, a different code path from the untraced one.
type tracedRMQ struct {
	inner *core.RMQ
	tr    *tracer
	key   uint64
}

func (t *tracedRMQ) Name() string { return t.inner.Name() }

func (t *tracedRMQ) Init(p *opt.Problem, seed uint64) {
	t.key = seed
	start := time.Now()
	t.inner.Init(p, seed)
	t.tr.record("core.init", "opt.run", t.key, start, time.Now())
}

func (t *tracedRMQ) Step() bool {
	start := time.Now()
	more := t.inner.Step()
	t.tr.record("core.step", "opt.run", t.key, start, time.Now())
	return more
}

func (t *tracedRMQ) Frontier() []*plan.Plan {
	start := time.Now()
	f := t.inner.Frontier()
	t.tr.record("core.frontier", "opt.run", t.key, start, time.Now())
	return f
}

func (t *tracedRMQ) FrontierDelta(mark uint64) ([]*plan.Plan, uint64) {
	start := time.Now()
	f, next := t.inner.FrontierDelta(mark)
	t.tr.record("core.frontier", "opt.run", t.key, start, time.Now())
	return f, next
}

// wrapHandler times the server's handler for requests that carry a
// trace key; requests without one pass straight through.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := r.Header.Get(keyHeader)
		if v == "" {
			h.ServeHTTP(w, r)
			return
		}
		key, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad "+keyHeader, http.StatusBadRequest)
			return
		}
		name := "server.handler"
		if r.URL.Path == "/catalogs" {
			name = "server.register"
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(name, "client.call", key, start, time.Now())
	})
}

type traceKey struct{}

// withTraceKey marks the requests made under ctx as traced with key.
func withTraceKey(ctx context.Context, key uint64) context.Context {
	return context.WithValue(ctx, traceKey{}, key)
}

// keyTransport stamps the trace key of a request's context into its
// headers for wrapHandler.
type keyTransport struct{ base http.RoundTripper }

func (t keyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if key, ok := r.Context().Value(traceKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(keyHeader, strconv.FormatUint(key, 10))
	}
	return t.base.RoundTrip(r)
}
