package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"rmq"
	"rmq/internal/api"
	"rmq/internal/faultinject"
)

// handleOptimize serves POST /optimize: request decoding and
// validation, admission control, deadline mapping, then either a
// single JSON response or a server-sent event stream of anytime
// snapshots.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	// Decode and validate before admission: a slow or malformed upload
	// must not hold an in-flight slot while no optimization runs.
	var req api.OptimizeRequest
	if !api.DecodeBody(w, r, &req) {
		return
	}
	entry := s.catalog(req.Catalog)
	if entry == nil {
		api.WriteError(w, http.StatusNotFound, "unknown catalog %q", req.Catalog)
		return
	}
	opts, err := s.requestOptions(&req)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Admission control: reject immediately instead of queueing into
	// the client's deadline — under overload a fast 429 with a
	// Retry-After hint beats a slow timeout. The hint is derived from
	// observed service time and the in-flight depth, so retrying clients
	// back off in proportion to how saturated the server actually is.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
		api.WriteError(w, http.StatusTooManyRequests,
			"server at capacity (%d requests in flight)", cap(s.sem))
		return
	}

	// Fault-injection site for chaos runs: an injected error fails this
	// request (admitted, nothing executed yet); an injected panic
	// exercises the recovery boundary. Compiled to one atomic load when
	// no profile is active.
	if err := faultinject.Check("server.optimize"); err != nil {
		api.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Feed the observed service time into the Retry-After EWMA and, when
	// a cache budget is set, re-check it once the run's admissions are
	// all in.
	begin := time.Now()
	defer func() {
		s.observeService(time.Since(begin))
		s.enforceCacheBudget()
	}()

	// The request deadline is the optimization budget (the anytime
	// contract): timeout_ms if given, the server default otherwise —
	// except that iteration-bounded requests only get the backstop cap.
	// Everything is clamped to MaxTimeout, which also bounds how long
	// graceful shutdown waits. The request context is the parent, so a
	// client disconnect cancels the run promptly.
	budget := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		budget = time.Duration(req.TimeoutMS * float64(time.Millisecond))
	} else if req.MaxIterations > 0 {
		budget = s.cfg.MaxTimeout
	}
	budget = min(budget, s.cfg.MaxTimeout)
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	entry.requests.Add(1)
	if req.Stream {
		s.streamOptimize(ctx, w, entry, &req, opts)
		return
	}
	f, err := entry.sess.Optimize(ctx, opts...)
	if err != nil {
		api.WriteError(w, errStatus(err), "%v", err)
		return
	}
	s.served.Add(1)
	api.WriteJSON(w, http.StatusOK, s.response(ctx, entry, &req, f))
}

// requestOptions maps the wire request to functional options.
func (s *Server) requestOptions(req *api.OptimizeRequest) ([]rmq.Option, error) {
	// Zero means "unset" for every numeric field; a negative value means
	// nothing and is refused rather than read as unset.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"timeout_ms", req.TimeoutMS},
		{"max_iterations", float64(req.MaxIterations)},
		{"dp_alpha", req.DPAlpha},
		{"parallelism", float64(req.Parallelism)},
		{"progress_every", float64(req.ProgressEvery)},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("negative %s %v", f.name, f.v)
		}
	}
	var opts []rmq.Option
	if len(req.Metrics) > 0 {
		metrics, err := parseMetrics(req.Metrics)
		if err != nil {
			return nil, err
		}
		opts = append(opts, rmq.WithMetrics(metrics...))
	}
	if req.Algorithm != "" {
		opts = append(opts, rmq.WithAlgorithm(rmq.Algorithm(req.Algorithm)))
	}
	if req.DPAlpha > 0 {
		opts = append(opts, rmq.WithDPAlpha(req.DPAlpha))
	}
	if req.Parallelism > s.cfg.MaxParallelism {
		return nil, fmt.Errorf("parallelism %d exceeds the server cap %d", req.Parallelism, s.cfg.MaxParallelism)
	}
	if req.Parallelism > 0 {
		opts = append(opts, rmq.WithParallelism(req.Parallelism))
	}
	if req.MaxIterations > 0 {
		opts = append(opts, rmq.WithMaxIterations(req.MaxIterations))
	}
	if req.Seed != nil {
		opts = append(opts, rmq.WithSeed(*req.Seed))
	}
	return opts, nil
}

// response converts a frontier to the wire form.
func (s *Server) response(ctx context.Context, entry *catalogEntry, req *api.OptimizeRequest, f *rmq.Frontier) api.OptimizeResponse {
	plans := make([]api.PlanJSON, len(f.Plans))
	for i, p := range f.Plans {
		pj := api.PlanJSON{Cost: costSlice(p)}
		if req.IncludePlans {
			pj.Tree = p.String()
		}
		plans[i] = pj
	}
	cs := entry.sess.CacheStats()
	return api.OptimizeResponse{
		Catalog:         entry.id,
		Metrics:         metricNames(f.Metrics),
		Plans:           plans,
		Iterations:      f.Iterations,
		ElapsedMS:       float64(f.Elapsed) / float64(time.Millisecond),
		DeadlineExpired: ctx.Err() != nil,
		Cache:           api.CacheStatsJSON{Sets: cs.Sets, Plans: cs.Plans},
	}
}

func costSlice(p *rmq.Plan) []float64 {
	out := make([]float64, p.Cost.Dim())
	for i := range out {
		out[i] = p.Cost.At(i)
	}
	return out
}

// sseWriter writes server-sent events, deferring the 200 header to the
// first event so option errors surfaced by Optimize before any
// progress can still be reported with a proper error status.
type sseWriter struct {
	w       http.ResponseWriter
	fl      http.Flusher
	started bool
}

func (sw *sseWriter) event(name string, v any) {
	if !sw.started {
		sw.started = true
		h := sw.w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Del("Content-Length")
		sw.w.WriteHeader(http.StatusOK)
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", name, data)
	sw.fl.Flush()
}

// streamOptimize runs the request with a progress observer writing SSE
// events. Progress callbacks are serialized by the optimizer and happen
// strictly before Optimize returns, so the writes need no extra lock.
func (s *Server) streamOptimize(ctx context.Context, w http.ResponseWriter, entry *catalogEntry, req *api.OptimizeRequest, opts []rmq.Option) {
	fl, ok := w.(http.Flusher)
	if !ok {
		api.WriteError(w, http.StatusBadRequest, "streaming unsupported by this connection")
		return
	}
	sw := &sseWriter{w: w, fl: fl}
	every := req.ProgressEvery
	if every <= 0 {
		every = 64
	}
	opts = append(opts, rmq.WithProgress(every, func(p rmq.Progress) {
		ev := api.ProgressEvent{
			Iterations: p.Iterations,
			ElapsedMS:  float64(p.Elapsed) / float64(time.Millisecond),
			Plans:      len(p.Plans),
			Frontier:   make([][]float64, len(p.Plans)),
		}
		for i, pl := range p.Plans {
			ev.Frontier[i] = costSlice(pl)
		}
		sw.event("progress", ev)
	}))
	f, err := entry.sess.Optimize(ctx, opts...)
	if err != nil {
		if sw.started {
			sw.event("error", api.ErrorResponse{Error: err.Error()})
		} else {
			api.WriteError(w, errStatus(err), "%v", err)
		}
		return
	}
	s.served.Add(1)
	sw.event("result", s.response(ctx, entry, req, f))
}
