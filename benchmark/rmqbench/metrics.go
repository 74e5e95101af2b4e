package main

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// metric is one measured value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one workload run: the counts behind correct/attempted/
// failed and every metric it measured, by name.
type result struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Violations []string          `json:"violations,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

const maxViolations = 10 // failure messages kept per run

// buildResult turns what a run measured into metrics: the end-to-end
// metrics, the workload's own detail (warm/cold percentiles, restart
// phases, error rate) and, for a traced run, the per-layer metrics.
func buildResult(name string, c *runCtx, d *runData, spans []span) *result {
	r := &result{Workload: name, Seed: c.seed, Trace: c.tr != nil, Correct: true, Metrics: map[string]metric{}}
	set := func(name, unit string, v float64, n int) {
		// JSON has no infinities or NaN. +Inf is a percentile reached by
		// failed operations; NaN a statistic of no samples, which only a
		// run whose operations all failed has.
		switch {
		case math.IsInf(v, 1):
			v = math.MaxFloat64
		case math.IsNaN(v):
			v = 0
		}
		r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
	}

	for _, o := range d.all {
		r.Attempted++
		if o.err == nil {
			continue
		}
		r.Failed++
		if errors.Is(o.err, errWrongOutput) {
			r.Correct = false
		}
		if len(r.Violations) < maxViolations {
			r.Violations = append(r.Violations, fmt.Sprintf("%s %d: %v", o.kind, o.key, o.err))
		}
	}

	// End-to-end times are normalized to the calibration (calib.go);
	// the raw ones follow as detail.
	setups := make([]float64, len(d.setups))
	rawSetups := make([]float64, len(d.setups))
	for i, s := range d.setups {
		setups[i], rawSetups[i] = normalize(s, d.setupCals[i]).Seconds(), s.Seconds()
	}
	set("setup_s", "s", median(setups), len(setups))
	lat := latencies(d.lat, "", true)
	set("p50_norm_ms", "ms", percentile(lat, 50), len(lat))
	ok := succeeded(d.tput)
	set("ops_norm_per_s", "1/s", float64(len(ok))/d.tTime.norm.Seconds(), len(ok))
	set("allocs_per_op", "count", float64(d.rt.allocObjects)/float64(d.rtOps), d.rtOps)
	set("live_heap_mb", "MB", float64(d.liveHeap)/1e6, 1)
	var eps []float64
	for _, o := range succeeded(d.all) {
		if o.eps > 0 {
			eps = append(eps, o.eps)
		}
	}
	set("alpha_gm", "ratio", geomean(eps), len(eps))

	// Workload detail.
	set("setup_raw_s", "s", median(rawSetups), len(rawSetups))
	rawLat := latencies(d.lat, "", false)
	set("p50_ms", "ms", percentile(rawLat, 50), len(rawLat))
	set("p90_ms", "ms", percentile(rawLat, 90), len(rawLat))
	set("ops_per_s", "1/s", float64(len(ok))/d.tTime.wall.Seconds(), len(ok))
	cals := make([]float64, len(d.all))
	for i, o := range d.all {
		cals[i] = ms(o.cal)
	}
	set("cal_ms", "ms", median(cals), len(cals))
	set("error_rate", "ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Attempted)
	if warm := latencies(d.lat, "warm", false); len(warm) > 0 {
		set("warm_p50_ms", "ms", percentile(warm, 50), len(warm))
		set("warm_p99_ms", "ms", percentile(warm, 99), len(warm))
	}
	cold := append(latencies(d.lat, "cold", false), latencies(d.lat, "query", false)...)
	if len(cold) > 0 {
		set("cold_p50_ms", "ms", percentile(cold, 50), len(cold))
		set("cold_p90_ms", "ms", percentile(cold, 90), len(cold))
	}
	if d.serve {
		set("capacity_qps", "1/s", r.Metrics["ops_per_s"].Value, len(ok))
	}
	iters := 0
	for _, o := range ok {
		iters += o.iterations
	}
	if name == "large-cold" {
		set("iters_per_s", "1/s", float64(iters)/d.tTime.wall.Seconds(), len(ok))
	}
	if name == "restart" {
		enc := durations(d.all, "cycle", func(o op) time.Duration { return o.encode })
		res := durations(d.all, "cycle", func(o op) time.Duration { return o.restore })
		first := durations(d.all, "cycle", func(o op) time.Duration { return o.call })
		set("encode_ms", "ms", median(enc), len(enc))
		set("restore_ms", "ms", median(res), len(res))
		set("first_query_ms", "ms", median(first), len(first))
	}

	if c.tr != nil {
		layerMetrics(set, d, spans)
	}
	return r
}

// latencies are the operations' latencies in ms, optionally of one
// kind and normalized to the calibration; a failed operation counts as
// +Inf, missing every latency limit.
func latencies(ops []op, kind string, norm bool) []float64 {
	var out []float64
	for _, o := range ops {
		switch {
		case kind != "" && o.kind != kind:
		case o.err != nil:
			out = append(out, math.Inf(1))
		case norm:
			out = append(out, ms(normalize(o.lat, o.cal)))
		default:
			out = append(out, ms(o.lat))
		}
	}
	return out
}

func succeeded(ops []op) []op {
	var out []op
	for _, o := range ops {
		if o.err == nil {
			out = append(out, o)
		}
	}
	return out
}

// durations extracts one duration, in ms, of every successful operation
// of a kind.
func durations(ops []op, kind string, f func(op) time.Duration) []float64 {
	var out []float64
	for _, o := range succeeded(ops) {
		if o.kind == kind {
			out = append(out, ms(f(o)))
		}
	}
	return out
}

// layerMetrics derives the per-layer metrics of a traced run. Per
// operation, each layer's self time is its span minus the span of the
// layer below: client = call − handler, server = handler − run time
// (decode, admission, pool, sort, encode, write), rmq = Optimize − run
// time, opt = run time − the core spans inside it. Layers a workload
// does not pass through read 0.
func layerMetrics(set func(name, unit string, v float64, n int), d *runData, spans []span) {
	type sums struct {
		handler, init, steps, frontier time.Duration
		nSteps                         int
	}
	byKey := map[uint64]*sums{}
	var stepUS, registerMS []float64
	for _, s := range spans {
		k := byKey[s.Key]
		if k == nil {
			k = &sums{}
			byKey[s.Key] = k
		}
		switch s.Name {
		case "server.handler":
			k.handler += s.dur()
		case "server.register":
			registerMS = append(registerMS, ms(s.dur()))
		case "core.init":
			k.init += s.dur()
		case "core.step":
			k.steps += s.dur()
			k.nSteps++
			stepUS = append(stepUS, us(s.dur()))
		case "core.frontier":
			k.frontier += s.dur()
		}
	}

	var calls, clientSelf, handler, serverSelf, rmqSelf, optRun, optSelf, coreInit, coreSteps, coreFrontier []float64
	tracedOps, steps := 0, 0
	for _, o := range succeeded(d.all) {
		k := byKey[o.key]
		if !o.traced || k == nil {
			continue
		}
		tracedOps++
		steps += k.nSteps
		if o.kind == "cold" {
			continue // its call spans a registration and an optimize
		}
		calls = append(calls, ms(o.call))
		if d.serve {
			clientSelf = append(clientSelf, ms(o.call-k.handler))
			handler = append(handler, ms(k.handler))
			serverSelf = append(serverSelf, ms(k.handler-o.run))
		} else {
			rmqSelf = append(rmqSelf, ms(o.call-o.run))
		}
		optRun = append(optRun, ms(o.run))
		optSelf = append(optSelf, ms(o.run-k.init-k.steps-k.frontier))
		coreInit = append(coreInit, ms(k.init))
		coreSteps = append(coreSteps, ms(k.steps))
		coreFrontier = append(coreFrontier, ms(k.frontier))
	}
	// p50 of no samples is 0 here, not NaN: it feeds sums below.
	p50 := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		return percentile(v, 50)
	}
	set("client.self_p50_ms", "ms", p50(clientSelf), len(clientSelf))
	set("client.retries", "count", float64(d.retries), 1)
	set("server.handler_p50_ms", "ms", p50(handler), len(handler))
	set("server.handler_p99_ms", "ms", percentile(handler, 99), len(handler))
	set("server.self_p50_ms", "ms", p50(serverSelf), len(serverSelf))
	set("server.register_p50_ms", "ms", p50(registerMS), len(registerMS))
	set("server.rejected", "count", float64(d.rejected), 1)
	set("rmq.self_p50_ms", "ms", p50(rmqSelf), len(rmqSelf))
	set("opt.run_p50_ms", "ms", p50(optRun), len(optRun))
	set("opt.self_p50_ms", "ms", p50(optSelf), len(optSelf))
	set("core.init_p50_ms", "ms", p50(coreInit), len(coreInit))
	set("core.step_p50_us", "us", p50(stepUS), len(stepUS))
	set("core.step_p99_us", "us", percentile(stepUS, 99), len(stepUS))
	set("core.steps_per_op", "count", float64(steps)/float64(max(tracedOps, 1)), tracedOps)

	// Self times along the blocking path should add up to the call.
	parts := []float64{p50(clientSelf), p50(serverSelf), p50(rmqSelf), p50(optSelf), p50(coreInit), p50(coreSteps), p50(coreFrontier)}
	sum := 0.0
	for _, v := range parts {
		sum += v
	}
	set("trace.coverage_pct", "%", 100*sum/percentile(calls, 50), len(calls))

	// Overhead: traced against untraced operations of the same kind,
	// interleaved in the same run.
	primary := map[string]bool{"warm": true, "query": true, "cycle": true}
	var tracedLat, plainLat []float64
	for _, o := range succeeded(d.lat) {
		switch {
		case !primary[o.kind]:
		case o.traced:
			tracedLat = append(tracedLat, ms(o.lat))
		default:
			plainLat = append(plainLat, ms(o.lat))
		}
	}
	base := percentile(plainLat, 50)
	set("trace.overhead_pct", "%", 100*(percentile(tracedLat, 50)-base)/base, len(tracedLat))

	// Off the timed path: random plan and climb phases on fresh problems.
	off := d.off
	random, climb := usSlice(off.random), usSlice(off.climb)
	moves := make([]float64, len(off.moves))
	for i, m := range off.moves {
		moves[i] = float64(m)
	}
	set("randplan.random_p50_us", "us", p50(random), len(random))
	set("core.climb_p50_us", "us", p50(climb), len(climb))
	set("core.climb_moves_mean", "count", mean(moves), len(moves))
	set("core.frontier_p50_us", "us", p50(stepUS)-p50(random)-p50(climb), len(stepUS))
	gen, prob := msSlice(off.generate), msSlice(off.problem)
	set("catalog.generate_ms", "ms", p50(gen), len(gen))
	set("costmodel.problem_ms", "ms", p50(prob), len(prob))

	// Restart phases, cache and snapshot sizes, runtime.
	enc := durations(d.all, "cycle", func(o op) time.Duration { return o.encode })
	res := durations(d.all, "cycle", func(o op) time.Duration { return o.restore })
	set("rmq.snapshot_p50_ms", "ms", p50(enc), len(enc))
	set("rmq.snapshot_p90_ms", "ms", percentile(enc, 90), len(enc))
	set("rmq.restore_p50_ms", "ms", p50(res), len(res))
	set("rmq.restore_p90_ms", "ms", percentile(res, 90), len(res))
	set("rmq.pool_high_water", "count", float64(d.poolHigh), 1)
	set("cache.plans", "count", float64(d.cache.Plans), 1)
	set("cache.sets", "count", float64(d.cache.Sets), 1)
	set("cache.bytes_est_mb", "MB", float64(d.cache.Bytes)/1e6, 1)
	heapPerEst := 0.0
	if d.cache.Bytes > 0 {
		heapPerEst = float64(d.liveHeap) / float64(d.cache.Bytes)
	}
	set("cache.heap_per_est", "ratio", heapPerEst, 1)
	set("cache.shed_events", "count", float64(d.shedEvents), 1)
	set("cache.effective_retention", "ratio", d.effRetention, 1)
	set("snapshot.mb", "MB", float64(d.snapshotBytes)/1e6, 1)
	perPlan := 0.0
	if d.snapshotPlans > 0 {
		perPlan = float64(d.snapshotBytes) / float64(d.snapshotPlans)
	}
	set("snapshot.bytes_per_plan", "bytes", perPlan, 1)
	late := lateMS(d)
	set("loadgen.late_p99_ms", "ms", percentile(late, 99), len(late))
	set("runtime.gc_cycles", "count", float64(d.rt.gcCycles), 1)
	set("runtime.gc_pause_p99_ms", "ms", ms(d.rt.gcPauseP99), 1)
	set("runtime.gc_cpu_pct", "%", d.rt.gcCPUPct, 1)
	set("runtime.peak_rss_mb", "MB", float64(peakRSSBytes())/1e6, 1)
	set("runtime.alloc_mb_per_op", "MB", float64(d.rt.allocBytes)/1e6/float64(d.rtOps), d.rtOps)
	plans := 0.0
	ok := succeeded(d.all)
	for _, o := range ok {
		plans += float64(o.plans)
	}
	set("quality.frontier_plans_mean", "count", plans/float64(max(len(ok), 1)), len(ok))
}

// lateMS is how late the open-loop generator dispatched each operation.
func lateMS(d *runData) []float64 {
	if !d.serve {
		return nil
	}
	out := make([]float64, len(d.lat))
	for i, o := range d.lat {
		out[i] = ms(o.late)
	}
	return out
}

func usSlice(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func msSlice(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
