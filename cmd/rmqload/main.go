// Command rmqload replays a mixed optimization workload against an
// rmqd server and reports sustained throughput and tail latency, split
// into the two traffic classes a serving deployment cares about:
//
//   - warm: repeated queries against a pool of pre-registered catalogs,
//     answered from each catalog session's shared plan cache at a warm
//     iteration budget;
//   - cold: fresh queries — a newly registered catalog optimized once
//     at the full cold budget, then dropped.
//
// Requests also rotate through metric subsets (all three, time+buffer,
// time), exercising the per-subset stores of each session.
//
// All traffic goes through the retrying client package: 429 admission
// rejections are retried after the server's Retry-After hint, and
// transient failures of idempotent calls back off and retry. Each class
// reports its retry traffic (retried, abandoned) alongside latency, so
// a chaos run shows how much of the injected failure the retry layer
// absorbed and how much surfaced.
//
//	rmqload -addr http://localhost:8080 -clients 8 -duration 10s
//	rmqload -duration 5s            # no -addr: serves in-process
//
// With -timeout-ms the workload switches from iteration budgets to
// deadline budgets: every request carries timeout_ms and latency
// converges to the deadline while quality varies — the anytime serving
// mode.
//
// The -assert-* flags turn a run into a pass/fail check for CI: after
// reporting, the process exits 1 if a tail-latency bound, the error
// rate, or the minimum request count is violated.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rmq/client"
	"rmq/internal/api"
	"rmq/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "", "rmqd base URL; empty starts an in-process server")
		duration  = flag.Duration("duration", 10*time.Second, "how long to generate load")
		clients   = flag.Int("clients", 4, "concurrent client goroutines")
		catalogs  = flag.Int("catalogs", 4, "pre-registered warm catalogs")
		tables    = flag.Int("tables", 24, "tables per catalog")
		graph     = flag.String("graph", "chain", "join graph shape: chain, cycle or star")
		repeat    = flag.Float64("repeat", 0.8, "fraction of requests that repeat a warm catalog")
		coldIters = flag.Int("cold-iters", 400, "iteration budget of cold (fresh-catalog) requests")
		warmIters = flag.Int("warm-iters", 40, "iteration budget of warm (repeated) requests")
		timeoutMS = flag.Float64("timeout-ms", 0, "use a deadline budget (ms) for every request instead of iteration budgets")
		seed      = flag.Uint64("seed", 1, "base seed for catalogs and requests")
		retries   = flag.Int("max-retries", 4, "retry attempts per call before a request is abandoned (0 = no retries)")

		assertWarmP99  = flag.Duration("assert-warm-p99", 0, "exit 1 if warm-class p99 latency exceeds this (0 = no check)")
		assertColdP99  = flag.Duration("assert-cold-p99", 0, "exit 1 if cold-class p99 latency exceeds this (0 = no check)")
		assertErrRate  = flag.Float64("assert-max-error-rate", -1, "exit 1 if errors/requests across both classes exceeds this fraction (negative = no check)")
		assertMinTotal = flag.Int("assert-min-requests", 0, "exit 1 if fewer total requests completed (0 = no check)")
	)
	flag.Parse()

	base := *addr
	if base == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatalf("%v", err)
		}
		srv := &http.Server{Handler: server.New(server.Config{MaxInFlight: 2 * *clients})}
		go srv.Serve(ln)
		defer srv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Printf("in-process rmqd on %s\n", base)
	}
	base = strings.TrimSuffix(base, "/")

	// One Client per traffic class over a shared transport: the
	// connection pool is common, the retry accounting is per class.
	// The client reads MaxRetries 0 as its default and a negative value
	// as no retries, so -max-retries 0 maps to -1.
	maxRetries := *retries
	if maxRetries == 0 {
		maxRetries = -1
	}
	httpc := &http.Client{}
	warmC := &client.Client{Base: base, HTTP: httpc, MaxRetries: maxRetries}
	coldC := &client.Client{Base: base, HTTP: httpc, MaxRetries: maxRetries}
	ctx := context.Background()

	// Pre-register the warm catalog pool and prime each with one cold
	// call so the measured warm class is actually warm.
	warmIDs := make([]string, *catalogs)
	for i := range warmIDs {
		id, err := registerCatalog(ctx, coldC, *tables, *graph, *seed+uint64(i))
		if err != nil {
			fatalf("register: %v", err)
		}
		warmIDs[i] = id
		if *timeoutMS == 0 {
			s := *seed
			if _, err := coldC.Optimize(ctx, api.OptimizeRequest{
				Catalog: id, MaxIterations: *coldIters, Seed: &s,
			}); err != nil {
				fatalf("priming %s: %v", id, err)
			}
		}
	}
	fmt.Printf("workload: %d warm catalogs × %d tables (%s), repeat %.2f, %d clients, %v\n",
		*catalogs, *tables, *graph, *repeat, *clients, *duration)

	var (
		wg       sync.WaitGroup
		reqSeed  atomic.Uint64
		rejected atomic.Uint64
		results  = make([]classStats, *clients*2) // [client*2]: warm, cold
		deadline = time.Now().Add(*duration)
	)
	reqSeed.Store(*seed * 1000)
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(*seed, uint64(c)))
			warm, cold := &results[c*2], &results[c*2+1]
			for time.Now().Before(deadline) {
				s := reqSeed.Add(1)
				req := api.OptimizeRequest{
					Seed:    &s,
					Metrics: metricSubsets[rng.IntN(len(metricSubsets))],
				}
				if *timeoutMS > 0 {
					req.TimeoutMS = *timeoutMS
				}
				if rng.Float64() < *repeat {
					req.Catalog = warmIDs[rng.IntN(len(warmIDs))]
					if *timeoutMS == 0 {
						req.MaxIterations = *warmIters
					}
					warm.record(ctx, warmC, req, &rejected)
				} else {
					// A register failure (e.g. under fault injection) fails
					// this cold request, not the whole run.
					id, err := registerCatalog(ctx, coldC, *tables, *graph, s)
					if err != nil {
						cold.errors++
						continue
					}
					req.Catalog = id
					if *timeoutMS == 0 {
						req.MaxIterations = *coldIters
					}
					cold.record(ctx, coldC, req, &rejected)
					_ = coldC.Delete(ctx, id)
				}
			}
		}(c)
	}
	wg.Wait()

	var warm, cold classStats
	for c := 0; c < *clients; c++ {
		warm.merge(&results[c*2])
		cold.merge(&results[c*2+1])
	}
	fmt.Printf("\n%-6s %9s %7s %8s %10s %12s %9s %9s %9s %9s %7s\n",
		"class", "requests", "errors", "retried", "abandoned", "throughput", "p50", "p90", "p99", "max", "plans")
	warm.report("warm", *duration, warmC.Metrics())
	cold.report("cold", *duration, coldC.Metrics())
	if n := rejected.Load(); n > 0 {
		fmt.Printf("abandoned as 429 after retries (admission control): %d\n", n)
	}
	printServerStats(ctx, warmC)

	// CI assertions: every violated bound is reported before the
	// process exits 1, so a failing nightly run shows the full picture.
	failed := false
	failf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "rmqload: ASSERT FAILED: "+format+"\n", args...)
		failed = true
	}
	if *assertWarmP99 > 0 {
		if p99 := warm.quantile(0.99); p99 > *assertWarmP99 {
			failf("warm p99 %v exceeds %v", p99.Round(100*time.Microsecond), *assertWarmP99)
		}
	}
	if *assertColdP99 > 0 {
		if p99 := cold.quantile(0.99); p99 > *assertColdP99 {
			failf("cold p99 %v exceeds %v", p99.Round(100*time.Microsecond), *assertColdP99)
		}
	}
	total := len(warm.latencies) + len(cold.latencies)
	errs := warm.errors + cold.errors
	if *assertErrRate >= 0 && total+errs > 0 {
		if rate := float64(errs) / float64(total+errs); rate > *assertErrRate {
			failf("error rate %.4f (%d/%d) exceeds %.4f", rate, errs, total+errs, *assertErrRate)
		}
	}
	if *assertMinTotal > 0 && total < *assertMinTotal {
		failf("only %d requests completed, need at least %d", total, *assertMinTotal)
	}
	if failed {
		os.Exit(1)
	}
}

// metricSubsets rotates requests through metric subsets, exercising
// one shared store per subset in each catalog's session.
var metricSubsets = [][]string{nil, {"time", "buffer"}, {"time"}}

type classStats struct {
	latencies []time.Duration
	plans     int
	errors    int
}

// record issues one optimization through the class's retrying client.
// Latency covers the whole call including retries — what a caller of
// the retry layer actually waits. A 429 that survives every retry
// counts as rejected, not as an error; everything else that the retry
// layer could not absorb is an error.
func (cs *classStats) record(ctx context.Context, c *client.Client, req api.OptimizeRequest, rejected *atomic.Uint64) {
	start := time.Now()
	resp, err := c.Optimize(ctx, req)
	if err != nil {
		var serr *client.StatusError
		if errors.As(err, &serr) && serr.Status == http.StatusTooManyRequests {
			rejected.Add(1)
			return
		}
		cs.errors++
		return
	}
	if len(resp.Plans) == 0 {
		cs.errors++
		return
	}
	cs.latencies = append(cs.latencies, time.Since(start))
	cs.plans += len(resp.Plans)
}

func (cs *classStats) merge(other *classStats) {
	cs.latencies = append(cs.latencies, other.latencies...)
	cs.plans += other.plans
	cs.errors += other.errors
}

// quantile returns the p-quantile latency (nearest rank), or 0 with no
// samples. It sorts in place; callers only read latencies afterwards.
func (cs *classStats) quantile(p float64) time.Duration {
	n := len(cs.latencies)
	if n == 0 {
		return 0
	}
	slices.Sort(cs.latencies)
	idx := int(p*float64(n)+0.5) - 1
	return cs.latencies[max(0, min(idx, n-1))]
}

func (cs *classStats) report(name string, elapsed time.Duration, m client.Metrics) {
	n := len(cs.latencies)
	if n == 0 {
		fmt.Printf("%-6s %9d %7d %8d %10d %12s\n", name, 0, cs.errors, m.Retries, m.Abandoned, "-")
		return
	}
	fmt.Printf("%-6s %9d %7d %8d %10d %10.1f/s %9v %9v %9v %9v %7.1f\n",
		name, n, cs.errors, m.Retries, m.Abandoned, float64(n)/elapsed.Seconds(),
		cs.quantile(0.50).Round(100*time.Microsecond), cs.quantile(0.90).Round(100*time.Microsecond),
		cs.quantile(0.99).Round(100*time.Microsecond), cs.latencies[n-1].Round(100*time.Microsecond),
		float64(cs.plans)/float64(n))
}

func registerCatalog(ctx context.Context, c *client.Client, tables int, graph string, seed uint64) (string, error) {
	info, err := c.Register(ctx, api.CatalogRequest{
		Generate: &api.GenerateSpec{Tables: tables, Graph: graph, Seed: seed},
	})
	if err != nil {
		return "", err
	}
	if info.ID == "" {
		return "", fmt.Errorf("register: empty catalog id")
	}
	return info.ID, nil
}

func printServerStats(ctx context.Context, c *client.Client) {
	stats, err := c.Stats(ctx)
	if err != nil {
		return
	}
	fmt.Printf("server: served %d, rejected %d, in-flight %d, contained panics %d\n",
		stats.Served, stats.Rejected, stats.InFlight, stats.Panics)
	if stats.MaxCacheBytes > 0 {
		fmt.Printf("  cache budget: %d / %d bytes, %d shed events\n",
			stats.CacheBytes, stats.MaxCacheBytes, stats.ShedEvents)
	}
	for _, q := range stats.Quarantined {
		fmt.Printf("  quarantined: %s (%s)\n", q.File, q.Reason)
	}
	if len(stats.Faults) > 0 {
		fmt.Printf("  injected faults fired:")
		for site, n := range stats.Faults {
			fmt.Printf(" %s=%d", site, n)
		}
		fmt.Println()
	}
	for _, c := range stats.Catalogs {
		fmt.Printf("  catalog %s: cache %d sets / %d plans, pool %d (high-water %d)\n",
			c.ID, c.Cache.Sets, c.Cache.Plans, c.Pool.Pooled, c.Pool.HighWater)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rmqload: "+format+"\n", args...)
	os.Exit(1)
}
