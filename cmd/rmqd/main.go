// Command rmqd serves multi-objective query optimization over
// HTTP/JSON: register catalogs, then optimize against them with
// per-request deadlines, iteration budgets, metric subsets, and
// optional streamed anytime snapshots. Each registered catalog is
// backed by one long-lived session with the shared plan cache, so
// repeated queries warm-start. A catalog's retention α is the one its
// registration names ("retention", exact when absent); there is no
// server-wide default, so a catalog keeps its α across restarts and on
// every replica.
//
//	rmqd -addr :8080
//
//	curl -s -X POST localhost:8080/catalogs \
//	    -d '{"generate":{"tables":20,"graph":"chain","seed":1}}'
//	curl -s -X POST localhost:8080/optimize \
//	    -d '{"catalog":"c1","timeout_ms":200,"metrics":["time","buffer"]}'
//	curl -s localhost:8080/stats
//
// Requests beyond -max-in-flight are rejected with 429 (backpressure
// beats queueing into the deadline); SIGTERM/SIGINT drain in-flight
// requests for up to -shutdown-grace before the process exits 0.
//
// With -snapshot-dir, the accumulated plan caches survive restarts:
// every -snapshot-interval (and once more after the final drain) each
// catalog's registration manifest and rmq-snap/v1 snapshot are written
// to the directory via atomic rename, off the request path; at startup
// the directory is replayed, re-registering every catalog under its old
// id with its session warm-started from the snapshot. A daemon restart
// then serves its first repeated query at warm latency instead of the
// ~9x cold path. A snapshot that does not verify against its manifest
// (damaged, or taken at another α) is quarantined and the catalog
// starts cold. With -allow-snapshot-fetch, a catalog registered with
// replicate_from pulls a peer's cache deltas; that and the snapshot
// directory are the only routes warm state takes into a node.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rmq/internal/faultinject"
	"rmq/internal/server"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		maxInFlight    = flag.Int("max-in-flight", 0, "admitted concurrent /optimize requests; beyond it 429 (0 = 2×GOMAXPROCS)")
		defaultTimeout = flag.Duration("default-timeout", 500*time.Millisecond, "optimization budget when a request names neither timeout_ms nor max_iterations")
		maxTimeout     = flag.Duration("max-timeout", 30*time.Second, "cap on any request budget (also bounds shutdown drain)")
		maxParallel    = flag.Int("max-parallelism", 0, "cap on per-request multi-start parallelism (0 = max(8, 4×GOMAXPROCS))")
		grace          = flag.Duration("shutdown-grace", 15*time.Second, "how long SIGTERM waits for in-flight requests before closing")
		snapshotDir    = flag.String("snapshot-dir", "", "directory for plan-cache checkpoints; restored at startup, written on a timer and at shutdown (empty = no persistence)")
		snapshotEvery  = flag.Duration("snapshot-interval", time.Minute, "how often the background checkpointer persists plan caches to -snapshot-dir")
		maxCacheBytes  = flag.Int64("max-cache-bytes", 0, "budget for the estimated memory of all plan caches; when exceeded the server tightens cache retention instead of growing (0 = unbounded)")
		allowFetch     = flag.Bool("allow-snapshot-fetch", false, "allow registrations carrying replicate_from to pull cache deltas from another rmqd (outbound requests to caller-supplied URLs)")
		replEvery      = flag.Duration("replicate-interval", time.Second, "how often catalogs registered with replicate_from pull cache deltas from their peers")
		faults         = flag.String("faults", "", "fault-injection profile for chaos runs, e.g. 'server.optimize=panic@0.01;checkpoint.write=enospc@0.3' (also via RMQ_FAULTS)")
		pprofAddr      = flag.String("pprof-addr", "", "listen address for the net/http/pprof diagnostics server (empty = disabled); bind it to loopback, the endpoints are unauthenticated")
		quiet          = flag.Bool("quiet", false, "suppress per-event logging")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "rmqd: ", log.LstdFlags)
	// Arm fault injection before anything else runs: -faults wins over
	// the RMQ_FAULTS environment variable when both are given.
	if spec, err := faultinject.Arm(*faults); err != nil {
		logger.Fatalf("bad fault profile: %v", err)
	} else if spec != "" {
		logger.Printf("FAULT INJECTION ACTIVE: %s", spec)
	}
	cfg := server.Config{
		MaxInFlight:        *maxInFlight,
		DefaultTimeout:     *defaultTimeout,
		MaxTimeout:         *maxTimeout,
		MaxParallelism:     *maxParallel,
		SnapshotDir:        *snapshotDir,
		MaxCacheBytes:      *maxCacheBytes,
		AllowSnapshotFetch: *allowFetch,
		ReplicateInterval:  *replEvery,
	}
	if !*quiet {
		cfg.Logf = logger.Printf
	}

	srv := server.New(cfg)
	if *snapshotDir != "" {
		// Replay persisted catalogs before accepting traffic, so clients
		// resume against the ids (and warm caches) they had before the
		// restart. Partial failures degrade to cold catalogs, not a dead
		// daemon.
		if err := srv.LoadCheckpoint(); err != nil {
			logger.Printf("checkpoint load: %v", err)
		}
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// Header and body reads are bounded so trickled uploads cannot
		// pin connections; responses stay unbounded (SSE streams run
		// for the length of the optimization).
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Background checkpointer: periodic durable cuts of every catalog's
	// plan caches, entirely off the request path (the sessions are only
	// read under their own store locks). Stops with the signal context;
	// the post-drain flush below takes the final cut.
	if *snapshotDir != "" && *snapshotEvery > 0 {
		go func() {
			tick := time.NewTicker(*snapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := srv.Checkpoint(); err != nil {
						logger.Printf("checkpoint: %v", err)
					}
				}
			}
		}()
	}

	// Profiling listener: a separate server on its own address so the
	// pprof endpoints never share a port (or a handler namespace) with
	// the serving API. Off by default; registration happens on an
	// explicit mux rather than http.DefaultServeMux so nothing else in
	// the process can leak handlers onto it.
	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: pprofMux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			logger.Printf("pprof on %s", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof serve: %v", err)
			}
		}()
		defer pprofSrv.Close()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Printf("serving on %s (max in-flight %d, default timeout %v, max timeout %v)",
		*addr, srv.Capacity(), cfg.DefaultTimeout, cfg.MaxTimeout)

	select {
	case err := <-errc:
		logger.Printf("serve: %v", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: flip /readyz first so routers stop sending new
	// work, then stop accepting, drain in-flight requests (each bounded
	// by MaxTimeout anyway), then exit 0.
	srv.StartDrain()
	logger.Printf("signal received; draining for up to %v", *grace)
	shCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		logger.Printf("grace expired (%v); closing", err)
		httpSrv.Close()
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "rmqd: %v\n", err)
		os.Exit(1)
	}
	// Stop replication pullers before the final cut so no delta merge
	// races the snapshot writer.
	srv.Close()
	// Final checkpoint after the drain: every admitted request has
	// finished publishing into the caches, so this cut is what the next
	// boot warm-starts from.
	if *snapshotDir != "" {
		if err := srv.Checkpoint(); err != nil {
			logger.Printf("final checkpoint: %v", err)
		}
	}
	logger.Printf("shut down cleanly")
}
