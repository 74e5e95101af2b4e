// Command rmqrouter fronts a set of rmqd nodes as one fault-tolerant
// optimization service. Each registered catalog is consistent-hashed
// onto a replica set (-replication nodes, default 2); the replicas pull
// plan-cache deltas from the primary continuously, so any of them can
// answer a query warm. Every replica registers with the same spec,
// retention α included, so replicas serve at the primary's α whatever
// node they land on. Queries forward to the first ready replica and
// fail over on node failure; backpressure (429 + Retry-After) from a
// live node passes through untouched. A health prober with hysteresis
// decides which nodes receive traffic, and a repair loop re-grows
// placements that lost replicas, seeding the newcomer from the
// survivors.
//
//	rmqd -addr :8081 -allow-snapshot-fetch &
//	rmqd -addr :8082 -allow-snapshot-fetch &
//	rmqrouter -addr :8080 -nodes http://localhost:8081,http://localhost:8082
//
//	curl -s -X POST localhost:8080/catalogs \
//	    -d '{"generate":{"tables":20,"graph":"chain","seed":1}}'
//	curl -s -X POST localhost:8080/optimize -d '{"catalog":"r1","timeout_ms":200}'
//	curl -s localhost:8080/stats
//
// The nodes must run with -allow-snapshot-fetch: replica registration
// uses replicate_from, which makes nodes fetch from peer URLs.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rmq/internal/cluster"
	"rmq/internal/faultinject"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		nodes       = flag.String("nodes", "", "comma-separated rmqd base URLs, e.g. http://h1:8080,http://h2:8080 (required)")
		replication = flag.Int("replication", 2, "replicas per catalog (capped at the node count)")
		probeEvery  = flag.Duration("probe-interval", 500*time.Millisecond, "node health probe interval")
		repairEvery = flag.Duration("repair-interval", 2*time.Second, "how often degraded placements are re-grown onto spare nodes")
		grace       = flag.Duration("shutdown-grace", 15*time.Second, "how long SIGTERM waits for in-flight requests before closing")
		faults      = flag.String("faults", "", "fault-injection profile for chaos runs, e.g. 'router.forward=partition@0.05' (also via RMQ_FAULTS)")
		quiet       = flag.Bool("quiet", false, "suppress per-event logging")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "rmqrouter: ", log.LstdFlags)
	if spec, err := faultinject.Arm(*faults); err != nil {
		logger.Fatalf("bad fault profile: %v", err)
	} else if spec != "" {
		logger.Printf("FAULT INJECTION ACTIVE: %s", spec)
	}

	var nodeList []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodeList = append(nodeList, strings.TrimRight(n, "/"))
		}
	}
	cfg := cluster.Config{
		Nodes:          nodeList,
		Replication:    *replication,
		Health:         cluster.HealthConfig{Interval: *probeEvery},
		RepairInterval: *repairEvery,
	}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		logger.Fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt.Start(ctx)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Printf("routing %d nodes on %s (replication %d)", len(nodeList), *addr, *replication)

	select {
	case err := <-errc:
		logger.Printf("serve: %v", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Printf("signal received; draining for up to %v", *grace)
	shCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		logger.Printf("grace expired (%v); closing", err)
		httpSrv.Close()
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("%v", err)
		os.Exit(1)
	}
	logger.Printf("shut down cleanly")
}
