// Package api is the HTTP edge shared by rmqd, rmqrouter and the
// client: the JSON wire types of the protocol and the helpers that
// read and write them (bounded request decoding, JSON and error
// responses, readiness answers, error-body parsing).
//
// The edge lives in its own package so every side of the wire shares
// one copy: internal/server and internal/cluster serve it, the client
// package (and cmd/rmqload on top of it) calls it, and an rmqd
// replicating another rmqd's catalog through replicate_from does both
// at once. Keeping it out of internal/server breaks the import cycle
// server → client → server that the server-side puller would otherwise
// create.
package api

// TableSpec is one base table of an explicit catalog registration.
type TableSpec struct {
	Name string  `json:"name,omitempty"`
	Rows float64 `json:"rows"`
}

// EdgeSpec is one join-graph edge of an explicit catalog registration.
type EdgeSpec struct {
	A           int     `json:"a"`
	B           int     `json:"b"`
	Selectivity float64 `json:"selectivity"`
}

// GenerateSpec asks the server to generate a random catalog with the
// paper's workload generator instead of listing tables explicitly.
type GenerateSpec struct {
	Tables      int    `json:"tables"`
	Graph       string `json:"graph,omitempty"`       // chain (default), cycle, star
	Selectivity string `json:"selectivity,omitempty"` // steinbrunn (default), minmax
	Seed        uint64 `json:"seed,omitempty"`
}

// CatalogRequest is the body of POST /catalogs: either explicit tables
// (+ optional edges) or a generate spec, plus per-catalog session
// settings. Checkpoint manifests and a router's replicas keep it as
// the catalog's spec: re-registering it rebuilds the same catalog at
// the same retention.
type CatalogRequest struct {
	Name     string        `json:"name,omitempty"`
	Tables   []TableSpec   `json:"tables,omitempty"`
	Edges    []EdgeSpec    `json:"edges,omitempty"`
	Generate *GenerateSpec `json:"generate,omitempty"`
	// Retention is the shared-cache retention precision α ≥ 1 bounding
	// store memory (0 = exact retention). It is the catalog's α on every
	// node and across restarts: warm state taken at another α is refused.
	Retention float64 `json:"retention,omitempty"`
	// ReplicateFrom lists peer catalog URLs (each the prefix of another
	// rmqd's catalog, e.g. "http://node1:8080/catalogs/c7") this catalog
	// continuously pulls cache deltas from. The catalog registers and
	// serves even when every peer is down — replication is a warmth
	// upgrade, not a registration dependency. Requires the server to
	// allow outbound snapshot fetches.
	ReplicateFrom []string `json:"replicate_from,omitempty"`
}

// CatalogInfo describes a registered catalog.
type CatalogInfo struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	Tables int    `json:"tables"`
}

// OptimizeRequest is the body of POST /optimize. TimeoutMS maps to the
// run's context deadline; MaxIterations bounds optimizer steps per
// worker; the remaining fields map to the library's functional options.
type OptimizeRequest struct {
	Catalog       string   `json:"catalog"`
	TimeoutMS     float64  `json:"timeout_ms,omitempty"`
	MaxIterations int      `json:"max_iterations,omitempty"`
	Metrics       []string `json:"metrics,omitempty"` // time, buffer, disc; default all
	Algorithm     string   `json:"algorithm,omitempty"`
	DPAlpha       float64  `json:"dp_alpha,omitempty"`
	Parallelism   int      `json:"parallelism,omitempty"`
	Seed          *uint64  `json:"seed,omitempty"`
	// IncludePlans adds each frontier plan's operator tree to the
	// response (costs alone otherwise).
	IncludePlans bool `json:"include_plans,omitempty"`
	// Stream switches the response to server-sent events: "progress"
	// events with intermediate frontier snapshots roughly every
	// ProgressEvery iterations, then one final "result" event.
	Stream        bool `json:"stream,omitempty"`
	ProgressEvery int  `json:"progress_every,omitempty"`
}

// PlanJSON is one frontier plan on the wire: its cost vector in the
// response's metric order, and optionally the operator tree.
type PlanJSON struct {
	Cost []float64 `json:"cost"`
	Tree string    `json:"tree,omitempty"`
}

// CacheStatsJSON mirrors rmq.CacheStats.
type CacheStatsJSON struct {
	Sets  int `json:"sets"`
	Plans int `json:"plans"`
	// Bytes estimates the retained plan cache's memory footprint.
	Bytes int64 `json:"bytes,omitempty"`
	// IDs is the number of table-set ids the caches' interners hold:
	// one per cached set.
	IDs int `json:"ids,omitempty"`
}

// PoolStatsJSON mirrors rmq.PoolStats.
type PoolStatsJSON struct {
	Pooled    int `json:"pooled"`
	HighWater int `json:"high_water"`
	Dropped   int `json:"dropped"`
}

// OptimizeResponse is the non-streaming /optimize response and the
// payload of a stream's final "result" event.
type OptimizeResponse struct {
	Catalog    string     `json:"catalog"`
	Metrics    []string   `json:"metrics"`
	Plans      []PlanJSON `json:"plans"`
	Iterations int        `json:"iterations"`
	ElapsedMS  float64    `json:"elapsed_ms"`
	// DeadlineExpired reports that the run was ended by its deadline
	// (or a client cancellation) rather than an iteration cap or
	// algorithm completion: the frontier is the anytime best-so-far.
	DeadlineExpired bool           `json:"deadline_expired"`
	Cache           CacheStatsJSON `json:"cache"`
}

// ProgressEvent is the payload of a stream's "progress" events.
type ProgressEvent struct {
	Iterations int         `json:"iterations"`
	ElapsedMS  float64     `json:"elapsed_ms"`
	Plans      int         `json:"plans"`
	Frontier   [][]float64 `json:"frontier"`
}

// QuarantineEvent reports one damaged checkpoint file set aside during
// LoadCheckpoint: the file (relative to the snapshot directory) and why
// it could not be trusted. The server keeps serving — warm when an
// older generation loaded, cold otherwise — but never silently.
type QuarantineEvent struct {
	File   string `json:"file"`
	Reason string `json:"reason"`
}

// StatsResponse is the GET /stats payload.
type StatsResponse struct {
	UptimeMS float64 `json:"uptime_ms"`
	InFlight int     `json:"in_flight"`
	Capacity int     `json:"capacity"`
	Served   uint64  `json:"served"`
	Rejected uint64  `json:"rejected"`
	// Panics counts handler panics contained by the recovery boundary;
	// each failed one request with a 500 instead of killing the process.
	Panics   uint64         `json:"panics,omitempty"`
	Catalogs []CatalogStats `json:"catalogs"`
	// CacheBytes is the estimated memory of all catalogs' shared plan
	// caches; MaxCacheBytes the configured budget (0 = unbounded), and
	// ShedEvents how many times the budget forced a retention tighten.
	CacheBytes    int64  `json:"cache_bytes,omitempty"`
	MaxCacheBytes int64  `json:"max_cache_bytes,omitempty"`
	ShedEvents    uint64 `json:"shed_events,omitempty"`
	// Quarantined lists checkpoint files set aside as damaged at load.
	Quarantined []QuarantineEvent `json:"quarantined,omitempty"`
	// Faults reports fired fault-injection sites when a profile is
	// active (chaos runs only; absent in production).
	Faults map[string]uint64 `json:"faults,omitempty"`
}

// ReplicationStats reports one catalog's delta-replication puller: how
// the replica is tracking its primary.
type ReplicationStats struct {
	// Peers are the catalog URLs the puller rotates across.
	Peers []string `json:"peers"`
	// SourceInstance is the primary incarnation (hex) the cursors are
	// valid against; empty before the first successful pull.
	SourceInstance string `json:"source_instance,omitempty"`
	// Pulls counts pull attempts; Admitted sums plans merged by them.
	Pulls    uint64 `json:"pulls"`
	Admitted uint64 `json:"admitted"`
	// Resyncs counts full re-pulls forced by a 410 (primary restarted or
	// changed identity under the cursors).
	Resyncs uint64 `json:"resyncs,omitempty"`
	// Failures counts pull attempts that failed after retries.
	Failures  uint64 `json:"failures,omitempty"`
	LastError string `json:"last_error,omitempty"`
	// Attempted reports that the puller has completed at least one pull
	// round (success or not) — the readiness gate. Warm reports at least
	// one successful pull.
	Attempted bool `json:"attempted"`
	Warm      bool `json:"warm"`
}

// CatalogStats is one catalog's row in GET /stats.
type CatalogStats struct {
	CatalogInfo
	Requests uint64         `json:"requests"`
	Cache    CacheStatsJSON `json:"cache"`
	Pool     PoolStatsJSON  `json:"pool"`
	// EffectiveRetention is the cache's current retention precision:
	// the registered α, or a coarser one after budget shedding.
	EffectiveRetention float64 `json:"effective_retention,omitempty"`
	// Replication is present for catalogs registered with
	// replicate_from.
	Replication *ReplicationStats `json:"replication,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
