package server

// Live cache-delta replication between rmqd nodes: the serving side of
// warm failover. A catalog registered with replicate_from continuously
// pulls admission deltas from a peer's GET /catalogs/{id}/deltas and
// merges them into its own live session, so when a router fails over,
// the surviving replica answers from frontiers that track the
// primary's — warm latency, not a cold rebuild.
//
// The protocol is cursor-based and loss-tolerant by construction
// (rmq-delt/v1, internal/snapshot): a delta ships every changed
// bucket's whole frontier, the receiver merges through ordinary
// admission, and repeated or overlapping pulls are idempotent. The
// cursors a puller presents are only meaningful against the primary
// incarnation that issued them, so each catalog gets a random instance
// id at registration; a pull whose cursors name another incarnation —
// or a future the primary's stores never reached, which proves the
// same thing — is answered 410 Gone, and the puller falls back to a
// full pull from cursor zero. The full pull carries the same frontiers
// a snapshot bootstrap would, through the same merge path, so
// partition recovery and primary restarts need no separate resync
// machinery.
//
// Failure semantics: replication never gates registration. A replica
// whose peers are all down registers, serves (cold), and keeps
// retrying in the background — a degraded single-replica catalog, not
// a failed one. Every pull goes through the injectable transport
// (site replica.pull), so chaos profiles can partition the
// replication path specifically.

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rmq"
	"rmq/client"
	"rmq/internal/api"
	"rmq/internal/faultinject"
)

// newInstance draws a catalog's incarnation id: random, never zero
// (zero is the wire's "no cursor yet").
func newInstance() uint64 {
	var b [8]byte
	//rmq:allow-loop(rejection sampling over 1/2^64 of the space; terminates after one draw in practice)
	for {
		if _, err := cryptorand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("reading random instance id: %v", err))
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// --- cursor wire form ---
//
// The since query parameter of GET /catalogs/{id}/deltas:
//
//	<instance-hex>@<tag-hex>:<seq>[,<tag-hex>:<seq>...]
//
// Tags are hex-encoded because metric-subset tags are raw bytes, not
// printable text. An absent parameter is a full pull from zero.

// encodeSince renders a puller's cursors; empty when there are none
// yet.
func encodeSince(instance uint64, cursors map[string]uint64) string {
	if instance == 0 || len(cursors) == 0 {
		return ""
	}
	tags := make([]string, 0, len(cursors))
	for tag := range cursors {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	var b strings.Builder
	fmt.Fprintf(&b, "%016x", instance)
	sep := byte('@')
	for _, tag := range tags {
		b.WriteByte(sep)
		sep = ','
		b.WriteString(hex.EncodeToString([]byte(tag)))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(cursors[tag], 10))
	}
	return b.String()
}

// parseSince parses the since parameter.
func parseSince(s string) (instance uint64, cursors map[string]uint64, err error) {
	inst, rest, found := strings.Cut(s, "@")
	if !found {
		return 0, nil, fmt.Errorf("since: missing @ after the instance id")
	}
	if instance, err = strconv.ParseUint(inst, 16, 64); err != nil || instance == 0 {
		return 0, nil, fmt.Errorf("since: bad instance id %q", inst)
	}
	cursors = make(map[string]uint64)
	for _, part := range strings.Split(rest, ",") {
		tagHex, seqStr, found := strings.Cut(part, ":")
		if !found {
			return 0, nil, fmt.Errorf("since: bad cursor %q", part)
		}
		tag, err := hex.DecodeString(tagHex)
		if err != nil {
			return 0, nil, fmt.Errorf("since: bad tag in %q: %v", part, err)
		}
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("since: bad sequence in %q: %v", part, err)
		}
		cursors[string(tag)] = seq
	}
	return instance, cursors, nil
}

// --- serving side ---

// handleGetDeltas serves a catalog's admission deltas since the
// presented cursors as one rmq-delt/v1 stream. Cursors from another
// incarnation — an explicit instance mismatch, or a sequence beyond
// anything this incarnation's stores issued — get 410 Gone: the puller
// must drop its cursors and pull from zero.
func (s *Server) handleGetDeltas(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := s.catalog(id)
	if e == nil {
		api.WriteError(w, http.StatusNotFound, "unknown catalog %q", id)
		return
	}
	var since map[string]uint64
	if q := r.URL.Query().Get("since"); q != "" {
		inst, cursors, err := parseSince(q)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if inst != e.instance {
			api.WriteError(w, http.StatusGone, "cursors are for instance %016x, this is %016x: pull from zero", inst, e.instance)
			return
		}
		watermarks := e.sess.DeltaCursors()
		for tag, seq := range cursors {
			if seq > watermarks[tag] {
				api.WriteError(w, http.StatusGone, "cursor %d is beyond this instance's history (%d): pull from zero", seq, watermarks[tag])
				return
			}
		}
		since = cursors
	}
	data, _, err := e.sess.EncodeDeltas(e.instance, since)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, "encoding deltas: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// --- pulling side ---

// replicator is one catalog's background delta puller.
type replicator struct {
	sess     *rmq.Session
	id       string // local catalog id, for logs
	peers    []string
	interval time.Duration
	client   *client.Client
	logf     func(format string, args ...any)

	cancel context.CancelFunc
	done   chan struct{}

	pulls, admitted, resyncs, failures atomic.Uint64
	attempted, warm                    atomic.Bool

	mu          sync.Mutex
	lastErr     string
	next        int // peer rotation position
	srcInstance uint64
	cursors     map[string]uint64
}

// startReplicator attaches a replicator to a freshly installed entry
// and starts its pull loop. Called with s.mu held, so readers that
// found the entry through the map see the field.
func (s *Server) startReplicator(e *catalogEntry, peers []string) {
	interval := s.cfg.ReplicateInterval
	if interval <= 0 {
		interval = time.Second
	}
	r := &replicator{
		sess:     e.sess,
		id:       e.id,
		peers:    peers,
		interval: interval,
		client: &client.Client{
			HTTP:       &http.Client{Transport: faultinject.Transport("replica.pull", nil)},
			MaxRetries: 1,
			BaseDelay:  50 * time.Millisecond,
			MaxDelay:   interval,
		},
		logf: s.logf,
		done: make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	r.cancel = cancel
	e.repl = r
	go r.run(ctx)
}

// stop ends the pull loop and waits for it.
func (r *replicator) stop() {
	r.cancel()
	<-r.done
}

// run pulls immediately (fast warm bootstrap), then on every tick.
func (r *replicator) run(ctx context.Context) {
	defer close(r.done)
	r.pullRound(ctx)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.pullRound(ctx)
		}
	}
}

// pullRound tries peers in rotation until one pull succeeds, then
// sticks with that peer for the next round.
func (r *replicator) pullRound(ctx context.Context) {
	defer r.attempted.Store(true)
	for i := range r.peers {
		if ctx.Err() != nil {
			return
		}
		r.mu.Lock()
		idx := (r.next + i) % len(r.peers)
		r.mu.Unlock()
		if r.pullFrom(ctx, r.peers[idx]) {
			r.mu.Lock()
			r.next = idx
			r.mu.Unlock()
			return
		}
	}
}

// pullFrom performs one pull against one peer: fetch deltas since our
// cursors, merge, adopt the new cursors. A 410 means our cursors name
// a history the peer does not serve (restarted primary, or rotation
// moved us to a different peer): drop them and pull this peer from
// zero — a full pull is snapshot-equivalent and flows through the same
// idempotent merge.
func (r *replicator) pullFrom(ctx context.Context, peer string) bool {
	r.pulls.Add(1)
	r.mu.Lock()
	since := encodeSince(r.srcInstance, r.cursors)
	r.mu.Unlock()
	target := peer + "/deltas"
	if since != "" {
		target += "?since=" + url.QueryEscape(since)
	}
	data, err := r.client.FetchURL(ctx, target)
	if err != nil {
		var serr *client.StatusError
		if errors.As(err, &serr) && serr.Status == http.StatusGone {
			r.resyncs.Add(1)
			r.mu.Lock()
			r.srcInstance, r.cursors = 0, nil
			r.mu.Unlock()
			r.logf("catalog %s: replication cursors rejected by %s, resyncing from zero", r.id, peer)
			data, err = r.client.FetchURL(ctx, peer+"/deltas")
		}
		if err != nil {
			r.fail(err)
			return false
		}
	}
	applied, err := r.sess.ApplyDeltas(data)
	if err != nil {
		r.fail(err)
		return false
	}
	r.mu.Lock()
	r.srcInstance, r.cursors = applied.Instance, applied.Cursors
	r.mu.Unlock()
	r.admitted.Add(uint64(applied.Admitted))
	r.warm.Store(true)
	return true
}

func (r *replicator) fail(err error) {
	r.failures.Add(1)
	r.mu.Lock()
	r.lastErr = err.Error()
	r.mu.Unlock()
}

// stats snapshots the puller for GET /stats.
func (r *replicator) stats() *api.ReplicationStats {
	r.mu.Lock()
	lastErr, inst := r.lastErr, r.srcInstance
	r.mu.Unlock()
	st := &api.ReplicationStats{
		Peers:     r.peers,
		Pulls:     r.pulls.Load(),
		Admitted:  r.admitted.Load(),
		Resyncs:   r.resyncs.Load(),
		Failures:  r.failures.Load(),
		LastError: lastErr,
		Attempted: r.attempted.Load(),
		Warm:      r.warm.Load(),
	}
	if inst != 0 {
		st.SourceInstance = fmt.Sprintf("%016x", inst)
	}
	return st
}

// validateReplicateFrom checks a registration's replication peers: the
// feature needs the outbound-fetch opt-in (the server will issue
// requests to caller-supplied URLs on a timer), and each peer must be
// an absolute http(s) catalog URL. Peer liveness is deliberately not
// checked — a registration must succeed with every peer down.
func (s *Server) validateReplicateFrom(peers []string) error {
	if len(peers) == 0 {
		return nil
	}
	if !s.cfg.AllowSnapshotFetch {
		return fmt.Errorf("replicate_from requires the server to allow outbound snapshot fetches")
	}
	for _, p := range peers {
		u, err := url.Parse(p)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("replicate_from peer %q must be an absolute http(s) URL", p)
		}
	}
	return nil
}

// --- lifecycle and readiness ---

// StartDrain marks the server as draining: /readyz reports unready so
// routers stop picking this node, while in-flight and late-arriving
// requests still serve. Call before http.Server.Shutdown for a
// connection-error-free handoff.
func (s *Server) StartDrain() {
	if !s.draining.Swap(true) {
		s.logf("draining: /readyz now reports unready")
	}
}

// Close stops all background replication pullers and waits for them.
// The server still serves requests afterwards; Close only ends its
// outbound activity.
func (s *Server) Close() {
	s.cancelAll()
	for _, e := range s.entries() {
		if e.repl != nil {
			<-e.repl.done
		}
	}
}

// handleReadyz is the readiness probe, distinct from /healthz
// liveness: a live process is not ready while checkpoint replay is
// still registering catalogs, while draining for shutdown, or before
// every replicated catalog has completed its first pull round
// (success or failure — a dead peer must not wedge readiness, it just
// means serving cold).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.replaying.Load() {
		reasons = append(reasons, "checkpoint replay in progress")
	}
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	for _, e := range s.entries() {
		if e.repl != nil && !e.repl.attempted.Load() {
			reasons = append(reasons, fmt.Sprintf("catalog %s awaiting first replication pull", e.id))
		}
	}
	api.WriteReady(w, reasons)
}
