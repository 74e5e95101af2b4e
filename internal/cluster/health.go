package cluster

// Node health with hysteresis. The prober polls every node's /readyz
// (readiness implies liveness: a live-but-unready node must not
// receive traffic either, so one probe suffices). Transitions are
// deliberately sticky — a node is demoted only after downAfter
// consecutive failures and re-admitted only after upAfter consecutive
// successes — so one dropped probe does not flap a healthy node out of
// rotation and one lucky probe does not flap a dying node back in.
// The first probe result adopts directly: a fresh router should not
// need upAfter rounds to discover a healthy cluster.

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rmq/internal/faultinject"
)

// Probe hysteresis: downAfter consecutive probe failures demote a
// ready node, upAfter consecutive successes re-admit a demoted one.
const (
	downAfter = 2
	upAfter   = 3
)

// HealthConfig parameterizes the prober; zero values select defaults.
type HealthConfig struct {
	// Interval between probe rounds. Default 500ms.
	Interval time.Duration
}

// NodeStatus is one node's health row in the router's /stats.
type NodeStatus struct {
	URL   string `json:"url"`
	Ready bool   `json:"ready"`
	// Transitions counts ready-state flips since startup; a flapping
	// backend shows up here even when the current state looks fine.
	Transitions uint64 `json:"transitions,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

// Prober tracks the ready state of a fixed node set.
type Prober struct {
	cfg   HealthConfig
	nodes []string
	httpc *http.Client
	logf  func(format string, args ...any)

	rounds atomic.Uint64

	mu    sync.Mutex
	state map[string]*nodeHealth
}

type nodeHealth struct {
	known       bool
	ready       bool
	fails, oks  int
	transitions uint64
	lastErr     string
}

// NewProber builds a prober over the node set. Probes flow through the
// injectable transport (site router.probe) so chaos profiles can
// partition the control plane specifically.
func NewProber(nodes []string, cfg HealthConfig, logf func(string, ...any)) *Prober {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p := &Prober{
		cfg:   cfg,
		nodes: append([]string(nil), nodes...),
		httpc: &http.Client{
			Transport: faultinject.Transport("router.probe", nil),
			// A probe slower than half the interval counts as failed.
			Timeout: cfg.Interval / 2,
		},
		logf:  logf,
		state: make(map[string]*nodeHealth, len(nodes)),
	}
	for _, n := range nodes {
		p.state[n] = &nodeHealth{}
	}
	return p
}

// Run probes until the context ends. The first round runs immediately.
func (p *Prober) Run(ctx context.Context) {
	p.ProbeOnce(ctx)
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.ProbeOnce(ctx)
		}
	}
}

// ProbeOnce runs one probe round over every node, concurrently.
func (p *Prober) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, node := range p.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.observe(node, p.probe(ctx, node))
		}()
	}
	wg.Wait()
	p.rounds.Add(1)
}

// Rounds returns the number of completed probe rounds.
func (p *Prober) Rounds() uint64 { return p.rounds.Load() }

// probe asks one node's /readyz; nil means ready.
func (p *Prober) probe(ctx context.Context, node string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := p.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errors.New(http.StatusText(resp.StatusCode) + " from /readyz")
	}
	return nil
}

// observe folds one probe result into the node's hysteresis state.
func (p *Prober) observe(node string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.state[node]
	if h == nil {
		return
	}
	if err == nil {
		h.fails, h.oks = 0, h.oks+1
		h.lastErr = ""
		if !h.known || (!h.ready && h.oks >= upAfter) {
			if h.known {
				h.transitions++
				p.logf("node %s re-admitted after %d consecutive ready probes", node, h.oks)
			}
			h.known, h.ready = true, true
		}
		return
	}
	h.oks, h.fails = 0, h.fails+1
	h.lastErr = err.Error()
	if !h.known || (h.ready && h.fails >= downAfter) {
		if h.known {
			h.transitions++
			p.logf("node %s demoted after %d consecutive probe failures: %v", node, h.fails, err)
		}
		h.known, h.ready = true, false
	}
}

// Ready reports whether a node currently receives traffic.
func (p *Prober) Ready(node string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.state[node]
	return h != nil && h.ready
}

// Status snapshots every node's health for /stats, in node order.
func (p *Prober) Status() []NodeStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]NodeStatus, 0, len(p.nodes))
	for _, node := range p.nodes {
		h := p.state[node]
		out = append(out, NodeStatus{
			URL: node, Ready: h.ready, Transitions: h.transitions, LastError: h.lastErr,
		})
	}
	return out
}
