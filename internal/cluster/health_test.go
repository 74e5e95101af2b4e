package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flappableNode is a backend whose /readyz answer is switchable.
type flappableNode struct {
	ts *httptest.Server
	ok atomic.Bool
}

func newFlappableNode(t *testing.T) *flappableNode {
	t.Helper()
	n := &flappableNode{}
	n.ok.Store(true)
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if n.ok.Load() {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	t.Cleanup(n.ts.Close)
	return n
}

func TestProberHysteresis(t *testing.T) {
	ctx := context.Background()
	node := newFlappableNode(t)
	p := NewProber([]string{node.ts.URL}, HealthConfig{}, t.Logf)

	// First result adopts directly: one round discovers a healthy node.
	p.ProbeOnce(ctx)
	if !p.Ready(node.ts.URL) {
		t.Fatal("healthy node not ready after first probe")
	}

	// One failed probe must not demote (hysteresis), downAfter = 2 must.
	if downAfter != 2 || upAfter != 3 {
		t.Fatalf("hysteresis is %d down / %d up; this walk checks 2 / 3", downAfter, upAfter)
	}
	node.ok.Store(false)
	p.ProbeOnce(ctx)
	if !p.Ready(node.ts.URL) {
		t.Fatal("node demoted after a single failed probe")
	}
	p.ProbeOnce(ctx)
	if p.Ready(node.ts.URL) {
		t.Fatal("node still ready after downAfter consecutive failures")
	}

	// Recovery: two good probes are not enough with upAfter = 3, and an
	// interleaved failure resets the streak.
	node.ok.Store(true)
	p.ProbeOnce(ctx)
	p.ProbeOnce(ctx)
	if p.Ready(node.ts.URL) {
		t.Fatal("node re-admitted before upAfter consecutive successes")
	}
	node.ok.Store(false)
	p.ProbeOnce(ctx)
	node.ok.Store(true)
	p.ProbeOnce(ctx)
	p.ProbeOnce(ctx)
	if p.Ready(node.ts.URL) {
		t.Fatal("failure mid-streak did not reset the re-admission count")
	}
	p.ProbeOnce(ctx)
	if !p.Ready(node.ts.URL) {
		t.Fatal("node not re-admitted after upAfter consecutive successes")
	}

	st := p.Status()
	if len(st) != 1 || st[0].Transitions != 2 {
		t.Fatalf("status = %+v, want one node with 2 transitions (down, up)", st)
	}
	if p.Rounds() == 0 {
		t.Fatal("no probe rounds counted")
	}
}

func TestProberFirstResultAdoptsDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	p := NewProber([]string{dead.URL}, HealthConfig{Interval: 400 * time.Millisecond}, t.Logf)
	p.ProbeOnce(context.Background())
	if p.Ready(dead.URL) {
		t.Fatal("dead node reported ready after first probe")
	}
	if st := p.Status(); st[0].LastError == "" {
		t.Fatal("dead node carries no last error")
	}
}
