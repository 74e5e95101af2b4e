package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"rmq/internal/api"
)

// countingNode is a ready node that answers registrations and deletes
// with a settable status and counts every attempt it sees.
type countingNode struct {
	ts *httptest.Server
	// fail is the status answered to POST /catalogs and DELETE; 0 means
	// success.
	fail atomic.Int32

	primaries, replicas, deletes atomic.Int32
}

func newCountingNode(t *testing.T) *countingNode {
	t.Helper()
	n := &countingNode{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("POST /catalogs", func(w http.ResponseWriter, r *http.Request) {
		var req api.CatalogRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("node: decoding registration: %v", err)
		}
		if len(req.ReplicateFrom) > 0 {
			n.replicas.Add(1)
		} else {
			n.primaries.Add(1)
		}
		if n.answerFailure(w) {
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"id":"c1","tables":10}`)
	})
	mux.HandleFunc("DELETE /catalogs/{id}", func(w http.ResponseWriter, r *http.Request) {
		n.deletes.Add(1)
		if !n.answerFailure(w) {
			w.WriteHeader(http.StatusNoContent)
		}
	})
	n.ts = httptest.NewServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

// answerFailure writes the configured failure, if any. A 429 carries a
// one-second Retry-After, so a retrying caller would visibly wait.
func (n *countingNode) answerFailure(w http.ResponseWriter) bool {
	status := int(n.fail.Load())
	if status == 0 {
		return false
	}
	w.Header().Set("Retry-After", "1")
	api.WriteError(w, status, "failing on purpose")
	return true
}

// The router's registration, delete and repair loops are the failover
// layer, so each node call is one attempt: a failing node is asked
// once and the loop moves on (or answers), with no client-side retries
// and backoff sleeps in between.
func TestRouterCallsEachNodeOnce(t *testing.T) {
	a, b := newCountingNode(t), newCountingNode(t)
	rt, err := NewRouter(Config{Nodes: []string{a.ts.URL, b.ts.URL}, Replication: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow(context.Background())
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)
	byURL := map[string]*countingNode{a.ts.URL: a, b.ts.URL: b}

	// The router's first catalog id is r1; fail its first candidate.
	want := rt.ring.PickN("r1", 2)
	bad, good := byURL[want[0]], byURL[want[1]]
	bad.fail.Store(http.StatusServiceUnavailable)
	var info api.CatalogInfo
	if code := postJSON(t, rts.URL, "/catalogs", genCatalog, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	p := rt.placement(info.ID)
	if p == nil || p.replicas[0].node != good.ts.URL {
		t.Fatalf("placement %+v, want the primary on the node that answers", p)
	}
	if n := bad.primaries.Load(); n != 1 {
		t.Fatalf("failing node got %d primary registration attempts, want 1", n)
	}
	if n := bad.replicas.Load(); n != 1 {
		t.Fatalf("failing node got %d replica registration attempts, want 1", n)
	}

	// Delete is idempotent, so a retrying client would repeat it on a
	// 503; the router's fan-out asks once and answers.
	good.fail.Store(http.StatusServiceUnavailable)
	req, err := http.NewRequest(http.MethodDelete, rts.URL+"/catalogs/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", resp.StatusCode)
	}
	if n := good.deletes.Load(); n != 1 {
		t.Fatalf("node answering 503 got %d delete attempts, want 1", n)
	}

	// A 429 is retryable even for a registration; the router passes a
	// node's 429 through after one attempt instead of waiting out its
	// Retry-After.
	a.fail.Store(http.StatusTooManyRequests)
	b.fail.Store(http.StatusTooManyRequests)
	before := a.primaries.Load() + b.primaries.Load()
	var er api.ErrorResponse
	if code := postJSON(t, rts.URL, "/catalogs", genCatalog, &er); code != http.StatusTooManyRequests {
		t.Fatalf("register against saturated nodes: status %d (%q), want 429", code, er.Error)
	}
	if !strings.Contains(er.Error, "failing on purpose") {
		t.Fatalf("error %q, want the node's message", er.Error)
	}
	if n := a.primaries.Load() + b.primaries.Load() - before; n != 1 {
		t.Fatalf("%d registration attempts for one 429, want 1", n)
	}
}
