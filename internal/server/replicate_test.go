// Tests for the cluster replication surface: the deltas endpoint and
// its cursor protocol (410 on history mismatch), the background puller
// converging a replica server on a primary, degraded registration with
// every peer down, refusal of a peer at another retention α, and the
// liveness/readiness split.
package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rmq/internal/api"
)

// genCatalog is a deterministic registration body shared by the
// replication tests: both sides must build the identical catalog or
// the fingerprint check refuses the stream.
const genCatalog = `"generate":{"tables":10,"graph":"chain","seed":4}`

// optimize runs one request so the catalog's shared cache has content.
func optimize(t *testing.T, ts *httptest.Server, id string, iters int) api.OptimizeResponse {
	t.Helper()
	var resp api.OptimizeResponse
	code := post(t, ts, "/optimize",
		fmt.Sprintf(`{"catalog":%q,"max_iterations":%d,"seed":7,"metrics":["time","buffer"]}`, id, iters), &resp)
	if code != http.StatusOK {
		t.Fatalf("optimize: status %d", code)
	}
	return resp
}

// catalogStats fetches one catalog's /stats row.
func catalogStats(t *testing.T, ts *httptest.Server, id string) api.CatalogStats {
	t.Helper()
	var stats api.StatsResponse
	getJSON(t, ts, "/stats", &stats)
	for _, c := range stats.Catalogs {
		if c.ID == id {
			return c
		}
	}
	t.Fatalf("catalog %s not in /stats", id)
	return api.CatalogStats{}
}

func TestSinceCursorRoundTrip(t *testing.T) {
	cursors := map[string]uint64{"\x01\x02": 7, "\xff": 123456}
	inst, got, err := parseSince(encodeSince(42, cursors))
	if err != nil {
		t.Fatal(err)
	}
	if inst != 42 || len(got) != len(cursors) {
		t.Fatalf("parse(encode) = %d %v", inst, got)
	}
	for tag, seq := range cursors {
		if got[tag] != seq {
			t.Fatalf("cursor %x: got %d want %d", tag, got[tag], seq)
		}
	}
	if encodeSince(0, cursors) != "" || encodeSince(42, nil) != "" {
		t.Fatal("empty cursor sets must encode empty")
	}
	for _, bad := range []string{"zz@01:2", "42", "42@01", "42@0x:2", "42@01:x", "0@01:2"} {
		if _, _, err := parseSince(bad); err == nil {
			t.Errorf("parseSince(%q) accepted", bad)
		}
	}
}

func TestDeltasEndpointCursorProtocol(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := register(t, ts, `{`+genCatalog+`}`)
	optimize(t, ts, id, 80)

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := get("/catalogs/nope/deltas"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown catalog: status %d", resp.StatusCode)
	}
	if resp := get("/catalogs/" + id + "/deltas"); resp.StatusCode != http.StatusOK {
		t.Fatalf("full pull: status %d", resp.StatusCode)
	}
	if resp := get("/catalogs/" + id + "/deltas?since=garbage"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed since: status %d, want 400", resp.StatusCode)
	}
	// A cursor stamped with a different instance names another history.
	if resp := get("/catalogs/" + id + "/deltas?since=00000000000000ff@01:1"); resp.StatusCode != http.StatusGone {
		t.Fatalf("foreign instance: status %d, want 410", resp.StatusCode)
	}
}

func TestDeltasFutureCursorIsGone(t *testing.T) {
	srv, ts := testServer(t, Config{})
	id := register(t, ts, `{`+genCatalog+`}`)
	optimize(t, ts, id, 80)
	entry := srv.catalog(id)
	// Find a real tag and present a cursor beyond its watermark.
	cursors := entry.sess.DeltaCursors()
	if len(cursors) == 0 {
		t.Fatal("warmed catalog has no delta cursors")
	}
	future := make(map[string]uint64, len(cursors))
	for tag, seq := range cursors {
		future[tag] = seq + 1000
	}
	resp, err := ts.Client().Get(ts.URL + "/catalogs/" + id + "/deltas?since=" + encodeSince(entry.instance, future))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("future cursor: status %d, want 410", resp.StatusCode)
	}
}

func TestReplicateFromRequiresOptInAndSharedCache(t *testing.T) {
	_, ts := testServer(t, Config{}) // no AllowSnapshotFetch
	if code := post(t, ts, "/catalogs", `{`+genCatalog+`,"replicate_from":["http://peer/catalogs/c1"]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("replicate_from without opt-in: status %d, want 400", code)
	}
	_, ts2 := testServer(t, Config{AllowSnapshotFetch: true})
	if code := post(t, ts2, "/catalogs", `{`+genCatalog+`,"replicate_from":["not a url"]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad peer URL: status %d, want 400", code)
	}
	// Every catalog shares its plan cache, so replicated deltas always
	// have a store to merge into; a registration opting out is refused.
	if code := post(t, ts2, "/catalogs", `{`+genCatalog+`,"shared_cache":false,"replicate_from":["http://peer/catalogs/c1"]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("replicate_from with shared_cache false: status %d, want 400", code)
	}
}

func TestReplicationConvergesReplicaServer(t *testing.T) {
	// Primary with a warmed catalog.
	_, primary := testServer(t, Config{})
	pid := register(t, primary, `{`+genCatalog+`}`)
	optimize(t, primary, pid, 300)
	want := catalogStats(t, primary, pid).Cache.Plans
	if want == 0 {
		t.Fatal("primary cache is empty after optimizing")
	}

	// Replica pulling from the primary on a fast interval.
	replica, rts := testServer(t, Config{
		AllowSnapshotFetch: true,
		ReplicateInterval:  20 * time.Millisecond,
	})
	defer replica.Close()
	rid := register(t, rts,
		fmt.Sprintf(`{`+genCatalog+`,"replicate_from":[%q]}`, primary.URL+"/catalogs/"+pid))

	waitFor(t, 5*time.Second, func() bool {
		return catalogStats(t, rts, rid).Cache.Plans >= want
	})
	st := catalogStats(t, rts, rid)
	if st.Replication == nil {
		t.Fatal("/stats carries no replication block for a replicated catalog")
	}
	if !st.Replication.Warm || !st.Replication.Attempted || st.Replication.Admitted == 0 {
		t.Fatalf("replication stats = %+v, want warm with admissions", st.Replication)
	}
	if st.Replication.SourceInstance == "" {
		t.Fatal("replication stats carry no source instance")
	}

	// More primary work: the replica keeps tracking via its cursors.
	optimize(t, primary, pid, 300)
	grown := catalogStats(t, primary, pid).Cache.Plans
	waitFor(t, 5*time.Second, func() bool {
		return catalogStats(t, rts, rid).Cache.Plans >= grown
	})
}

func TestReplicationResyncsAfterPrimaryRestart(t *testing.T) {
	// The "primary" is re-registered mid-stream: a new incarnation whose
	// instance id invalidates the replica's cursors, forcing a 410
	// resync — the primary-restart / partition-recovery path.
	psrv, primary := testServer(t, Config{})
	pid := register(t, primary, `{`+genCatalog+`}`)
	optimize(t, primary, pid, 200)

	replica, rts := testServer(t, Config{
		AllowSnapshotFetch: true,
		ReplicateInterval:  20 * time.Millisecond,
	})
	defer replica.Close()
	rid := register(t, rts,
		fmt.Sprintf(`{`+genCatalog+`,"replicate_from":[%q]}`, primary.URL+"/catalogs/"+pid))
	waitFor(t, 5*time.Second, func() bool {
		st := catalogStats(t, rts, rid)
		return st.Replication != nil && st.Replication.Warm
	})

	// Restart the primary catalog under the same id: delete, register
	// fresh (new instance, new empty history), warm it again.
	req, err := http.NewRequest(http.MethodDelete, primary.URL+"/catalogs/"+pid, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := primary.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	entry, err := psrv.register(&api.CatalogRequest{Generate: &api.GenerateSpec{Tables: 10, Graph: "chain", Seed: 4}}, pid, nil)
	if err != nil {
		t.Fatal(err)
	}
	if entry.id != pid {
		t.Fatalf("re-registered as %s, want %s", entry.id, pid)
	}
	optimize(t, primary, pid, 100)

	waitFor(t, 5*time.Second, func() bool {
		st := catalogStats(t, rts, rid)
		return st.Replication != nil && st.Replication.Resyncs > 0
	})
}

func TestReplicationDegradedWhenPeerDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	replica, rts := testServer(t, Config{
		AllowSnapshotFetch: true,
		ReplicateInterval:  20 * time.Millisecond,
	})
	defer replica.Close()
	// Registration must succeed with the peer down: degraded, not dead.
	rid := register(t, rts,
		fmt.Sprintf(`{`+genCatalog+`,"replicate_from":[%q]}`, dead.URL+"/catalogs/c1"))
	// The catalog serves (cold) while the puller keeps failing.
	optimize(t, rts, rid, 40)
	waitFor(t, 5*time.Second, func() bool {
		st := catalogStats(t, rts, rid)
		return st.Replication != nil && st.Replication.Failures > 0 && st.Replication.Attempted
	})
	st := catalogStats(t, rts, rid)
	if st.Replication.Warm {
		t.Fatal("replication reports warm with a dead peer")
	}
	if st.Replication.LastError == "" {
		t.Fatal("no last error recorded for a failing pull")
	}
	// A node whose replicated catalogs have attempted their first pull
	// is ready even when the peer is down: it serves cold rather than
	// wedging the cluster.
	resp, err := rts.Client().Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with dead peer after first attempt: status %d", resp.StatusCode)
	}
}

// TestReplicationRefusesPeerAtOtherRetention pins that a replica keeps
// its registration's α: deltas from a peer registered at another α are
// refused and surface in /stats as the replication's last error, and
// the replica serves cold at its own α instead of answering from stores
// it could not serve.
func TestReplicationRefusesPeerAtOtherRetention(t *testing.T) {
	_, primary := testServer(t, Config{})
	pid := register(t, primary, `{`+genCatalog+`,"retention":2}`)
	optimize(t, primary, pid, 200)

	replica, rts := testServer(t, Config{
		AllowSnapshotFetch: true,
		ReplicateInterval:  20 * time.Millisecond,
	})
	defer replica.Close()
	rid := register(t, rts,
		fmt.Sprintf(`{`+genCatalog+`,"replicate_from":[%q]}`, primary.URL+"/catalogs/"+pid))
	waitFor(t, 5*time.Second, func() bool {
		st := catalogStats(t, rts, rid)
		return st.Replication != nil && st.Replication.Attempted
	})
	st := catalogStats(t, rts, rid)
	if st.Replication.Warm || st.Replication.Failures == 0 || !strings.Contains(st.Replication.LastError, "retention") {
		t.Fatalf("replication stats %+v, want not warm with a last error naming retention", st.Replication)
	}
	if st.Cache.Plans != 0 {
		t.Fatalf("replica holds %d plans from a peer at another α", st.Cache.Plans)
	}
	optimize(t, rts, rid, 40)
	if got := catalogStats(t, rts, rid).EffectiveRetention; got != 1 {
		t.Fatalf("replica serves at α = %v, want its registration's 1", got)
	}
}

func TestReadyzLifecycle(t *testing.T) {
	srv, ts := testServer(t, Config{})
	get := func() int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK {
		t.Fatalf("fresh server readyz: %d", code)
	}
	// Liveness stays green while readiness toggles.
	srv.StartDrain()
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d, want 503", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
}
