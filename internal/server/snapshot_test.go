// Tests for the server's persistence surface: the snapshot endpoints,
// inline warm registration, the checkpoint/restart cycle behind rmqd
// -snapshot-dir, pruning of deleted catalogs, and cold fallback on
// damaged checkpoint files.
package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmq/internal/api"
)

// fetchSnapshot GETs a catalog's snapshot bytes.
func fetchSnapshot(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/catalogs/" + id + "/snapshot")
	if err != nil {
		t.Fatalf("GET snapshot: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET snapshot: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot: status %d: %s", resp.StatusCode, data)
	}
	if len(data) == 0 {
		t.Fatal("GET snapshot: empty body")
	}
	return data
}

// warmCatalog registers a generated catalog and runs one fixed-budget
// optimization so its session's shared store holds plans.
func warmCatalog(t *testing.T, ts *httptest.Server, genBody string) string {
	t.Helper()
	id := register(t, ts, genBody)
	var resp api.OptimizeResponse
	if code := post(t, ts, "/optimize",
		fmt.Sprintf(`{"catalog":%q,"max_iterations":300,"seed":1}`, id), &resp); code != http.StatusOK {
		t.Fatalf("optimize: status %d", code)
	}
	checkFrontier(t, &resp)
	return id
}

// cachePlans reads a catalog's retained-plan count from /stats.
func cachePlans(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	return catalogStats(t, ts, id).Cache.Plans
}

const genBody = `{"generate":{"tables":14,"graph":"chain","seed":21}}`

// TestServerSnapshotInlineWarmRegistration pins warm replica bootstrap
// over pure HTTP: GET a warmed catalog's snapshot from one server,
// register the same catalog on a second server with the stream inline,
// and the new catalog starts with the donor's retained plans before
// serving a single request.
func TestServerSnapshotInlineWarmRegistration(t *testing.T) {
	_, donor := testServer(t, Config{})
	id := warmCatalog(t, donor, genBody)
	donorPlans := cachePlans(t, donor, id)
	if donorPlans == 0 {
		t.Fatal("donor retained no plans")
	}
	snap := fetchSnapshot(t, donor, id)

	_, replica := testServer(t, Config{})
	body, err := json.Marshal(map[string]any{
		"generate": map[string]any{"tables": 14, "graph": "chain", "seed": 21},
		"snapshot": snap, // []byte marshals as base64
	})
	if err != nil {
		t.Fatal(err)
	}
	rid := register(t, replica, string(body))
	if got := cachePlans(t, replica, rid); got != donorPlans {
		t.Fatalf("replica starts with %d plans, donor had %d", got, donorPlans)
	}
}

// TestServerSnapshotMismatchConflict pins that registering a catalog
// with another catalog's snapshot is refused with 409 and a snapshot
// error in the body.
func TestServerSnapshotMismatchConflict(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := warmCatalog(t, ts, genBody)
	snap := fetchSnapshot(t, ts, id)
	body, err := json.Marshal(map[string]any{
		"generate": map[string]any{"tables": 14, "graph": "chain", "seed": 22}, // different catalog
		"snapshot": snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	var er api.ErrorResponse
	if code := post(t, ts, "/catalogs", string(body), &er); code != http.StatusConflict {
		t.Fatalf("mismatched snapshot registered with status %d (%s)", code, er.Error)
	}
}

// TestServerSnapshotRetentionConflict pins the 409 a retention
// conflict still gets: an inline snapshot's stores keep the α they
// were taken at, so a catalog registered at another α cannot optimize
// against them — answered as a conflict with server-side state, not
// run silently under the snapshot's memory bound. Registering at the
// snapshot's α serves.
func TestServerSnapshotRetentionConflict(t *testing.T) {
	_, ts := testServer(t, Config{})
	snap := fetchSnapshot(t, ts, warmCatalog(t, ts, genBody))
	registerAt := func(retention float64) string {
		body, err := json.Marshal(map[string]any{
			"generate":  map[string]any{"tables": 14, "graph": "chain", "seed": 21},
			"retention": retention,
			"snapshot":  snap,
		})
		if err != nil {
			t.Fatal(err)
		}
		return register(t, ts, string(body))
	}
	var e api.ErrorResponse
	conflicting := registerAt(2)
	if code := post(t, ts, "/optimize", fmt.Sprintf(`{"catalog":%q,"max_iterations":5}`, conflicting), &e); code != http.StatusConflict {
		t.Fatalf("α = 2 catalog over an α = 1 snapshot: status %d, want 409 (%s)", code, e.Error)
	}
	if !strings.Contains(e.Error, "retention") {
		t.Errorf("conflict error %q does not mention retention", e.Error)
	}
	if code := post(t, ts, "/optimize", fmt.Sprintf(`{"catalog":%q,"max_iterations":5}`, registerAt(1)), nil); code != http.StatusOK {
		t.Fatalf("matching retention: status %d, want 200", code)
	}
}

// TestServerSnapshotRegistrationValidation pins that the registration
// fields the protocol dropped are refused by name, even on a server
// with a snapshot directory and outbound fetches allowed: a peer's warm
// state comes through replicate_from or an inline snapshot, a file in
// the directory through LoadCheckpoint, and the pool uses its adaptive
// cap.
func TestServerSnapshotRegistrationValidation(t *testing.T) {
	_, ts := testServer(t, Config{SnapshotDir: t.TempDir(), AllowSnapshotFetch: true})
	for field, body := range map[string]string{
		"snapshot_path": `{"generate":{"tables":8},"snapshot_path":"x.snap"}`,
		"snapshot_url":  `{"generate":{"tables":8},"snapshot_url":"http://127.0.0.1:1/catalogs/c1/snapshot"}`,
		"pool_limit":    `{"generate":{"tables":8},"pool_limit":2}`,
	} {
		var e api.ErrorResponse
		if code := post(t, ts, "/catalogs", body, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", field, code)
		}
		if !strings.Contains(e.Error, `"`+field+`"`) {
			t.Errorf("%s: error %q does not name the field", field, e.Error)
		}
	}
}

// TestReadSnapshotFileGuards pins the guards LoadCheckpoint reads every
// snapshot generation through: a name escaping the directory and a
// file over maxSnapshotBytes are refused before any byte is read.
func TestReadSnapshotFileGuards(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"../escape.snap", "/etc/passwd"} {
		if _, err := readSnapshotFile(dir, name); err == nil || !strings.Contains(err.Error(), "escapes") {
			t.Errorf("readSnapshotFile(%q) = %v, want an escape error", name, err)
		}
	}
	// A sparse file reports the oversize length without occupying it.
	big := filepath.Join(dir, "big.snap")
	f, err := os.Create(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(maxSnapshotBytes + 1); err != nil {
		f.Close()
		t.Skipf("cannot size a sparse file here: %v", err)
	}
	f.Close()
	if _, err := readSnapshotFile(dir, "big.snap"); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized snapshot: %v, want a size-limit error", err)
	}
}

// TestServerCheckpointEndpointRequiresDir pins the 409 on demand-
// checkpointing a server that has nowhere to write.
func TestServerCheckpointEndpointRequiresDir(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := register(t, ts, genBody)
	if code := post(t, ts, "/catalogs/"+id+"/snapshot", "", nil); code != http.StatusConflict {
		t.Fatalf("checkpoint without directory: status %d", code)
	}
}

// TestServerCheckpointRestartCycle is the restart-warm contract at the
// package level: checkpoint a server with warmed catalogs, build a new
// server over the same directory, and LoadCheckpoint must bring back
// every catalog under its old id with its cache contents intact, with
// the id counter advanced past the restored ids.
func TestServerCheckpointRestartCycle(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := testServer(t, Config{SnapshotDir: dir})
	idA := warmCatalog(t, ts1, genBody)
	idB := warmCatalog(t, ts1, `{"generate":{"tables":10,"graph":"star","seed":5},"retention":1.5,"name":"starry"}`)
	plansA, plansB := cachePlans(t, ts1, idA), cachePlans(t, ts1, idB)
	if err := srv1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for _, id := range []string{idA, idB} {
		for _, ext := range []string{".snap", ".json"} {
			if _, err := os.Stat(filepath.Join(dir, id+ext)); err != nil {
				t.Fatalf("checkpoint file %s%s: %v", id, ext, err)
			}
		}
	}

	srv2 := New(Config{SnapshotDir: dir})
	if err := srv2.LoadCheckpoint(); err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if got := cachePlans(t, ts2, idA); got != plansA {
		t.Fatalf("catalog %s restored with %d plans, want %d", idA, got, plansA)
	}
	if got := cachePlans(t, ts2, idB); got != plansB {
		t.Fatalf("catalog %s restored with %d plans, want %d", idB, got, plansB)
	}
	// Restored catalogs keep their registration settings and serve
	// requests: the restored store kept α = 1.5, and the run succeeds
	// only because the re-registered catalog asks for the same α.
	if got := catalogStats(t, ts2, idB).EffectiveRetention; got != 1.5 {
		t.Fatalf("catalog %s restored at α = %v, want 1.5", idB, got)
	}
	var resp api.OptimizeResponse
	if code := post(t, ts2, "/optimize",
		fmt.Sprintf(`{"catalog":%q,"max_iterations":40,"seed":9}`, idB), &resp); code != http.StatusOK {
		t.Fatalf("optimize restored catalog: status %d", code)
	}
	checkFrontier(t, &resp)
	// The id counter moved past the restored ids: a fresh registration
	// must not collide.
	idC := register(t, ts2, `{"generate":{"tables":8}}`)
	if idC == idA || idC == idB {
		t.Fatalf("fresh registration reused restored id %s", idC)
	}
}

// TestServerLoadCheckpointLegacyPoolLimit pins the upgrade path for
// manifests written while registrations could carry pool_limit: the
// manifest is read leniently, so the catalog still restores warm (the
// pool then uses its adaptive cap), while a live registration carrying
// the field is refused.
func TestServerLoadCheckpointLegacyPoolLimit(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := testServer(t, Config{SnapshotDir: dir})
	id := warmCatalog(t, ts1, genBody)
	plans := cachePlans(t, ts1, id)
	if err := srv1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	path := filepath.Join(dir, id+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ID      string         `json:"id"`
		Request map[string]any `json:"request"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m.Request["pool_limit"] = 2
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := testServer(t, Config{SnapshotDir: dir})
	if err := srv2.LoadCheckpoint(); err != nil {
		t.Fatalf("LoadCheckpoint of a pool_limit manifest: %v", err)
	}
	if got := cachePlans(t, ts2, id); got != plans {
		t.Fatalf("pool_limit manifest restored %d plans, want %d", got, plans)
	}
	var stats api.StatsResponse
	getJSON(t, ts2, "/stats", &stats)
	if len(stats.Quarantined) > 0 {
		t.Fatalf("pool_limit manifest quarantined files: %+v", stats.Quarantined)
	}
	if code := post(t, ts2, "/catalogs", `{"generate":{"tables":8},"pool_limit":2}`, nil); code != http.StatusBadRequest {
		t.Fatalf("registration with pool_limit: status %d, want 400", code)
	}
}

// TestServerCheckpointPrunesDeletedCatalogs pins that a checkpoint
// removes the files of catalogs deleted since the previous one, so a
// restart cannot resurrect them.
func TestServerCheckpointPrunesDeletedCatalogs(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testServer(t, Config{SnapshotDir: dir})
	id := warmCatalog(t, ts, genBody)
	keep := register(t, ts, `{"generate":{"tables":8}}`)
	if err := srv.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/catalogs/"+id, nil)
	resp, err := ts.Client().Do(req)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %v status %v", err, resp.Status)
	}
	resp.Body.Close()
	if err := srv.Checkpoint(); err != nil {
		t.Fatalf("second Checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".snap")); !os.IsNotExist(err) {
		t.Fatalf("deleted catalog's snapshot survived pruning: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, keep+".json")); err != nil {
		t.Fatalf("live catalog's manifest pruned: %v", err)
	}
}

// TestServerLoadCheckpointColdFallback pins the degraded path: a
// manifest whose snapshot is corrupt re-registers the catalog cold
// instead of failing the whole load.
func TestServerLoadCheckpointColdFallback(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := testServer(t, Config{SnapshotDir: dir})
	id := warmCatalog(t, ts1, genBody)
	if err := srv1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Corrupt the snapshot body (valid length, damaged checksum).
	path := filepath.Join(dir, id+".snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := New(Config{SnapshotDir: dir})
	if err := srv2.LoadCheckpoint(); err != nil {
		t.Fatalf("LoadCheckpoint with corrupt snapshot: %v", err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if got := cachePlans(t, ts2, id); got != 0 {
		t.Fatalf("corrupt snapshot restored %d plans", got)
	}
	var resp api.OptimizeResponse
	if code := post(t, ts2, "/optimize",
		fmt.Sprintf(`{"catalog":%q,"max_iterations":100,"seed":3}`, id), &resp); code != http.StatusOK {
		t.Fatalf("optimize cold-fallback catalog: status %d", code)
	}
	checkFrontier(t, &resp)
}

// TestServerGetSnapshotRoundTripsThroughCodec sanity-checks that the
// endpoint's bytes are a decodable stream (base64 fidelity through the
// JSON layer is covered by the inline registration test).
func TestServerGetSnapshotRoundTripsThroughCodec(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := warmCatalog(t, ts, genBody)
	snap := fetchSnapshot(t, ts, id)
	enc := base64.StdEncoding.EncodeToString(snap)
	dec, err := base64.StdEncoding.DecodeString(enc)
	if err != nil || len(dec) != len(snap) {
		t.Fatalf("base64 round trip: %v (%d vs %d bytes)", err, len(dec), len(snap))
	}
	if code := post(t, ts, "/catalogs/unknown/snapshot", "", nil); code != http.StatusNotFound {
		t.Fatalf("snapshot of unknown catalog: status %d", code)
	}
}
