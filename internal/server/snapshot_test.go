// Tests for the server's persistence surface: the checkpoint/restart
// cycle behind rmqd -snapshot-dir, pruning of deleted catalogs, cold
// fallback on damaged or retention-skewed checkpoint files, and the
// snapshot routes and registration fields the protocol dropped.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmq/internal/api"
)

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

// TestServerSnapshotRegistrationValidation pins that the registration
// fields and routes the protocol dropped are refused, even on a server
// with a snapshot directory and outbound fetches allowed: a peer's warm
// state comes only through replicate_from, a file in the directory
// only through LoadCheckpoint, every catalog shares its plan cache, and
// the pool uses its adaptive cap. Each field answers 400 naming it;
// GET and POST /catalogs/{id}/snapshot answer 404.
func TestServerSnapshotRegistrationValidation(t *testing.T) {
	_, ts := testServer(t, Config{SnapshotDir: t.TempDir(), AllowSnapshotFetch: true})
	for field, body := range map[string]string{
		"snapshot_path": `{"generate":{"tables":8},"snapshot_path":"x.snap"}`,
		"snapshot_url":  `{"generate":{"tables":8},"snapshot_url":"http://127.0.0.1:1/catalogs/c1/snapshot"}`,
		"pool_limit":    `{"generate":{"tables":8},"pool_limit":2}`,
		"snapshot":      `{"generate":{"tables":8},"snapshot":"cm1xLXNuYXA="}`,
		"shared_cache":  `{"generate":{"tables":8},"shared_cache":false}`,
	} {
		var e api.ErrorResponse
		if code := post(t, ts, "/catalogs", body, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", field, code)
		}
		if !strings.Contains(e.Error, `"`+field+`"`) {
			t.Errorf("%s: error %q does not name the field", field, e.Error)
		}
	}
	id := register(t, ts, `{"generate":{"tables":8}}`)
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		req, err := http.NewRequest(method, ts.URL+"/catalogs/"+id+"/snapshot", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s /catalogs/%s/snapshot: status %d, want 404", method, id, resp.StatusCode)
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

// TestServerSnapshotRetentionConflict pins that a catalog's α is its
// registration's on every restart: a checkpoint whose manifest names no
// retention (exact) but whose snapshot was taken at α = 2 — what a
// manifest written under a server-wide default retention looks like —
// is quarantined with a reason naming retention, and the catalog comes
// back cold at α = 1 and serves.
func TestServerSnapshotRetentionConflict(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := testServer(t, Config{SnapshotDir: dir})
	id := warmCatalog(t, ts1, `{"generate":{"tables":14,"graph":"chain","seed":21},"retention":2}`)
	if err := srv1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	editManifest(t, dir, id, func(req map[string]any) { delete(req, "retention") })

	srv2, ts2 := testServer(t, Config{SnapshotDir: dir})
	if err := srv2.LoadCheckpoint(); err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	var stats api.StatsResponse
	getJSON(t, ts2, "/stats", &stats)
	if len(stats.Quarantined) != 1 || stats.Quarantined[0].File != id+".snap" ||
		!strings.Contains(stats.Quarantined[0].Reason, "retention") {
		t.Fatalf("quarantined %+v, want %s.snap with a reason naming retention", stats.Quarantined, id)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".snap.quarantined")); err != nil {
		t.Fatalf("skewed snapshot not set aside: %v", err)
	}
	if cs := catalogStats(t, ts2, id); cs.Cache.Plans != 0 {
		t.Fatalf("skewed snapshot restored %d plans, want a cold catalog", cs.Cache.Plans)
	}
	var resp api.OptimizeResponse
	if code := post(t, ts2, "/optimize", fmt.Sprintf(`{"catalog":%q,"max_iterations":40,"seed":9}`, id), &resp); code != http.StatusOK {
		t.Fatalf("optimize after the quarantine: status %d, want 200", code)
	}
	checkFrontier(t, &resp)
	if got := catalogStats(t, ts2, id).EffectiveRetention; got != 1 {
		t.Fatalf("catalog serves at α = %v, want its registration's 1", got)
	}
}

// editManifest rewrites the registration in a catalog's checkpoint
// manifest, as an older rmqd could have written it.
func editManifest(t *testing.T, dir, id string, edit func(req map[string]any)) {
	t.Helper()
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
	edit(m.Request)
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServerLoadCheckpointLegacyPoolLimit pins the upgrade path for
// manifests written while registrations could carry pool_limit and
// shared_cache: the manifest is read leniently, so the catalog still
// restores warm (the pool then uses its adaptive cap), while a live
// registration carrying pool_limit is refused.
func TestServerLoadCheckpointLegacyPoolLimit(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := testServer(t, Config{SnapshotDir: dir})
	id := warmCatalog(t, ts1, genBody)
	plans := cachePlans(t, ts1, id)
	if err := srv1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	editManifest(t, dir, id, func(req map[string]any) {
		req["pool_limit"] = 2
		req["shared_cache"] = true
	})

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
