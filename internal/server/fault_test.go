// Failure-path tests for the serving daemon: the panic-recovery
// boundary, the load-derived Retry-After hint, crash-consistent
// checkpoint recovery under injected filesystem faults, and the cache
// memory budget.
package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rmq/internal/api"
	"rmq/internal/faultinject"
)

// arm activates a fault profile for the test and disarms it afterwards.
// Profiles are process-global, so tests using arm must not run in
// parallel.
func arm(t *testing.T, spec string) {
	t.Helper()
	faultinject.Enable(faultinject.MustParse(spec))
	t.Cleanup(faultinject.Disable)
}

// TestServerRecoversHandlerPanic pins the recovery middleware: a panic
// inside a handler fails that one request with a 500 and a JSON error
// body, the panic is counted in /stats, and the next request on the
// same server succeeds.
func TestServerRecoversHandlerPanic(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := register(t, ts, genBody)
	arm(t, "server.optimize=panic#1")

	body := fmt.Sprintf(`{"catalog":%q,"max_iterations":50,"seed":1}`, id)
	var er api.ErrorResponse
	if code := post(t, ts, "/optimize", body, &er); code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", code)
	}
	if !strings.Contains(er.Error, "internal error") || !strings.Contains(er.Error, "server.optimize") {
		t.Fatalf("500 body %q does not name the failure", er.Error)
	}

	// The panic was contained: the same server serves the next request.
	var resp api.OptimizeResponse
	if code := post(t, ts, "/optimize", body, &resp); code != http.StatusOK {
		t.Fatalf("request after contained panic: status %d", code)
	}
	checkFrontier(t, &resp)

	var stats api.StatsResponse
	getJSON(t, ts, "/stats", &stats)
	if stats.Panics != 1 {
		t.Errorf("stats.Panics = %d, want 1", stats.Panics)
	}
	if got := stats.Faults["server.optimize"]; got != 1 {
		t.Errorf("stats.Faults[server.optimize] = %d, want 1", got)
	}
}

// TestServerInjectedErrorFailsOneRequest pins the error-kind path: an
// injected error after admission fails that request with a 500 without
// touching the recovery boundary, and the panic counter stays zero.
func TestServerInjectedErrorFailsOneRequest(t *testing.T) {
	srv, ts := testServer(t, Config{})
	id := register(t, ts, genBody)
	arm(t, "server.optimize=error#1")
	body := fmt.Sprintf(`{"catalog":%q,"max_iterations":50,"seed":1}`, id)
	if code := post(t, ts, "/optimize", body, nil); code != http.StatusInternalServerError {
		t.Fatalf("injected error answered %d, want 500", code)
	}
	if code := post(t, ts, "/optimize", body, nil); code != http.StatusOK {
		t.Fatalf("request after injected error: status %d", code)
	}
	if got := srv.panics.Load(); got != 0 {
		t.Errorf("error-kind injection tripped the panic counter: %d", got)
	}
}

// TestRetryAfterGrowsWithLoad pins the derived Retry-After hint: always
// a positive integer, and growing with observed service time once the
// server saturates.
func TestRetryAfterGrowsWithLoad(t *testing.T) {
	srv, ts := testServer(t, Config{MaxInFlight: 1})
	id := register(t, ts, genBody)

	// Saturate admission without running anything.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	hint := func() int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/optimize", "application/json",
			strings.NewReader(fmt.Sprintf(`{"catalog":%q}`, id)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
		}
		h := resp.Header.Get("Retry-After")
		var secs int
		if _, err := fmt.Sscanf(h, "%d", &secs); err != nil || secs <= 0 {
			t.Fatalf("Retry-After %q is not a positive integer", h)
		}
		return secs
	}

	// No service-time observations yet: the hint is the 1-second floor.
	if got := hint(); got != 1 {
		t.Errorf("cold hint = %d, want 1", got)
	}
	// Observed service time grows; the hint must grow with it.
	srv.service.Store(int64(3 * time.Second))
	three := hint()
	if three < 3 {
		t.Errorf("hint with 3s EWMA at full depth = %d, want >= 3", three)
	}
	srv.service.Store(int64(10 * time.Second))
	if got := hint(); got <= three {
		t.Errorf("hint did not grow with service time: %d then %d", three, got)
	}
	// And it stays clamped to a sane ceiling.
	srv.service.Store(int64(24 * time.Hour))
	if got := hint(); got != 60 {
		t.Errorf("hint for pathological EWMA = %d, want the 60s clamp", got)
	}
}

// TestServerCrashConsistentRecovery is the table-driven crash suite:
// whatever happens to the newest checkpoint generation — truncation, a
// torn install rename, disk-full mid-write, checksum corruption — a
// restart warm-loads the newest generation that verifies, quarantines
// damaged files visibly, and never fails the load.
func TestServerCrashConsistentRecovery(t *testing.T) {
	cases := []struct {
		name string
		// faults arms a profile around the second checkpoint.
		faults string
		// damage corrupts files after the second checkpoint.
		damage func(t *testing.T, snapPath string)
		// wantCheckpointErr: the second checkpoint reports the failure.
		wantCheckpointErr bool
		// wantQuarantine: the restart sets a damaged file aside.
		wantQuarantine bool
	}{
		{
			name: "corrupted-crc",
			damage: func(t *testing.T, p string) {
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0xff
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantQuarantine: true,
		},
		{
			name: "truncated-snap",
			damage: func(t *testing.T, p string) {
				if err := os.Truncate(p, 10); err != nil {
					t.Fatal(err)
				}
			},
			wantQuarantine: true,
		},
		{
			// The install rename tears: the new .snap is a truncated
			// prefix and the call reported success — only the CRC check
			// at load can catch it.
			name:           "torn-install-rename",
			faults:         "checkpoint.rename=torn#1",
			wantQuarantine: true,
		},
		{
			// The disk fills mid-write: the new .snap never lands (the
			// old one was already rotated to .prev), and the checkpoint
			// reports the ENOSPC instead of pretending.
			name:              "enospc-mid-write",
			faults:            "checkpoint.write=enospc#1",
			wantCheckpointErr: true,
		},
		{
			// Half the data lands, then ENOSPC: the aborted temp file is
			// cleaned up and .prev remains the last good generation.
			name:              "partial-write",
			faults:            "checkpoint.write=partial#1",
			wantCheckpointErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv1, ts1 := testServer(t, Config{SnapshotDir: dir})
			id := warmCatalog(t, ts1, genBody)
			if err := srv1.Checkpoint(); err != nil {
				t.Fatalf("first checkpoint: %v", err)
			}
			goodPlans := cachePlans(t, ts1, id)

			// More work, then a second checkpoint under the case's fault.
			if code := post(t, ts1, "/optimize",
				fmt.Sprintf(`{"catalog":%q,"max_iterations":300,"seed":2}`, id), nil); code != http.StatusOK {
				t.Fatalf("second optimize: status %d", code)
			}
			if tc.faults != "" {
				arm(t, tc.faults)
			}
			err := srv1.Checkpoint()
			faultinject.Disable()
			if tc.wantCheckpointErr && err == nil {
				t.Fatal("faulted checkpoint reported success")
			}
			if !tc.wantCheckpointErr && err != nil {
				t.Fatalf("second checkpoint: %v", err)
			}
			if tc.damage != nil {
				tc.damage(t, filepath.Join(dir, id+".snap"))
			}

			// Restart: the newest generation that verifies must load.
			srv2 := New(Config{SnapshotDir: dir})
			if err := srv2.LoadCheckpoint(); err != nil {
				t.Fatalf("LoadCheckpoint after %s: %v", tc.name, err)
			}
			ts2 := httptest.NewServer(srv2)
			defer ts2.Close()
			if got := cachePlans(t, ts2, id); got != goodPlans {
				t.Errorf("restored %d plans, want the last-good generation's %d", got, goodPlans)
			}
			var stats api.StatsResponse
			getJSON(t, ts2, "/stats", &stats)
			if tc.wantQuarantine {
				if len(stats.Quarantined) == 0 {
					t.Fatal("no quarantine event in /stats for a damaged generation")
				}
				q := stats.Quarantined[0]
				if q.File != id+".snap" || q.Reason == "" {
					t.Errorf("quarantine event %+v does not name %s.snap with a reason", q, id)
				}
				if _, err := os.Stat(filepath.Join(dir, id+".snap.quarantined")); err != nil {
					t.Errorf("damaged file not set aside: %v", err)
				}
			} else if len(stats.Quarantined) != 0 {
				t.Errorf("unexpected quarantine events %+v", stats.Quarantined)
			}

			// The restored catalog serves, and a repeat checkpoint heals
			// the directory (no error once faults are gone).
			var resp api.OptimizeResponse
			if code := post(t, ts2, "/optimize",
				fmt.Sprintf(`{"catalog":%q,"max_iterations":50,"seed":3}`, id), &resp); code != http.StatusOK {
				t.Fatalf("optimize after recovery: status %d", code)
			}
			checkFrontier(t, &resp)
			if err := srv2.Checkpoint(); err != nil {
				t.Fatalf("healing checkpoint: %v", err)
			}
		})
	}
}

// TestServerCacheBudgetSheds pins graceful degradation under a memory
// budget: a server whose cache estimate exceeds MaxCacheBytes tightens
// effective retention (visible in /stats) instead of growing without
// bound, and keeps serving correct frontiers afterwards.
func TestServerCacheBudgetSheds(t *testing.T) {
	_, ts := testServer(t, Config{MaxCacheBytes: 1})
	id := warmCatalog(t, ts, genBody)

	// Budget enforcement runs after the handler; poll /stats for it.
	deadline := time.Now().Add(5 * time.Second)
	var stats api.StatsResponse
	for {
		getJSON(t, ts, "/stats", &stats)
		if stats.ShedEvents > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stats.ShedEvents == 0 {
		t.Fatal("over-budget cache never shed")
	}
	if stats.MaxCacheBytes != 1 {
		t.Errorf("stats.MaxCacheBytes = %d", stats.MaxCacheBytes)
	}
	var cat *api.CatalogStats
	for i := range stats.Catalogs {
		if stats.Catalogs[i].ID == id {
			cat = &stats.Catalogs[i]
		}
	}
	if cat == nil {
		t.Fatal("catalog missing from /stats")
	}
	if cat.EffectiveRetention < 2 {
		t.Errorf("effective retention %v after shedding, want coarser than 2", cat.EffectiveRetention)
	}
	if cat.Cache.Bytes <= 0 {
		t.Errorf("cache bytes estimate %d not surfaced", cat.Cache.Bytes)
	}

	// Shedding degraded detail, not correctness.
	var resp api.OptimizeResponse
	if code := post(t, ts, "/optimize",
		fmt.Sprintf(`{"catalog":%q,"max_iterations":100,"seed":4}`, id), &resp); code != http.StatusOK {
		t.Fatalf("optimize after shed: status %d", code)
	}
	checkFrontier(t, &resp)
}
