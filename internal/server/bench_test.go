package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rmq/internal/api"
)

// benchPost issues one /optimize request and fails the benchmark on any
// non-200 or empty frontier.
func benchPost(b *testing.B, ts *httptest.Server, body string) {
	b.Helper()
	resp, err := ts.Client().Post(ts.URL+"/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var or api.OptimizeResponse
	err = json.NewDecoder(resp.Body).Decode(&or)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("optimize: status %d, err %v", resp.StatusCode, err)
	}
	if len(or.Plans) == 0 {
		b.Fatal("empty frontier")
	}
}

// BenchmarkServerThroughput measures per-request latency of the full
// HTTP path — admission, JSON decode, session optimize, JSON encode —
// on the same 24-table repeated-query scenario as the library-level
// BenchmarkWorkloadThroughput:
//
//   - cold: every request is the first against a freshly registered
//     catalog (registration and teardown untimed), at the budget a cold
//     run needs (400 iterations) — the per-request price when nothing
//     is retained.
//   - warm: requests stream through one registered catalog whose
//     session retains the shared plan cache, at a tenth of the budget
//     (the warm-start quality tests pin that this budget returns
//     frontiers matching the cold result). The catalog is re-registered
//     and re-warmed untimed every 25 measured requests so ns/op is
//     stationary with respect to b.N.
//
// The cold/warm ns/op ratio is the serving-layer warm-start headline:
// ≥3x on the reference container.
func BenchmarkServerThroughput(b *testing.B) {
	const (
		catalogBody = `{"generate":{"tables":24,"graph":"chain","seed":3}}`
		coldIters   = 400
		warmIters   = coldIters / 10
		metrics     = `["time","buffer"]`
	)
	newServer := func(b *testing.B) *httptest.Server {
		ts := httptest.NewServer(New(Config{MaxInFlight: 4}))
		b.Cleanup(ts.Close)
		return ts
	}
	registerCatalog := func(b *testing.B, ts *httptest.Server) string {
		resp, err := ts.Client().Post(ts.URL+"/catalogs", "application/json", strings.NewReader(catalogBody))
		if err != nil {
			b.Fatal(err)
		}
		var info api.CatalogInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			b.Fatalf("register: status %d, err %v", resp.StatusCode, err)
		}
		return info.ID
	}
	deleteCatalog := func(b *testing.B, ts *httptest.Server, id string) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/catalogs/"+id, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	reportQPS := func(b *testing.B) {
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "queries/sec")
		}
	}

	b.Run("cold", func(b *testing.B) {
		ts := newServer(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			id := registerCatalog(b, ts)
			body := fmt.Sprintf(`{"catalog":%q,"max_iterations":%d,"seed":%d,"metrics":%s}`,
				id, coldIters, i+1, metrics)
			b.StartTimer()
			benchPost(b, ts, body)
			b.StopTimer()
			deleteCatalog(b, ts, id)
			b.StartTimer()
		}
		reportQPS(b)
	})
	b.Run("warm", func(b *testing.B) {
		ts := newServer(b)
		const streamLen = 25
		var id string
		calls := streamLen
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if calls == streamLen {
				b.StopTimer()
				if id != "" {
					deleteCatalog(b, ts, id)
				}
				id = registerCatalog(b, ts)
				benchPost(b, ts, fmt.Sprintf(`{"catalog":%q,"max_iterations":%d,"seed":1,"metrics":%s}`,
					id, coldIters, metrics))
				calls = 0
				b.StartTimer()
			}
			benchPost(b, ts, fmt.Sprintf(`{"catalog":%q,"max_iterations":%d,"seed":%d,"metrics":%s}`,
				id, warmIters, i+2, metrics))
			calls++
		}
		reportQPS(b)
	})
}
