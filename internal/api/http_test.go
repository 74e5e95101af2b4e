package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestDecodeBody(t *testing.T) {
	decode := func(body string) (*httptest.ResponseRecorder, bool, OptimizeRequest) {
		t.Helper()
		var req OptimizeRequest
		rec := httptest.NewRecorder()
		ok := DecodeBody(rec, httptest.NewRequest(http.MethodPost, "/optimize", strings.NewReader(body)), &req)
		return rec, ok, req
	}
	if rec, ok, req := decode(`{"catalog":"c1","max_iterations":5}`); !ok || req.Catalog != "c1" || req.MaxIterations != 5 || rec.Body.Len() != 0 {
		t.Fatalf("valid body: ok %v req %+v response %q", ok, req, rec.Body)
	}
	oversized := `{"catalog":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for name, body := range map[string]string{
		"unknown field": `{"catalog":"c1","max_iteration":5}`,
		"malformed":     `{"catalog":`,
		"over 8 MiB":    oversized,
	} {
		rec, ok, _ := decode(body)
		var er ErrorResponse
		if ok || rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error == "" {
			t.Errorf("%s: ok %v status %d body %.100q, want a 400 error response", name, ok, rec.Code, rec.Body)
		}
	}
}

func TestErrorMessage(t *testing.T) {
	for body, want := range map[string]string{
		`{"error":"unknown catalog \"c9\""}`: `unknown catalog "c9"`,
		"upstream connect error":             "upstream connect error",
		`{"error":""}`:                       `{"error":""}`,
		"":                                   "",
	} {
		if got := ErrorMessage([]byte(body)); got != want {
			t.Errorf("ErrorMessage(%q) = %q, want %q", body, got, want)
		}
	}
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusConflict, "catalog %s: %v", "c1", "gone")
	if rec.Code != http.StatusConflict || rec.Header().Get("Content-Type") != "application/json" ||
		ErrorMessage(rec.Body.Bytes()) != "catalog c1: gone" {
		t.Fatalf("WriteError: status %d, type %q, body %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
}

func TestWriteReady(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteReady(rec, nil)
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"ready"`)) {
		t.Fatalf("ready: status %d body %q", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	WriteReady(rec, []string{"draining"})
	if rec.Code != http.StatusServiceUnavailable || !bytes.Contains(rec.Body.Bytes(), []byte(`"reasons":["draining"]`)) {
		t.Fatalf("unready: status %d body %q", rec.Code, rec.Body)
	}
}
