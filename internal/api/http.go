package api

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// maxBodyBytes bounds every JSON request body: a catalog of the
// largest allowed size fits with room to spare, and an unauthenticated
// endpoint must not buffer unbounded uploads.
const maxBodyBytes = 8 << 20

// WriteJSON writes v as the JSON body of a response with the given
// status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the status is sent; a failed write has no one to tell
}

// WriteError writes an ErrorResponse with the formatted message.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// DecodeBody decodes a JSON request body of at most 8 MiB into v,
// rejecting unknown fields so schema typos fail loudly instead of
// silently running with defaults. On failure it answers 400 and
// returns false; the handler then has nothing left to write.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// WriteReady answers a readiness probe: 200 {"status":"ready"} when
// there is no reason to refuse traffic, 503 {"status":"unready",
// "reasons":[…]} otherwise.
func WriteReady(w http.ResponseWriter, reasons []string) {
	if len(reasons) > 0 {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unready", "reasons": reasons})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// ErrorMessage extracts the message of an ErrorResponse body, falling
// back to the raw text for bodies that are not one.
func ErrorMessage(data []byte) string {
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err == nil && er.Error != "" {
		return er.Error
	}
	return string(data)
}
