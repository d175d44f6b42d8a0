// Package server implements secsimd: a long-lived HTTP/JSON service over
// the experiment engine, speaking the versioned wire contract defined in
// internal/api. /v1/run and /v1/sweep share one execution path (a run is a
// sweep of one spec). Requests for the same configuration coalesce onto
// one simulation through the Runner's singleflight memo; a cancelled
// request sheds its queued jobs, while a simulation already running
// completes into the memo and the request holds its admission slot until
// then. The memo's lifecycle counters are exported on /metrics. With
// cluster mode enabled (-peers), each request is routed across the fleet
// on a consistent-hash ring so the memos partition exactly-once across
// instances.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// maxBodyBytes bounds request bodies; sweep lists are small JSON.
const maxBodyBytes = 1 << 20

// decodeJSON reads one JSON value from the request body, rejecting
// trailing garbage and unknown fields so typos ("benhc") fail loudly.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("bad request body: trailing data after JSON value")
	}
	return nil
}
