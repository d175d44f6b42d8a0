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
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxBodyBytes bounds request bodies; sweep lists are small JSON.
const maxBodyBytes = 1 << 20

// bodyReadTimeout bounds how long a handler waits for its request body, so
// a client that sends headers and then trickles or withholds the body
// cannot hold a handler and its admission slot. The deadline covers the
// decode only: http.Server.ReadTimeout would leave it on the connection,
// where net/http's background read could hit it and cancel the context of
// a long figure request.
const bodyReadTimeout = 10 * time.Second

// bodyTimeout is the deadline decodeJSON applies; tests shorten it.
var bodyTimeout = bodyReadTimeout

// decodeJSON reads one JSON value from the request body within
// bodyTimeout, rejecting trailing garbage and unknown fields so typos
// ("benhc") fail loudly.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	rc := http.NewResponseController(w)
	if err := rc.SetReadDeadline(time.Now().Add(bodyTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return fmt.Errorf("bad request body: %w", err)
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("bad request body: trailing data after JSON value")
	}
	// Cleared only once the whole body is in: after a failed decode,
	// net/http reads the body's rest before it answers, and the deadline
	// bounds that read too.
	rc.SetReadDeadline(time.Time{})
	return nil
}
