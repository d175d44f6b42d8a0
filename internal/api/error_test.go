package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"unicode/utf8"
)

// allCodes lists every error code a server may put on the wire.
var allCodes = []string{
	CodeBadRequest, CodeNotFound, CodeMethodNotAllowed,
	CodeOverloaded, CodeUnsupportedVersion, CodeInternal,
}

// writtenError returns the status and body WriteError puts on the wire
// for e.
func writtenError(t testing.TB, e *Error) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	if err := WriteError(rec, e); err != nil {
		t.Fatal(err)
	}
	return rec.Code, rec.Body.Bytes()
}

// FuzzErrorFromBody feeds arbitrary (status, body) pairs through the decode
// every cluster client runs on a peer's non-2xx response. It must never
// panic and must always yield a usable error: a non-empty code whose status
// is an error status. A body that is not an envelope degrades to
// CodeInternal carrying the status and at most 256 bytes of the body, and
// an envelope WriteError wrote decodes back to the error it was written
// from.
func FuzzErrorFromBody(f *testing.F) {
	for _, code := range allCodes {
		e := &Error{Code: code, Message: "seed " + code}
		if code == CodeOverloaded {
			e.RetryAfterS = 3
		}
		status, body := writtenError(f, e)
		f.Add(status, body)
	}
	f.Add(http.StatusBadGateway, []byte("<html><body><h1>502 Bad Gateway</h1></body></html>"))
	f.Add(http.StatusInternalServerError, []byte(`{"error":{"code":"overlo`))
	f.Add(http.StatusServiceUnavailable, []byte{})
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		e := ErrorFromBody(status, body)
		if e == nil {
			t.Fatal("nil error")
		}
		if e.Code == "" {
			t.Fatalf("empty code for body %q", body)
		}
		if s := Status(e.Code); s < 400 {
			t.Fatalf("code %q maps to status %d", e.Code, s)
		}
		var env Envelope
		if json.Unmarshal(body, &env) != nil || env.Err.Code == "" {
			prefix := body[:min(len(body), 256)]
			want := Error{Code: CodeInternal, Message: fmt.Sprintf("status %d: %s", status, prefix)}
			if *e != want {
				t.Fatalf("unparsable body %q decoded to %+v, want %+v", body, *e, want)
			}
		}

		// Round trip: the fuzzed bytes become the message of each code.
		// JSON carries only valid UTF-8 verbatim.
		if !utf8.Valid(body) {
			return
		}
		for _, code := range allCodes {
			sent := &Error{Code: code, Message: string(body), RetryAfterS: int64(status & 0xff)}
			wireStatus, wire := writtenError(t, sent)
			if got := ErrorFromBody(wireStatus, wire); *got != *sent {
				t.Fatalf("WriteError(%+v) decoded to %+v", *sent, *got)
			}
		}
	})
}
