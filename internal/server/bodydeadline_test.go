package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestStalledBodyReleasesAdmission: a client that sends its headers and
// one byte of a longer body, then stalls, has its request ended within twice
// the body-read bound, with a 400 envelope or a closed connection, and the
// admission slot it held comes back.
func TestStalledBodyReleasesAdmission(t *testing.T) {
	saved := bodyTimeout
	bodyTimeout = 200 * time.Millisecond
	t.Cleanup(func() { bodyTimeout = saved }) // after the server closes
	s, ts := newTestServer(t, Config{MaxAdmit: 1})

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	limit := start.Add(2 * bodyTimeout)
	if _, err := io.WriteString(conn, "POST /v1/run HTTP/1.1\r\nHost: secsimd\r\n"+
		"Content-Type: application/json\r\nContent-Length: 64\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(limit); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	switch {
	case err == nil:
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"bad_request"`) {
			t.Errorf("stalled body answered %d %s, want a 400 bad_request envelope", resp.StatusCode, body)
		}
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		// The server closed the connection: also an end.
	default:
		t.Fatalf("stalled body not ended within %v: %v", 2*bodyTimeout, err)
	}
	for s.admission.Stats().InFlight != 0 {
		if time.Now().After(limit) {
			t.Fatalf("admission in-flight = %d %v after the stall began, want 0", s.admission.Stats().InFlight, time.Since(start))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
