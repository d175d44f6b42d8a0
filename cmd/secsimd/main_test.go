package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestStalledHeaderDisconnected: a client that sends part of a request
// header and then goes quiet must be disconnected once the header timeout
// expires, instead of holding the connection open indefinitely.
func TestStalledHeaderDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("", http.NotFoundHandler(), 100*time.Millisecond, time.Minute)
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/run HTTP/1.1\r\nHost: secsimd\r\n"); err != nil {
		t.Fatal(err)
	}
	// The server's deadline is 100ms; give it ample slack before calling
	// the connection pinned.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// EOF or a reset both mean the server dropped the client.
	if _, err := io.ReadAll(conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("connection with a stalled header is still open after 5s")
	}
}
