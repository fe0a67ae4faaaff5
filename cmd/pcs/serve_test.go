package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeClosesStalledHeaders: a client that sends part of a request
// header and then stalls is disconnected by pcs serve's http.Server once
// the header timeout passes, rather than holding the connection open.
func TestServeClosesStalledHeaders(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: pcs\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(serveReadHeaderTimeout + 5*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("connection with a partial header still open after %v", time.Since(start).Round(time.Second))
		}
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < serveReadHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header timeout", waited)
	}
}
