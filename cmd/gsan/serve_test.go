package main

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"giantsan/internal/service"
)

// TestServerCutsOffUnfinishedHeaders: a client that opens a connection
// and never finishes its request headers is disconnected once
// readHeaderTimeout passes, instead of holding the connection for as long
// as it likes.
func TestServerCutsOffUnfinishedHeaders(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	handler := service.NewServer(service.New(service.Config{Workers: 1}))
	srv := newHTTPServer(ln.Addr().String(), handler)
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("server bounds: read-header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		handler.Close()
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header, then silence: the blank line that
	// ends the headers never comes.
	if _, err := io.WriteString(conn, "POST /sessions HTTP/1.1\r\nHost: gsan\r\n"); err != nil {
		t.Fatal(err)
	}
	// The client's own deadline is a minute past the server's bound, so
	// it fires only if the server never hangs up.
	conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + time.Minute))
	got, err := io.ReadAll(conn)
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatalf("connection still open %v after the unfinished headers", readHeaderTimeout+time.Minute)
	case len(got) != 0:
		t.Fatalf("server answered an unfinished request: %q", got)
	}
}
