package cape

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestSlowHeadersDisconnected: a client that sends half a request line
// and then stalls is disconnected once the header timeout passes, and a
// normal request on the same server still succeeds.
func TestSlowHeadersDisconnected(t *testing.T) {
	const timeout = 200 * time.Millisecond
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = timeout

	// Reserve a loopback port for ServeHandler, which listens itself.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- ServeHandler(ctx, addr, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "ok")
		}))
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeHandler: %v", err)
		}
	}()

	var conn net.Conn
	for deadline := time.Now().Add(5 * time.Second); ; {
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HT"); err != nil {
		t.Fatal(err)
	}
	// The server may answer with a 4xx before hanging up; either way the
	// read must end in EOF, not in the client's own deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(conn)
	waited := time.Since(start)
	if err != nil {
		t.Fatalf("stalled client still connected after %v: %v", waited, err)
	}
	if len(reply) > 0 && !strings.HasPrefix(string(reply), "HTTP/1.1 4") {
		t.Fatalf("stalled client got %q, want a 4xx or a plain hang-up", reply)
	}
	// The server's clock starts at accept, a little before ours.
	if waited < timeout/2 {
		t.Fatalf("disconnected after %v, well before the %v header timeout", waited, timeout)
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("normal request after the stalled one: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("normal request: %d %q", resp.StatusCode, body)
	}
}
