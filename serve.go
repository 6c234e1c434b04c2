package cape

import (
	"context"
	"net/http"
	"time"

	"cape/internal/server"
)

// Server is the concurrent CAPE simulation service: a bounded job
// queue, a worker pool, and a sharded pool of reusable machines (one
// shard per configuration). See cmd/caped for the standalone daemon.
type Server = server.Server

// ServerOptions configures a Server; the zero value picks sensible
// defaults (GOMAXPROCS workers, 256-deep queue, 60 s timeout).
type ServerOptions = server.Options

// JobRequest describes one job: assembly source, a named workload
// kernel, or a declarative query (see QueryRequest), plus the machine
// selection and per-job limits.
type JobRequest = server.Request

// JobResponse carries the full simulator Result plus the host-side
// queue/run latency breakdown.
type JobResponse = server.Response

// NewServer starts the service's workers and returns it. Submit jobs
// with (*Server).Submit or serve its HTTP API via (*Server).Handler.
// Close it to drain.
func NewServer(opts ServerOptions) *Server { return server.New(opts) }

// Serve runs the caped HTTP API on addr until ctx is canceled, then
// shuts down gracefully: the listener closes, in-flight jobs finish,
// and the worker pool drains.
func Serve(ctx context.Context, addr string, opts ServerOptions) error {
	s := server.New(opts)
	defer s.Close()
	return ServeWith(ctx, addr, s)
}

// ServeWith serves an already-constructed Server on addr until ctx is
// canceled. Use it instead of Serve when the caller needs a handle on
// the Server — e.g. cmd/caped dumps s.Flight() on SIGQUIT. The caller
// owns the Server's lifecycle (Close it after ServeWith returns).
func ServeWith(ctx context.Context, addr string, s *Server) error {
	return ServeHandler(ctx, addr, s.Handler())
}

// readHeaderTimeout bounds how long a connection may take to deliver a
// request's headers, so a client that connects and never finishes them
// cannot hold a connection and its goroutine forever. net/http does not
// apply it to idle keep-alive connections between requests.
var readHeaderTimeout = 10 * time.Second

// ServeHandler serves an arbitrary handler on addr with the same
// graceful-shutdown contract as ServeWith: when ctx is canceled the
// listener closes and in-flight requests finish. Cluster mode mounts
// the coordinator and worker surfaces through it.
func ServeHandler(ctx context.Context, addr string, h http.Handler) error {
	hs := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case <-ctx.Done():
		hs.Shutdown(context.Background())
		<-errc
		return nil
	case err := <-errc:
		return err
	}
}
