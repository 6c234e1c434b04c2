// Command caped serves the CAPE simulator as a long-running HTTP
// service: clients submit assembly source or named workload kernels as
// JSON jobs, a worker pool executes them on a sharded pool of reusable
// machines, and Prometheus-style metrics are exported on /metrics.
//
// Usage:
//
//	caped [flags]
//
//	-addr :8080            listen address
//	-workers N             concurrent executors (default GOMAXPROCS)
//	-queue N               job queue depth (default 256)
//	-machines N            pooled machines per configuration (default workers)
//	-timeout D             default per-job wall-time limit (default 60s)
//	-max-timeout D         hard per-job wall-time cap (default 10m)
//	-max-insts N           default per-job instruction budget
//	-ram BYTES             main memory per pooled machine
//	-ucode-cache N         microcode templates cached per pool shard
//	                       (0 = default 1024, negative = off)
//	-asm-cache N           compiled programs cached for source jobs
//	                       (0 = default 256)
//	-faults SPEC           deterministic fault injection, e.g.
//	                       seed=1,hbm-drop=0.01,stuck=0.001 (default off)
//	-retries N             per-job retry budget for transient faults
//	                       (0 = default 3, negative = off)
//	-retry-base D          base backoff between retries (default 5ms)
//	-retry-max D           backoff cap between retries (default 250ms)
//	-breaker-threshold N   consecutive failures that open a shard's circuit
//	                       breaker (0 = default 8, negative = off)
//	-breaker-cooldown D    open-breaker duration before a probe (default 500ms)
//	-trace                 profile every job (per-job: POST /v1/jobs?trace=1)
//	-trace-sample N        record every Nth timeline event for traced jobs
//	-trace-store N         completed traces kept for GET /v1/jobs/{id}/trace
//	-job-log DEST          per-job JSON log: stderr, stdout, a path, or off
//	-log-level LEVEL       server log verbosity: debug, info, warn, error
//	-flight N              flight-recorder events kept per shard ring
//	-slo-window D          SLO rolling window (default 5m)
//	-slo-latency D         SLO latency objective per request (default 2s)
//	-debug-addr ADDR       serve net/http/pprof on a second listener
//
// Cluster flags (see the README's "Cluster mode" section):
//
//	-mode MODE             standalone (default), coordinator, or worker
//	-coordinator URL       coordinator base URL a worker registers with
//	-advertise URL         base URL the coordinator reaches this worker at
//	                       (default derived from -addr on loopback)
//	-worker-id ID          worker's ring identity (default the advertise
//	                       host:port)
//	-heartbeat D           worker heartbeat interval (default 1s)
//	-worker-timeout D      coordinator evicts workers silent this long
//	                       (default 5s)
//	-cluster-retries N     extra workers a retryable failure may be
//	                       rerouted to (default 2)
//	-cluster-inflight N    per-worker in-flight bound before bounded-load
//	                       spill to the next ring worker (default 32)
//	-cluster-admission N   aggregate queue-depth limit before 503
//	                       cluster_busy (default 1024, negative = off)
//	-cluster-batch N       max jobs per batch round trip to one worker
//	                       (default 8, 1 = no batching)
//	-cluster-batch-window D  linger before an unfilled batch ships
//	                       (default 500us)
//
// Endpoints: POST /v1/jobs (?trace=1 inlines the Chrome timeline),
// GET /v1/jobs/{id}/trace, GET /v1/workloads, GET /v1/status,
// GET /v1/debug/flightrecorder[/{id}], GET /healthz, GET /metrics.
// Coordinators add GET /v1/cluster/status and the membership protocol;
// workers add POST /v1/cluster/batch and POST /v1/cluster/drain.
// See the README's "Running caped" and "Observability" sections for
// curl examples.
//
// SIGQUIT dumps the merged flight recorder to stderr as JSON without
// stopping the server — the software analogue of a hardware debug
// port: always on, queryable post-hoc.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cape"
	"cape/internal/cluster"
	"cape/internal/fault"
)

// jobLogWriter resolves the -job-log destination.
func jobLogWriter(dest string) (io.Writer, error) {
	switch dest {
	case "", "off", "none":
		return nil, nil
	case "stderr":
		return os.Stderr, nil
	case "stdout":
		return os.Stdout, nil
	}
	return os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// parseLevel resolves the -log-level flag.
func parseLevel(s string) (slog.Level, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("want debug, info, warn or error, got %q", s)
	}
	return l, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "caped:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "concurrent executors (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "job queue depth (0 = 256)")
		machines    = flag.Int("machines", 0, "pooled machines per configuration (0 = workers)")
		timeout     = flag.Duration("timeout", 0, "default per-job wall-time limit (0 = 60s)")
		maxTimeout  = flag.Duration("max-timeout", 0, "hard per-job wall-time cap (0 = 10m)")
		maxInsts    = flag.Int64("max-insts", 0, "default per-job instruction budget (0 = 2e9)")
		ram         = flag.Int("ram", 0, "main memory bytes per pooled machine (0 = 160 MiB)")
		ucodeCache  = flag.Int("ucode-cache", 0, "microcode templates cached per pool shard (0 = default, negative = off)")
		asmCache    = flag.Int("asm-cache", 0, "compiled programs cached for source jobs (0 = default 256)")
		traceAll    = flag.Bool("trace", false, "profile every job (otherwise per-job via ?trace=1 or the request body)")
		traceSample = flag.Int("trace-sample", 0, "record every Nth timeline event for traced jobs (0 = all)")
		traceStore  = flag.Int("trace-store", 0, "completed traces kept for GET /v1/jobs/{id}/trace (0 = 64)")
		jobLog      = flag.String("job-log", "stderr", "per-job JSON log destination: stderr, stdout, a file path, or off")
		logLevel    = flag.String("log-level", "info", "server log verbosity: debug, info, warn or error")
		flightCap   = flag.Int("flight", 0, "flight-recorder events kept per shard ring (0 = 1024)")
		sloWindow   = flag.Duration("slo-window", 0, "SLO rolling availability/latency window (0 = 5m)")
		sloLatency  = flag.Duration("slo-latency", 0, "SLO per-request latency objective (0 = 2s)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this second listener (empty = off)")

		faults    = flag.String("faults", "", "fault-injection spec, e.g. seed=1,hbm-drop=0.01,stuck=0.001 (empty = off)")
		retries   = flag.Int("retries", 0, "per-job retry budget for transient faults (0 = default 3, negative = off)")
		retryBase = flag.Duration("retry-base", 0, "base backoff between retry attempts (0 = 5ms)")
		retryMax  = flag.Duration("retry-max", 0, "backoff cap between retry attempts (0 = 250ms)")
		brkThresh = flag.Int("breaker-threshold", 0, "consecutive job failures that open a shard's circuit breaker (0 = default 8, negative = off)")
		brkCool   = flag.Duration("breaker-cooldown", 0, "open-breaker duration before a half-open probe (0 = 500ms)")

		mode         = flag.String("mode", "standalone", "standalone, coordinator, or worker")
		coordURL     = flag.String("coordinator", "", "coordinator base URL a worker registers with")
		advertise    = flag.String("advertise", "", "base URL the coordinator reaches this worker at (empty = derived from -addr on loopback)")
		workerID     = flag.String("worker-id", "", "worker's ring identity (empty = advertise host:port)")
		heartbeat    = flag.Duration("heartbeat", 0, "worker heartbeat interval (0 = 1s)")
		workerTO     = flag.Duration("worker-timeout", 0, "coordinator evicts workers silent this long (0 = 5s)")
		clRetries    = flag.Int("cluster-retries", 0, "extra workers a retryable failure may be rerouted to (0 = default 2, negative = off)")
		clInflight   = flag.Int("cluster-inflight", 0, "per-worker in-flight bound before bounded-load spill (0 = 32)")
		clAdmission  = flag.Int("cluster-admission", 0, "aggregate queue-depth limit before 503 cluster_busy (0 = 1024, negative = off)")
		clBatch      = flag.Int("cluster-batch", 0, "max jobs per batch round trip to one worker (0 = 8, 1 = no batching)")
		clBatchLingr = flag.Duration("cluster-batch-window", 0, "linger before an unfilled batch ships (0 = 500us)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("usage: caped [flags]")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	level, err := parseLevel(*logLevel)
	if err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	logW, err := jobLogWriter(*jobLog)
	if err != nil {
		return fmt.Errorf("-job-log: %w", err)
	}
	faultCfg, err := fault.ParseSpec(*faults)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	if *debugAddr != "" {
		// The default mux carries the pprof handlers; the API mux on the
		// main listener does not, so profiling stays on its own port.
		go func() {
			logger.Info("pprof listener up", "url", "http://"+*debugAddr+"/debug/pprof/")
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				logger.Error("debug listener failed", "error", err.Error())
			}
		}()
	}
	opts := cape.ServerOptions{
		Workers:             *workers,
		QueueDepth:          *queue,
		MachinesPerConfig:   *machines,
		DefaultTimeout:      *timeout,
		MaxTimeout:          *maxTimeout,
		DefaultMaxInsts:     *maxInsts,
		RAMBytes:            *ram,
		UcodeCacheSize:      *ucodeCache,
		AsmCacheSize:        *asmCache,
		Faults:              faultCfg,
		Retries:             *retries,
		RetryBaseDelay:      *retryBase,
		RetryMaxDelay:       *retryMax,
		BreakerThreshold:    *brkThresh,
		BreakerCooldown:     *brkCool,
		TraceAll:            *traceAll,
		TraceSample:         *traceSample,
		TraceStoreCap:       *traceStore,
		JobLog:              logW,
		Logger:              logger,
		FlightRecorderCap:   *flightCap,
		SLOWindow:           *sloWindow,
		SLOLatencyObjective: *sloLatency,
	}
	srv := cape.NewServer(opts)
	defer srv.Close()

	// SIGQUIT dumps the merged flight recorder to stderr and keeps
	// serving — always-on postmortem state, no restart required.
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	defer signal.Stop(sigq)
	go func() {
		for range sigq {
			events := srv.Flight().SnapshotAll()
			b, err := json.MarshalIndent(map[string]any{"events": events}, "", "  ")
			if err != nil {
				logger.Error("flight dump failed", "error", err.Error())
				continue
			}
			logger.Warn("flight recorder dump (SIGQUIT)", "events", len(events))
			os.Stderr.Write(append(b, '\n'))
		}
	}()

	var handler http.Handler = srv.Handler()
	serveCtx := ctx
	switch *mode {
	case "standalone":
		// Today's single-node daemon, unchanged.
	case "coordinator":
		coord := cluster.NewCoordinator(srv, cluster.CoordinatorOptions{
			RouteRetries:      *clRetries,
			MaxWorkerInflight: *clInflight,
			AdmissionLimit:    *clAdmission,
			BatchMax:          *clBatch,
			BatchWindow:       *clBatchLingr,
			HeartbeatTimeout:  *workerTO,
			Logger:            logger,
		})
		defer coord.Close()
		handler = coord.Handler()
	case "worker":
		adv := *advertise
		if adv == "" {
			adv = defaultAdvertise(*addr)
		}
		if adv == "" {
			return fmt.Errorf("-mode=worker: set -advertise (cannot derive a URL from -addr %q)", *addr)
		}
		id := *workerID
		if id == "" {
			id = strings.TrimPrefix(strings.TrimPrefix(adv, "https://"), "http://")
		}
		w := cluster.NewWorker(srv, cluster.WorkerOptions{
			ID:                id,
			AdvertiseURL:      adv,
			CoordinatorURL:    *coordURL,
			HeartbeatInterval: *heartbeat,
			Logger:            logger,
		})
		handler = w.Handler()
		w.Start()
		defer w.Close()
		// Graceful drain: SIGTERM deregisters first so the coordinator
		// rebalances the ring and stops routing here, then the listener
		// shuts down and in-flight jobs finish.
		srvCtx, srvCancel := context.WithCancel(context.Background())
		defer srvCancel()
		go func() {
			<-ctx.Done()
			dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			w.Drain(dctx)
			cancel()
			srvCancel()
		}()
		serveCtx = srvCtx
	default:
		return fmt.Errorf("-mode: want standalone, coordinator or worker, got %q", *mode)
	}

	logger.Info("listening", "addr", *addr, "mode", *mode)
	start := time.Now()
	err = cape.ServeHandler(serveCtx, *addr, handler)
	logger.Info("shut down", "after", time.Since(start).Round(time.Millisecond).String())
	return err
}

// defaultAdvertise derives a loopback advertise URL from a listen
// address like ":8081" or "0.0.0.0:8081" — the single-host topology
// the CI matrix and local experiments run.
func defaultAdvertise(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil || port == "" {
		return ""
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
