// Package server is the caped serving subsystem: a bounded job queue,
// a fixed worker pool, and a sharded pool of reusable core.Machine
// instances. It turns the one-shot simulator into a long-running,
// multi-tenant service in the spirit of the FPGA follow-on work, where
// a content-addressable engine is a shared resource programmed by many
// clients.
//
// A job travels: Submit → queue → worker → pool.Get → Exec (budget +
// timeout enforced by the CP) → response → pool.Put (Reset). Queue
// wait and run time are measured separately and exported as histograms
// on /metrics.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cape/internal/asm"
	"cape/internal/core"
	"cape/internal/cp"
	"cape/internal/fault"
	"cape/internal/metrics"
	"cape/internal/telemetry"
	"cape/internal/workloads"
)

// ErrQueueFull is returned by Submit when the job queue is at
// capacity; HTTP maps it to 503.
var ErrQueueFull = errors.New("server: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("server: closed")

// Options configures a Server. The zero value selects the defaults
// noted per field.
type Options struct {
	// Workers is the number of concurrent executors (default:
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 256).
	QueueDepth int
	// MachinesPerConfig caps each pool shard (default: Workers, so the
	// pool can never stall a worker).
	MachinesPerConfig int
	// DefaultTimeout bounds a job's host wall time when the request
	// does not set one (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request timeouts (default 10m).
	MaxTimeout time.Duration
	// DefaultMaxInsts is the per-job instruction budget when the
	// request does not set one (default 2e9, the simulator's own
	// runaway limit).
	DefaultMaxInsts int64
	// RAMBytes sizes pooled machines' main memory (default
	// workloads.RAMBytes so one shard serves both job kinds).
	RAMBytes int
	// AsmCache is the compiled-program cache source jobs assemble
	// through. Nil makes New allocate one of AsmCacheSize; set it to
	// share a cache across servers or pre-warm programs. Compile with a
	// nil cache (e.g. capesim's one-shot path) compiles directly.
	AsmCache *asm.Cache
	// AsmCacheSize bounds the allocated AsmCache in programs (0 =
	// asm.DefaultCacheSize, 256).
	AsmCacheSize int
	// Asm configures the assembler pipeline for source jobs. The zero
	// value rejects .include — the right stance for server-submitted
	// source, which must never read the server's filesystem.
	Asm asm.Options
	// UcodeCacheSize bounds each pool shard's shared microcode template
	// cache in templates: 0 selects ucode.DefaultCacheSize, negative
	// disables template caching (every instruction lowers directly).
	// All machines of a shard share one cache, so a program's
	// microcode compiles once per shard.
	UcodeCacheSize int
	// Faults configures deterministic fault injection on pooled
	// machines (zero value = off). All machines derive their streams
	// from one parent injector owned by the server, so /metrics sees a
	// single caped_faults_injected_total counter family.
	Faults fault.Config
	// Retries is the per-job retry budget for transient injected
	// faults (stuck tag, dropped transfer): up to
	// Retries additional attempts with exponential backoff + jitter.
	// 0 selects the default 3; negative disables retries.
	Retries int
	// RetryBaseDelay/RetryMaxDelay bound the backoff between attempts
	// (defaults 5ms and 250ms).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// BreakerThreshold opens a shard's circuit breaker after this many
	// consecutive failed jobs; while open, jobs fail fast with
	// ErrBreakerOpen (HTTP 503) until a cooldown probe succeeds. 0
	// selects the default 8; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open state's duration before a half-open
	// probe (default 500ms).
	BreakerCooldown time.Duration
	// Registry receives the service metrics (default: a fresh one).
	Registry *metrics.Registry
	// TraceAll profiles every job as if each request set Trace
	// (fleet-wide observability; per-job traces still land in the trace
	// store and the caped_cycles_total counters).
	TraceAll bool
	// TraceSample is the default timeline sampling period for traced
	// jobs that do not set their own (<= 1 records every event).
	TraceSample int
	// TraceStoreCap bounds how many completed job traces are retained
	// for GET /v1/jobs/{id}/trace (default 64).
	TraceStoreCap int
	// JobLog, when non-nil, receives one structured JSON line per job
	// (id, program, config, backend, status, durations), emitted
	// through log/slog's JSON handler. Writes are serialized by the
	// handler.
	JobLog io.Writer
	// Logger, when non-nil, receives operational structured logs
	// (breaker transitions, flight dumps) with
	// request-id/shard/kind attributes. Nil discards them.
	Logger *slog.Logger
	// FlightRecorderCap bounds each shard's flight-recorder ring in
	// events (default telemetry.DefaultFlightCap).
	FlightRecorderCap int
	// SLOWindow is the rolling window for availability and latency
	// burn-rate tracking (default 5m); SLOLatencyObjective is the
	// per-request latency bound it burns against (default 2s).
	SLOWindow           time.Duration
	SLOLatencyObjective time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.MachinesPerConfig <= 0 {
		o.MachinesPerConfig = o.Workers
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 10 * time.Minute
	}
	if o.DefaultMaxInsts <= 0 {
		o.DefaultMaxInsts = cp.DefaultConfig().MaxInsts
	}
	if o.RAMBytes <= 0 {
		o.RAMBytes = workloads.RAMBytes
	}
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 5 * time.Millisecond
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = 250 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 8
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 500 * time.Millisecond
	}
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
	if o.TraceStoreCap <= 0 {
		o.TraceStoreCap = 64
	}
	return o
}

// job is one queued unit of work.
type job struct {
	id       uint64
	name     string // program or workload name, for the job log
	kind     string // request kind (source/workload/query), for SLOs
	shard    string // pool shard key, for flight-recorder correlation
	spec     *Spec
	ctx      context.Context
	enqueued time.Time
	done     chan jobDone // buffered(1): workers never block on delivery
}

type jobDone struct {
	resp *Response
	err  error
}

// Server owns the queue, the workers, and the machine pool.
type Server struct {
	opts    Options
	pool    *Pool
	queue   chan *job
	started time.Time
	nextID  atomic.Uint64

	reg       *metrics.Registry
	submitted *metrics.Counter
	rejected  *metrics.Counter
	inflight  *metrics.Gauge
	queueH    *metrics.Histogram
	runH      *metrics.Histogram
	totalH    *metrics.Histogram
	resetH    *metrics.Histogram

	traces *traceStore
	// dumps retains flight-recorder snapshots captured on 5xx
	// responses, retrievable from /v1/debug/flightrecorder/{id}.
	dumps *traceStore

	// flight records structured lifecycle events per shard; slo tracks
	// rolling-window availability and latency burn per request kind.
	flight *telemetry.Flight
	slo    *telemetry.SLO
	// kindH holds the per-kind request latency histograms the SLO p99
	// gauges sample.
	kindH map[string]*metrics.Histogram

	// jobLog emits the per-job JSON lines (nil = off); logger carries
	// operational events (never nil — defaults to a nop logger).
	jobLog *slog.Logger
	logger *slog.Logger

	// injector is the parent fault-injection stream shared by every
	// pooled machine (nil = injection off); retries counts attempt
	// retries after transient injected faults.
	injector  *fault.Injector
	retries   *metrics.Counter
	breakerMu sync.Mutex
	breakers  map[string]*Breaker

	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup
}

// New builds a server and starts its workers.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	// The program cache is allocated here, NOT in withDefaults: Compile
	// re-defaults the options per request, and allocating there would
	// hand every request a fresh (useless) cache.
	if opts.AsmCache == nil {
		opts.AsmCache = asm.NewCache(opts.AsmCacheSize)
	}
	reg := opts.Registry
	s := &Server{
		opts:    opts,
		pool:    NewPool(opts.MachinesPerConfig),
		queue:   make(chan *job, opts.QueueDepth),
		started: time.Now(),
		reg:     reg,
		submitted: reg.Counter("caped_jobs_submitted_total",
			"Jobs accepted into the queue.", nil),
		rejected: reg.Counter("caped_jobs_rejected_total",
			"Jobs rejected because the queue was full.", nil),
		inflight: reg.Gauge("caped_jobs_inflight",
			"Jobs queued or executing.", nil),
		queueH: reg.Histogram("caped_queue_seconds",
			"Host time a job spent waiting for a worker.", metrics.DefLatencyBuckets, nil),
		runH: reg.Histogram("caped_run_seconds",
			"Host time a job spent executing on the simulator.", metrics.DefLatencyBuckets, nil),
		totalH: reg.Histogram("caped_total_seconds",
			"Host time from submit to completion.", metrics.DefLatencyBuckets, nil),
		resetH: reg.Histogram("caped_pool_reset_seconds",
			"Host time resetting a machine before it returns to the pool.", metrics.DefLatencyBuckets, nil),
		traces: newTraceStore(opts.TraceStoreCap),
		dumps:  newTraceStore(32),
		flight: telemetry.NewFlight(opts.FlightRecorderCap),
		slo: telemetry.NewSLO(telemetry.SLOConfig{
			Window:           opts.SLOWindow,
			LatencyObjective: opts.SLOLatencyObjective,
		}),
		kindH:    make(map[string]*metrics.Histogram),
		injector: fault.New(opts.Faults),
		breakers: make(map[string]*Breaker),
		logger:   opts.Logger,
	}
	if s.logger == nil {
		s.logger = telemetry.NopLogger()
	}
	if opts.JobLog != nil {
		s.jobLog = slog.New(slog.NewJSONHandler(opts.JobLog, nil))
	}
	telemetry.RegisterRuntimeMetrics(reg)
	reg.CounterFunc("caped_traces_evicted_total",
		"Completed job traces evicted from the bounded trace store.", nil,
		s.traces.evicted)
	reg.CounterFunc("caped_flight_events_total",
		"Events recorded across all flight-recorder rings.", nil,
		s.flight.Recorded)
	for _, kind := range requestKinds {
		kind := kind
		labels := metrics.Labels{"kind": kind}
		s.kindH[kind] = reg.Histogram("caped_request_seconds",
			"End-to-end request latency by request kind.",
			metrics.DefLatencyBuckets, labels)
		h := s.kindH[kind]
		reg.GaugeFunc("caped_slo_availability_ppm",
			"Rolling-window availability by request kind, in parts per million.",
			labels, func() int64 {
				return int64(s.slo.SnapshotKind(kind).Availability * 1e6)
			})
		reg.GaugeFunc("caped_slo_error_burn_rate_milli",
			"Error-budget burn rate by request kind (1000 = burning exactly at objective).",
			labels, func() int64 {
				return int64(s.slo.SnapshotKind(kind).ErrorBurnRate * 1e3)
			})
		reg.GaugeFunc("caped_slo_latency_burn_rate_milli",
			"Latency-budget burn rate by request kind (1000 = burning exactly at objective).",
			labels, func() int64 {
				return int64(s.slo.SnapshotKind(kind).LatencyBurnRate * 1e3)
			})
		reg.GaugeFunc("caped_slo_p99_latency_us",
			"p99 end-to-end request latency by request kind, in microseconds.",
			labels, func() int64 {
				return int64(h.Quantile(0.99) * 1e6)
			})
	}
	s.retries = reg.Counter("caped_retries_total",
		"Job attempts retried after transient injected faults.", nil)
	if s.injector != nil {
		for c := fault.Class(0); c < fault.NumClasses; c++ {
			reg.CounterFunc("caped_faults_injected_total",
				"Faults injected by the chaos layer, by class.",
				metrics.Labels{"class": c.String()},
				func() uint64 { return s.injector.Count(c) })
		}
	}
	// Template-cache effectiveness is sampled live at render time from
	// the pool's shard caches.
	reg.CounterFunc("caped_ucode_cache_hits_total",
		"Microcode template cache hits across all pool shards.", nil,
		func() uint64 { return s.pool.UcodeStats().Hits })
	reg.CounterFunc("caped_ucode_cache_misses_total",
		"Microcode template cache misses across all pool shards.", nil,
		func() uint64 { return s.pool.UcodeStats().Misses })
	reg.GaugeFunc("caped_ucode_cache_entries",
		"Cached microcode templates across all pool shards.", nil,
		func() int64 { return int64(s.pool.UcodeStats().Entries) })
	reg.CounterFunc("caped_asm_cache_hits_total",
		"Compiled-program cache hits for source jobs.", nil,
		func() uint64 { return s.opts.AsmCache.Stats().Hits })
	reg.CounterFunc("caped_asm_cache_misses_total",
		"Compiled-program cache misses for source jobs.", nil,
		func() uint64 { return s.opts.AsmCache.Stats().Misses })
	reg.GaugeFunc("caped_asm_cache_entries",
		"Compiled programs (including cached failures) resident in the program cache.", nil,
		func() int64 { return int64(s.opts.AsmCache.Stats().Entries) })
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the server's metrics registry (the /metrics
// source).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Pool returns the machine pool (health reporting, tests).
func (s *Server) Pool() *Pool { return s.pool }

// QueueLen reports the jobs currently waiting for a worker; cluster
// workers ship it in heartbeats so the coordinator sees backpressure.
func (s *Server) QueueLen() int { return len(s.queue) }

// InflightJobs reports jobs queued or executing right now.
func (s *Server) InflightJobs() int64 { return s.inflight.Value() }

// Options returns the effective (defaulted) options.
func (s *Server) Options() Options { return s.opts }

// Close stops accepting jobs, drains the queue, and waits for the
// workers to finish.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.closeMu.Unlock()
	s.wg.Wait()
}

// Submit compiles req, enqueues it, and blocks until the job completes
// or ctx expires. It never blocks on a full queue: saturation returns
// ErrQueueFull immediately so callers can shed load.
func (s *Server) Submit(ctx context.Context, req Request) (*Response, error) {
	resp, _, err := s.SubmitJob(ctx, req)
	return resp, err
}

// jobName labels a request in logs before it compiles.
func jobName(req Request) string {
	switch {
	case req.Query != nil:
		return "query:" + string(req.Query.Kind)
	case req.Workload != "":
		return req.Workload
	case req.Name != "":
		return req.Name
	}
	return "job"
}

// requestKinds are the SLO-tracked request classes.
var requestKinds = []string{"source", "workload", "query"}

// requestKind classifies a request for SLO tracking and log attrs.
func requestKind(req Request) string {
	switch {
	case req.Query != nil:
		return "query"
	case req.Workload != "":
		return "workload"
	}
	return "source"
}

// serverOK reports whether err counts as availability-good for SLO
// purposes: only server-attributed failures (would-be 5xx) burn error
// budget — a client's bad program is not the service failing.
func serverOK(err error) bool {
	return err == nil || httpStatusOf(err) < 500
}

// Flight returns the server's flight recorder (debug endpoints, the
// SIGQUIT dump in caped).
func (s *Server) Flight() *telemetry.Flight { return s.flight }

// SLO returns the rolling-window SLO tracker.
func (s *Server) SLO() *telemetry.SLO { return s.slo }

// SubmitJob is Submit returning the job id as well. The id is
// allocated before compilation, so even a rejected request has an id
// its error response and log line share — every job a client hears
// about is correlatable.
func (s *Server) SubmitJob(ctx context.Context, req Request) (*Response, uint64, error) {
	id := s.nextID.Add(1)
	start := time.Now()
	kind := requestKind(req)
	spec, err := Compile(req, s.opts)
	if err != nil {
		// Compile rejections are client errors: logged and recorded,
		// but they do not burn availability budget.
		s.flight.Record("server", "job_rejected", id, err.Error())
		s.recordSLO(kind, start, err)
		s.logJob(id, jobName(req), kind, "", req.Config, req.Backend, "rejected", start, 0, err)
		return nil, id, err
	}
	j := &job{
		id:       id,
		name:     jobName(req),
		kind:     kind,
		shard:    ShardKey(spec.Config),
		spec:     spec,
		ctx:      ctx,
		enqueued: start,
		done:     make(chan jobDone, 1),
	}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		s.flight.Record("server", "job_rejected", id, ErrClosed.Error())
		s.recordSLO(kind, start, ErrClosed)
		s.logJob(id, j.name, kind, j.shard, spec.Config.Name, spec.BackendName, "closed", start, 0, ErrClosed)
		return nil, id, ErrClosed
	}
	select {
	case s.queue <- j:
		s.submitted.Inc()
		s.inflight.Inc()
		s.closeMu.RUnlock()
		s.flight.Record(j.shard, "job_admitted", id, j.name)
	default:
		s.rejected.Inc()
		s.closeMu.RUnlock()
		s.flight.Record(j.shard, "queue_rejected", id, "queue full")
		s.recordSLO(kind, start, ErrQueueFull)
		s.logJob(id, j.name, kind, j.shard, spec.Config.Name, spec.BackendName, "queue_full", start, 0, ErrQueueFull)
		return nil, id, ErrQueueFull
	}
	select {
	case d := <-j.done:
		return d.resp, id, d.err
	case <-ctx.Done():
		// The worker will notice the dead context (or finish into the
		// buffered channel) and the machine returns to the pool either
		// way.
		return nil, id, ctx.Err()
	}
}

// jobLogLine is the structured per-job log record, as decoded from the
// slog JSON output (tests and log consumers key on these fields; slog
// adds level/msg alongside).
type jobLogLine struct {
	Time       string  `json:"time"`
	JobID      uint64  `json:"job_id"`
	Program    string  `json:"program"`
	Kind       string  `json:"kind,omitempty"`
	Shard      string  `json:"shard,omitempty"`
	Config     string  `json:"config,omitempty"`
	Backend    string  `json:"backend,omitempty"`
	Status     string  `json:"status"`
	DurationMS float64 `json:"duration_ms"`
	RunMS      float64 `json:"run_ms,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// recordSLO tallies one finished request against its kind's error and
// latency budgets and the per-kind latency histogram.
func (s *Server) recordSLO(kind string, start time.Time, err error) {
	latency := time.Since(start)
	s.slo.Record(kind, serverOK(err), latency)
	if h, ok := s.kindH[kind]; ok {
		h.Observe(latency.Seconds())
	}
}

// logJob emits one structured line describing a finished (or rejected)
// job through the slog JSON handler.
func (s *Server) logJob(id uint64, name, kind, shard, config, backend, status string, start time.Time, runNS int64, err error) {
	if s.jobLog == nil {
		return
	}
	attrs := make([]slog.Attr, 0, 10)
	attrs = append(attrs,
		slog.Uint64("job_id", id),
		slog.String("program", name),
		slog.String("kind", kind))
	if shard != "" {
		attrs = append(attrs, slog.String("shard", shard))
	}
	if config != "" {
		attrs = append(attrs, slog.String("config", config))
	}
	if backend != "" {
		attrs = append(attrs, slog.String("backend", backend))
	}
	attrs = append(attrs,
		slog.String("status", status),
		slog.Float64("duration_ms", float64(time.Since(start).Nanoseconds())/1e6),
		slog.Float64("run_ms", float64(runNS)/1e6))
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	s.jobLog.LogAttrs(context.Background(), slog.LevelInfo, "job", attrs...)
}

// statusOf classifies a job error for the per-status counters.
func statusOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, cp.ErrBudgetExceeded):
		return "budget_exceeded"
	case errors.Is(err, cp.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return "timeout"
	case errors.Is(err, ErrBreakerOpen):
		return "breaker_open"
	case errors.Is(err, fault.ErrInjected):
		return "fault"
	case errors.Is(err, ErrProgramFault):
		return "program_fault"
	case errors.As(err, new(asm.DiagnosticList)):
		return "bad_source"
	default:
		return "error"
	}
}

// breaker returns (creating on first use) the circuit breaker of the
// configuration's pool shard, registering its gauge.
func (s *Server) breaker(cfg core.Config) *Breaker {
	key := ShardKey(cfg)
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	b, ok := s.breakers[key]
	if !ok {
		b = NewBreaker(s.opts.BreakerThreshold, s.opts.BreakerCooldown)
		// Breaker flips land on the shard's flight ring and the
		// operational log, correlated by shard key.
		b.SetOnTransition(func(from, to int64) {
			detail := BreakerStateName(from) + "->" + BreakerStateName(to)
			s.flight.Record(key, "breaker_"+BreakerStateName(to), 0, detail)
			s.logger.LogAttrs(context.Background(), slog.LevelWarn, "breaker transition",
				slog.String("shard", key), slog.String("transition", detail))
		})
		s.breakers[key] = b
		s.reg.GaugeFunc("caped_breaker_state",
			"Per-shard circuit breaker state (0 closed, 1 half-open, 2 open).",
			metrics.Labels{"shard": key}, b.StateVal)
		// The shard's always-on perf counters join /metrics the first
		// time the shard serves a job.
		telemetry.RegisterPMU(s.reg, metrics.Labels{"shard": key}, s.pool.PMU(cfg))
	}
	return b
}

// FaultCounts snapshots the injected-fault counters per class (all
// zero when injection is off); the chaos benchmark reads it.
func (s *Server) FaultCounts() [fault.NumClasses]uint64 {
	return s.injector.Counts()
}

// RetryCount returns the number of retried attempts so far.
func (s *Server) RetryCount() uint64 { return s.retries.Value() }

// attempt runs one execution attempt of j, returning the machine for
// post-reply pooling on success; on failure the machine is returned to
// the pool immediately.
func (s *Server) attempt(j *job) (*core.Machine, jobDone) {
	var d jobDone
	// Every machine of the shard derives its fault stream from the
	// server's parent injector (nil = injection off).
	j.spec.Config.FaultInjector = s.injector
	m, err := s.pool.Get(j.ctx, j.spec.Config)
	if err != nil {
		d.err = fmt.Errorf("server: acquiring machine: %w", err)
		return nil, d
	}
	d.resp, d.err = Exec(j.ctx, m, j.spec)
	if d.err != nil {
		s.putMachine(j.spec.Config, m)
		return nil, d
	}
	return m, d
}

// putMachine resets m and returns it to the pool, observing the reset
// on caped_pool_reset_seconds.
func (s *Server) putMachine(cfg core.Config, m *core.Machine) {
	t0 := time.Now()
	s.pool.Put(cfg, m)
	s.resetH.Observe(time.Since(t0).Seconds())
}

// runJob executes one queued job with the resilience loop: breaker
// check, then up to 1+Retries attempts with backoff for transient
// injected faults.
func (s *Server) runJob(j *job) {
	queueNS := time.Since(j.enqueued).Nanoseconds()
	s.queueH.Observe(float64(queueNS) / 1e9)
	s.flight.Record(j.shard, "queue_exit", j.id, fmt.Sprintf("waited %.3fms", float64(queueNS)/1e6))

	brk := s.breaker(j.spec.Config)
	retries := s.opts.Retries
	if retries < 0 {
		retries = 0
	}
	var d jobDone
	var m *core.Machine
	switch {
	case j.ctx.Err() != nil:
		// The submitter is gone; skip the run entirely.
		d.err = j.ctx.Err()
	case !brk.Allow():
		d.err = ErrBreakerOpen
		s.flight.Record(j.shard, "breaker_rejected", j.id, "")
	default:
		for attempt := 0; ; attempt++ {
			m, d = s.attempt(j)
			if d.err == nil {
				brk.OnResult(true)
				break
			}
			if cls, ok := fault.ClassOf(d.err); ok {
				s.flight.Record(j.shard, "fault_injected", j.id,
					fmt.Sprintf("attempt %d: %s", attempt, cls))
			}
			if attempt >= retries || !fault.IsTransient(d.err) || j.ctx.Err() != nil {
				brk.OnResult(false)
				break
			}
			s.retries.Inc()
			s.flight.Record(j.shard, "job_retry", j.id,
				fmt.Sprintf("attempt %d failed: %v", attempt, d.err))
			if !sleepCtx(j.ctx, backoffDelay(s.opts, attempt)) {
				d.err = j.ctx.Err()
				brk.OnResult(false)
				break
			}
		}
	}
	totalNS := time.Since(j.enqueued).Nanoseconds()
	var runNS int64
	if d.resp != nil {
		d.resp.JobID = j.id
		d.resp.QueueNS = queueNS
		d.resp.TotalNS = totalNS
		runNS = d.resp.RunNS
		s.runH.Observe(float64(d.resp.RunNS) / 1e9)
		if d.resp.TraceJSON != nil {
			s.traces.put(j.id, d.resp.TraceJSON)
		}
		for _, e := range d.resp.Profile {
			s.reg.Counter("caped_cycles_total",
				"Simulated cycles attributed by pipeline stage and instruction class (traced jobs).",
				metrics.Labels{"stage": e.Stage, "class": e.Class}).Add(uint64(e.Cycles))
		}
		if q := d.resp.Query; q != nil {
			kind := metrics.Labels{"kind": string(q.Kind)}
			s.reg.Counter("caped_query_lookups_total",
				"Associative point probes served by query jobs, by kind.", kind).
				Add(q.Stats.Lookups)
			s.reg.Counter("caped_query_rows_scanned_total",
				"Resident rows examined by query-job searches, by kind.", kind).
				Add(q.Stats.RowsScanned)
		}
	}
	s.totalH.Observe(float64(totalNS) / 1e9)
	s.reg.Counter("caped_jobs_completed_total", "Jobs completed by status and config.",
		metrics.Labels{"status": statusOf(d.err), "config": j.spec.Config.Name}).Inc()
	s.inflight.Dec()
	s.recordSLO(j.kind, j.enqueued, d.err)
	s.flight.Record(j.shard, "job_done", j.id, statusOf(d.err))
	s.logJob(j.id, j.name, j.kind, j.shard, j.spec.Config.Name, j.spec.BackendName,
		statusOf(d.err), j.enqueued, runNS, d.err)
	j.done <- d
	// The machine is reset and returned only after the reply is
	// delivered: the reset clears whatever the job wrote, which for a
	// workload job is tens of megabytes, and the submitter should not
	// wait on the cleanup of a machine it no longer uses.
	if m != nil {
		s.putMachine(j.spec.Config, m)
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}
