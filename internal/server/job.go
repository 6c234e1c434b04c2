package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"cape/internal/core"
	"cape/internal/fault"
	"cape/internal/isa"
	"cape/internal/obs"
	"cape/internal/query"
	"cape/internal/timing"
	"cape/internal/workloads"
)

// Request describes one job as submitted by a client: either raw
// assembly source or the name of a built-in workload kernel, plus the
// machine selection and per-job limits.
type Request struct {
	// Source is RISC-V(-subset) assembly text. Mutually exclusive with
	// Workload.
	Source string `json:"source,omitempty"`
	// Name labels a Source program in results (default "job").
	Name string `json:"name,omitempty"`
	// Workload names a built-in kernel (see /v1/workloads); the server
	// writes its input set, runs it, and validates the outputs.
	Workload string `json:"workload,omitempty"`
	// Query is a declarative content-addressable query job (KV lookups,
	// relational select/join, nearest-match search) executed by the
	// internal/query engine on the selected backend. Mutually exclusive
	// with Source and Workload.
	Query *query.Request `json:"query,omitempty"`

	// Config selects CAPE32k (default) or CAPE131k.
	Config string `json:"config,omitempty"`
	// Chains overrides the configuration's chain count.
	Chains int `json:"chains,omitempty"`
	// Backend selects "fast" (default) or "bitlevel".
	Backend string `json:"backend,omitempty"`

	// Registers presets scalar registers before the run, e.g.
	// {"x10": 4096} (Source jobs only).
	Registers map[string]int64 `json:"registers,omitempty"`
	// TimeoutMS bounds host wall time for the run (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxInsts bounds executed instructions (0 = server default).
	MaxInsts int64 `json:"max_insts,omitempty"`
	// Dump selects a RAM range to return after the run.
	Dump *DumpSpec `json:"dump,omitempty"`

	// Trace profiles the run: the response carries the cycle-attribution
	// profile and a Chrome trace_event timeline (see Response.Profile /
	// Response.TraceJSON). The HTTP handler stores the timeline under
	// /v1/jobs/{id}/trace instead of inlining it unless ?trace=1 is set.
	Trace bool `json:"trace,omitempty"`
	// TraceSample records every Nth instruction-level timeline event
	// (0 = server default; the profile is always exact).
	TraceSample int `json:"trace_sample,omitempty"`
}

// DumpSpec selects a word range of main memory.
type DumpSpec struct {
	Addr  uint64 `json:"addr"`
	Words int    `json:"words"`
}

// maxDumpWords bounds a response's memory payload (4 MB).
const maxDumpWords = 1 << 20

// ErrProgramFault marks a job killed by its own program's behavior at
// run time — wild addresses, malformed vector state — as distinct from
// a service failure. It is a client error: HTTP maps it to 422, and it
// does not burn availability budget. Exec attaches it both on typed
// core faults and in the panic backstop.
var ErrProgramFault = errors.New("program fault")

// Response carries a completed job's results: the full simulator
// Result plus the host-side latency breakdown.
type Response struct {
	JobID   uint64 `json:"job_id"`
	Program string `json:"program"`
	Config  string `json:"config"`
	Chains  int    `json:"chains"`
	Backend string `json:"backend"`

	// Result is the simulator's own accounting (cycles, energy,
	// roofline inputs); SimSeconds is its wall time on the modeled
	// hardware.
	Result     core.Result `json:"result"`
	SimSeconds float64     `json:"sim_seconds"`

	// Query carries a query job's typed result (hits, indices, matches,
	// pairs) and its engine work statistics.
	Query *query.Result `json:"query,omitempty"`

	// CheckOK/CheckError report output validation for workload jobs.
	CheckOK    *bool  `json:"check_ok,omitempty"`
	CheckError string `json:"check_error,omitempty"`

	// Memory is the requested dump range.
	Memory []uint32 `json:"memory,omitempty"`

	// Profile/Occupancy are the cycle-attribution and unit-occupancy
	// tables of a traced run; ProfileTable is the human rendering.
	// TraceJSON is the Chrome trace_event timeline.
	Profile      []obs.Entry     `json:"profile,omitempty"`
	Occupancy    []obs.Entry     `json:"occupancy,omitempty"`
	ProfileTable string          `json:"profile_table,omitempty"`
	TraceJSON    json.RawMessage `json:"trace,omitempty"`

	// Host-side latency breakdown: time spent queued before a worker
	// picked the job up, time executing on the simulator, and their
	// sum. A queue-free path (capesim) reports QueueNS = 0.
	QueueNS int64 `json:"queue_ns"`
	RunNS   int64 `json:"run_ns"`
	TotalNS int64 `json:"total_ns"`

	// Worker names the cluster worker that executed the job when it was
	// routed through a coordinator ("local" for coordinator-side
	// fallback execution); standalone servers leave it empty. The field
	// is informational: the payload is bit-identical wherever the job
	// ran.
	Worker string `json:"worker,omitempty"`
}

// Spec is a compiled, validated job ready to execute on a machine of
// Spec.Config.
type Spec struct {
	Config      core.Config
	BackendName string
	// Prog is the assembled program (Source jobs); Workload is set
	// instead for named-kernel jobs, which build their program against
	// the machine at run time; Query is set for declarative query jobs,
	// which the query engine executes directly on the pooled machine's
	// backend.
	Prog      *isa.Program
	Workload  *workloads.Workload
	Query     *query.Request
	Registers map[int]int64
	MaxInsts  int64
	Timeout   time.Duration
	Dump      *DumpSpec
	// Trace/TraceSample live on the Spec, NOT in Spec.Config: pooled
	// machines are sharded by ShardKey(Config), and a per-request trace
	// flag inside the Config would needlessly fragment the pool. Exec
	// installs a recorder on the pooled machine for the one run instead.
	Trace       bool
	TraceSample int
}

// parseXReg accepts "x10", "X10" or "10".
func parseXReg(s string) (int, error) {
	t := strings.TrimPrefix(strings.TrimPrefix(s, "x"), "X")
	n, err := strconv.Atoi(t)
	if err != nil || n < 0 || n >= isa.NumXRegs {
		return 0, fmt.Errorf("server: bad register name %q", s)
	}
	return n, nil
}

// resolveConfig validates the machine-selection fields of req (config,
// chains, backend) against the server options and returns the
// core.Config a job of this request executes on, plus the backend
// name. It is the pre-compilation half of Compile, shared with the
// cluster coordinator's RoutingKey — routing must agree exactly with
// what the executing worker builds, or a job would land on a worker
// whose pool shard differs from the one the hash ring picked.
func resolveConfig(req Request, opts Options) (core.Config, string, error) {
	var cfg core.Config
	switch req.Config {
	case "", "CAPE32k":
		cfg = core.CAPE32k()
	case "CAPE131k":
		cfg = core.CAPE131k()
	default:
		return cfg, "", fmt.Errorf("server: unknown config %q (want CAPE32k or CAPE131k)", req.Config)
	}
	if req.Chains != 0 {
		if req.Chains < 0 {
			return cfg, "", fmt.Errorf("server: bad chain count %d", req.Chains)
		}
		cfg.Chains = req.Chains
	}
	var backend string
	switch req.Backend {
	case "", "fast":
		cfg.Backend = core.BackendFast
		backend = "fast"
	case "bitlevel":
		cfg.Backend = core.BackendBitLevel
		backend = "bitlevel"
	default:
		return cfg, "", fmt.Errorf("server: unknown backend %q (want fast or bitlevel)", req.Backend)
	}
	cfg.RAMBytes = opts.RAMBytes
	cfg.UcodeCacheSize = opts.UcodeCacheSize
	cfg.Faults = opts.Faults
	// Workload jobs bump RAM to the standard input-set layout; mirror
	// that here so RoutingKey matches the executed ShardKey.
	if req.Workload != "" && cfg.RAMBytes < workloads.RAMBytes {
		cfg.RAMBytes = workloads.RAMBytes
	}
	return cfg, backend, nil
}

// RoutingKey returns the pool-shard key jobs of this request execute
// on — the value a cluster coordinator consistent-hashes to pick a
// worker. It performs only machine-selection validation, not
// compilation: a malformed program routes like a well-formed one and
// is rejected by the worker that would have executed it.
func RoutingKey(req Request, opts Options) (string, error) {
	cfg, _, err := resolveConfig(req, opts.withDefaults())
	if err != nil {
		return "", err
	}
	return ShardKey(cfg), nil
}

// Compile resolves a Request against the given options (zero value =
// defaults) into an executable Spec. It performs all validation that
// does not need a machine: config and backend selection, assembly, and
// workload lookup.
func Compile(req Request, opts Options) (*Spec, error) {
	opts = opts.withDefaults()
	spec := &Spec{
		MaxInsts: opts.DefaultMaxInsts,
		Timeout:  opts.DefaultTimeout,
		Dump:     req.Dump,
	}
	if req.MaxInsts > 0 {
		spec.MaxInsts = req.MaxInsts
	}
	if req.TimeoutMS > 0 {
		spec.Timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if opts.MaxTimeout > 0 && spec.Timeout > opts.MaxTimeout {
		spec.Timeout = opts.MaxTimeout
	}

	var err error
	spec.Config, spec.BackendName, err = resolveConfig(req, opts)
	if err != nil {
		return nil, err
	}
	spec.Trace = req.Trace || opts.TraceAll
	spec.TraceSample = req.TraceSample
	if spec.TraceSample <= 0 {
		spec.TraceSample = opts.TraceSample
	}

	kinds := 0
	for _, set := range []bool{req.Source != "", req.Workload != "", req.Query != nil} {
		if set {
			kinds++
		}
	}
	if kinds > 1 {
		return nil, fmt.Errorf("server: source, workload and query are mutually exclusive")
	}
	switch {
	case req.Query != nil:
		if err := req.Query.Validate(); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		if maxVL := spec.Config.Chains * 32; len(req.Query.Keys) > maxVL {
			return nil, fmt.Errorf("server: query loads %d rows, %s holds %d",
				len(req.Query.Keys), spec.Config.Name, maxVL)
		}
		spec.Query = req.Query
	case req.Source != "":
		name := req.Name
		if name == "" {
			name = "job"
		}
		// Source compiles through the shared program cache (nil = direct):
		// repeat submissions of one program skip the whole pipeline, and
		// repeat submissions of one *malformed* program are rejected from
		// the cached DiagnosticList. The error chain keeps the typed
		// asm.DiagnosticList so the HTTP edge can serialize structured
		// 422 diagnostics.
		prog, err := opts.AsmCache.Assemble(name, req.Source, opts.Asm)
		if err != nil {
			return nil, fmt.Errorf("server: assemble: %w", err)
		}
		if err := core.Validate(prog); err != nil {
			return nil, err
		}
		spec.Prog = prog
	case req.Workload != "":
		w, ok := workloads.ByName(req.Workload)
		if !ok {
			return nil, fmt.Errorf("server: unknown workload %q", req.Workload)
		}
		// Workload input sets assume the standard layout; resolveConfig
		// already sized the machines for it regardless of the pool's RAM
		// option.
		spec.Workload = &w
	default:
		return nil, fmt.Errorf("server: request needs source, workload or query")
	}

	if len(req.Registers) > 0 {
		if spec.Prog == nil {
			return nil, fmt.Errorf("server: registers are only valid for source jobs")
		}
		spec.Registers = make(map[int]int64, len(req.Registers))
		for name, v := range req.Registers {
			r, err := parseXReg(name)
			if err != nil {
				return nil, err
			}
			spec.Registers[r] = v
		}
	}
	if d := spec.Dump; d != nil {
		if d.Words < 0 || d.Words > maxDumpWords {
			return nil, fmt.Errorf("server: dump of %d words out of range (max %d)", d.Words, maxDumpWords)
		}
		// Compare without summing: Addr+bytes can wrap around 2^64.
		n, size := uint64(4*d.Words), uint64(spec.Config.RAMBytes)
		if n > size || d.Addr > size-n {
			return nil, fmt.Errorf("server: dump range %#x+%d words exceeds RAM", d.Addr, d.Words)
		}
	}
	return spec, nil
}

// Exec runs one compiled job on m, queue-free. It is the shared run
// path of the caped workers and the capesim CLI: it installs the
// instruction budget, presets registers, runs under the spec's
// timeout, validates workload output, and captures the dump range.
// Panics from malformed programs (e.g. out-of-range addresses) are
// converted to typed ErrProgramFault errors as a last-resort backstop,
// so a service worker survives them and the edge reports a client
// error rather than a server failure. The machine
// is left mid-program on error; the pool resets it before reuse.
func Exec(ctx context.Context, m *core.Machine, spec *Spec) (resp *Response, err error) {
	defer func() {
		if p := recover(); p != nil {
			// Injected faults panic out of the CSB/VMU with a typed
			// error; keep the chain intact so the resilience loop can
			// classify it. Anything else is a program fault.
			if e, ok := p.(error); ok && errors.Is(e, fault.ErrInjected) {
				err = fmt.Errorf("server: %w", e)
				return
			}
			err = fmt.Errorf("server: %w: %v", ErrProgramFault, p)
		}
	}()
	m.CP().SetMaxInsts(spec.MaxInsts)
	var rec *obs.Recorder
	if spec.Trace {
		rec = obs.New(spec.TraceSample)
		m.SetRecorder(rec)
		// Detach before the machine returns to the pool — the recorder is
		// this job's, the machine is shared.
		defer m.SetRecorder(nil)
	}
	if spec.Query != nil {
		return execQuery(ctx, m, spec)
	}
	prog := spec.Prog
	if spec.Workload != nil {
		prog, err = spec.Workload.BuildCAPE(m)
		if err != nil {
			return nil, fmt.Errorf("server: build workload %s: %w", spec.Workload.Name, err)
		}
	}
	for r, v := range spec.Registers {
		m.CP().SetX(r, v)
	}
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := m.RunContext(ctx, prog)
	runNS := time.Since(start).Nanoseconds()
	if err != nil {
		return nil, err
	}
	resp = &Response{
		Program:    prog.Name,
		Config:     spec.Config.Name,
		Chains:     spec.Config.Chains,
		Backend:    spec.BackendName,
		Result:     res,
		SimSeconds: res.Seconds(),
		RunNS:      runNS,
		TotalNS:    runNS,
	}
	if spec.Workload != nil {
		ok := true
		if cerr := spec.Workload.Check(m); cerr != nil {
			ok = false
			resp.CheckError = cerr.Error()
		}
		resp.CheckOK = &ok
	}
	if d := spec.Dump; d != nil {
		resp.Memory = m.RAM().ReadWords(d.Addr, d.Words)
	}
	if rec != nil {
		p := rec.Profile()
		resp.Profile = p.AttrEntries()
		resp.Occupancy = p.OccEntries()
		resp.ProfileTable = p.Table()
		resp.TraceJSON = rec.ChromeTrace()
	}
	return resp, nil
}

// execQuery runs a compiled query job on m's backend through the
// content-addressable query engine. The engine drives the backend
// directly (no CP program), so bit-level jobs execute real
// masked-search microcode through the machine's shared template cache
// while fast jobs use the reference associative implementation.
func execQuery(ctx context.Context, m *core.Machine, spec *Spec) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eng, err := query.New(query.Config{
		Backend:  m.Backend(),
		SEW:      spec.Query.SEW,
		Chains:   spec.Config.Chains,
		Cache:    m.UcodeCache(),
		Recorder: m.Recorder(),
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	start := time.Now()
	qres, err := spec.Query.Run(eng)
	runNS := time.Since(start).Nanoseconds()
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	resp := &Response{
		Program: "query:" + string(spec.Query.Kind),
		Config:  spec.Config.Name,
		Chains:  spec.Config.Chains,
		Backend: spec.BackendName,
		Query:   qres,
		// The modeled time is the engine's attributed CSB cycles at the
		// CAPE clock.
		SimSeconds: float64(qres.Stats.Cycles()) / (timing.CAPEFreqGHz * 1e9),
		RunNS:      runNS,
		TotalNS:    runNS,
	}
	if rec := m.Recorder(); rec != nil {
		p := rec.Profile()
		resp.Profile = p.AttrEntries()
		resp.Occupancy = p.OccEntries()
		resp.ProfileTable = p.Table()
		resp.TraceJSON = rec.ChromeTrace()
	}
	return resp, nil
}

// WorkloadNames lists the built-in kernels a Request.Workload can
// name, sorted.
func WorkloadNames() []string {
	var names []string
	for _, w := range append(workloads.Phoenix(), workloads.Micro()...) {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return names
}
