// Command capesim runs a CAPE assembly program on the full-system
// simulator and reports timing, energy and microarchitectural
// statistics. It executes on the same compiled-job path as the caped
// service (queue-free), so its latency fields line up with caped's
// JSON responses.
//
// Usage:
//
//	capesim [flags] program.s
//	capesim [flags] -workload name
//	capesim [flags] -query request.json
//
//	-config CAPE32k|CAPE131k   machine configuration (default CAPE32k)
//	-chains N                  override the chain count
//	-backend fast|bitlevel     functional CSB model (default fast)
//	-workload name             run a built-in kernel instead of a file
//	-query FILE|JSON           run a declarative query job (kv.get,
//	                           kv.select, kv.range, rel.select, rel.join,
//	                           near.best, near.within); the argument is a
//	                           JSON query request, inline or a file path
//	-x N=V                     preset scalar register xN to V (repeatable)
//	-timeout D                 wall-time limit for the run (default 60s)
//	-max-insts N               instruction budget (default 2e9)
//	-dump addr,words           print a memory range after the run
//	-disasm                    print the assembled program and exit
//	-ucode-cache N             microcode templates cached (0 = default 1024,
//	                           negative = lower every instruction directly)
//	-counters                  print the machine's hardware-style perf
//	                           counters (PMU) after the run
//	-faults SPEC               deterministic fault injection, e.g.
//	                           seed=1,hbm-late=0.1 (queue-free path: faults
//	                           surface as typed errors, not retries)
//	-trace FILE                profile the run; write a Chrome trace_event
//	                           timeline (chrome://tracing, Perfetto) to FILE
//	-trace-sample N            record every Nth timeline event (0 = all)
//	-debug-addr ADDR           serve net/http/pprof while the run executes
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cape"
	"cape/internal/core"
	"cape/internal/fault"
	"cape/internal/query"
	"cape/internal/server"
)

type regFlags map[string]int64

func (r regFlags) String() string { return fmt.Sprint(map[string]int64(r)) }

func (r regFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want xN=value, got %q", s)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(name, "x"))
	if err != nil || n < 0 || n > 31 {
		return fmt.Errorf("bad register %q", name)
	}
	v, err := strconv.ParseInt(val, 0, 64)
	if err != nil {
		return fmt.Errorf("bad value %q", val)
	}
	r[fmt.Sprintf("x%d", n)] = v
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "capesim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		configName  = flag.String("config", "CAPE32k", "machine configuration (CAPE32k or CAPE131k)")
		chains      = flag.Int("chains", 0, "override the CSB chain count")
		backend     = flag.String("backend", "fast", "functional CSB model: fast or bitlevel")
		workload    = flag.String("workload", "", "run a built-in kernel instead of a program file")
		queryArg    = flag.String("query", "", "run a declarative query job: inline JSON or a request-file path")
		timeout     = flag.Duration("timeout", 0, "wall-time limit for the run (0 = 60s)")
		maxInsts    = flag.Int64("max-insts", 0, "instruction budget (0 = 2e9)")
		dump        = flag.String("dump", "", "memory range to print after the run: addr,words")
		disasm      = flag.Bool("disasm", false, "print the assembled program and exit")
		ucodeCache  = flag.Int("ucode-cache", 0, "microcode templates cached (0 = default, negative = off)")
		counters    = flag.Bool("counters", false, "print the machine's perf counters (PMU) after the run")
		faults      = flag.String("faults", "", "fault-injection spec, e.g. seed=1,hbm-late=0.1 (empty = off; queue-free, so faults surface as errors, not retries)")
		traceFile   = flag.String("trace", "", "profile the run and write a Chrome trace_event timeline to this file")
		traceSample = flag.Int("trace-sample", 0, "record every Nth timeline event (0 = all)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address during the run (empty = off)")
		regs        = regFlags{}
	)
	flag.Var(regs, "x", "preset scalar register, e.g. -x x10=4096 (repeatable)")
	flag.Parse()

	req := server.Request{
		Workload:  *workload,
		Config:    *configName,
		Chains:    *chains,
		Backend:   *backend,
		MaxInsts:  *maxInsts,
		Registers: regs,
	}
	if *timeout > 0 {
		req.TimeoutMS = timeout.Milliseconds()
	}
	if *traceFile != "" {
		req.Trace = true
		req.TraceSample = *traceSample
	}
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "capesim: debug listener:", err)
			}
		}()
	}
	switch {
	case *queryArg != "" && *workload == "" && flag.NArg() == 0:
		q, err := parseQueryArg(*queryArg)
		if err != nil {
			return err
		}
		req.Query = q
	case *queryArg == "" && *workload == "" && flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		req.Source, req.Name = string(src), flag.Arg(0)
	case *queryArg == "" && *workload != "" && flag.NArg() == 0:
	default:
		return fmt.Errorf("usage: capesim [flags] program.s | capesim [flags] -workload name | capesim [flags] -query request.json (known workloads: %s)",
			strings.Join(server.WorkloadNames(), " "))
	}
	if *dump != "" {
		addrStr, wordsStr, ok := strings.Cut(*dump, ",")
		if !ok {
			return fmt.Errorf("-dump wants addr,words")
		}
		addr, err1 := strconv.ParseUint(addrStr, 0, 64)
		words, err2 := strconv.Atoi(wordsStr)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad -dump %q", *dump)
		}
		req.Dump = &server.DumpSpec{Addr: addr, Words: words}
	}

	faultCfg, err := fault.ParseSpec(*faults)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	opts := server.Options{
		UcodeCacheSize: *ucodeCache,
		Faults:         faultCfg,
	}
	if req.Source != "" {
		// Unlike caped (whose clients must never read the server's
		// filesystem), the CLI assembles a local file the user named, so
		// .include resolves relative to that file's directory.
		dir := filepath.Dir(flag.Arg(0))
		opts.Asm.Include = func(path string) ([]byte, error) {
			return os.ReadFile(filepath.Join(dir, path))
		}
	}
	spec, err := server.Compile(req, opts)
	if err != nil {
		return err
	}
	if *disasm {
		if spec.Prog == nil {
			return fmt.Errorf("-disasm needs a program file")
		}
		fmt.Print(cape.Disassemble(spec.Prog))
		return nil
	}

	m := core.New(spec.Config)
	resp, err := server.Exec(context.Background(), m, spec)
	if err != nil {
		return err
	}
	res := resp.Result

	if resp.Query != nil {
		printQuery(resp, *traceFile)
		if *counters {
			fmt.Printf("\n%s", m.PMU().Snapshot().Table())
		}
		return nil
	}

	fmt.Printf("program         %s\n", resp.Program)
	fmt.Printf("config          %s (%d chains, MAXVL=%d, backend=%s)\n",
		resp.Config, resp.Chains, m.MaxVL(), resp.Backend)
	fmt.Printf("cycles          %d (%.3f µs at 2.7 GHz)\n", res.CP.Cycles, float64(res.TimePS)/1e6)
	fmt.Printf("scalar insts    %d\n", res.CP.ScalarInsts)
	fmt.Printf("vector insts    %d (%d ALU/red, %d memory)\n",
		res.CP.VectorInsts, res.VectorALUInsts, res.VectorMemInsts)
	fmt.Printf("vector lane ops %d\n", res.LaneOps)
	fmt.Printf("vector mem      %d bytes\n", res.MemBytes)
	fmt.Printf("branches        %d (%d mispredicted)\n", res.CP.Branches, res.CP.Mispredicts)
	fmt.Printf("CSB energy      %.2f nJ\n", res.EnergyPJ/1000)
	if resp.CheckOK != nil {
		if *resp.CheckOK {
			fmt.Printf("check           ok\n")
		} else {
			fmt.Printf("check           FAILED: %s\n", resp.CheckError)
		}
	}
	// Host-side latency, field-for-field with caped's JSON (queue-free
	// here, so queue_ns is always 0).
	fmt.Printf("queue_ns        0\n")
	fmt.Printf("run_ns          %d\n", resp.RunNS)
	fmt.Printf("total_ns        %d\n", resp.TotalNS)

	if resp.ProfileTable != "" {
		fmt.Printf("\n%s", resp.ProfileTable)
	}
	if *counters {
		fmt.Printf("\n%s", m.PMU().Snapshot().Table())
	}
	if *traceFile != "" && len(resp.TraceJSON) > 0 {
		if err := os.WriteFile(*traceFile, resp.TraceJSON, 0o644); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("\ntrace           %s (%d bytes; load in chrome://tracing or ui.perfetto.dev)\n",
			*traceFile, len(resp.TraceJSON))
	}

	if req.Dump != nil {
		for i, w := range resp.Memory {
			if i%8 == 0 {
				fmt.Printf("\n%08x:", req.Dump.Addr+uint64(4*i))
			}
			fmt.Printf(" %08x", w)
		}
		fmt.Println()
	}
	return nil
}

// parseQueryArg accepts inline JSON (leading '{') or a file path.
func parseQueryArg(arg string) (*query.Request, error) {
	data := []byte(arg)
	if !strings.HasPrefix(strings.TrimSpace(arg), "{") {
		b, err := os.ReadFile(arg)
		if err != nil {
			return nil, fmt.Errorf("-query: %w", err)
		}
		data = b
	}
	var q query.Request
	if err := json.Unmarshal(data, &q); err != nil {
		return nil, fmt.Errorf("-query: %w", err)
	}
	return &q, nil
}

func printQuery(resp *server.Response, traceFile string) {
	q := resp.Query
	fmt.Printf("query           %s\n", resp.Program)
	fmt.Printf("config          %s (%d chains, backend=%s)\n", resp.Config, resp.Chains, resp.Backend)
	fmt.Printf("rows resident   %d\n", q.Rows)
	fmt.Printf("lookups         %d\n", q.Stats.Lookups)
	fmt.Printf("rows scanned    %d\n", q.Stats.RowsScanned)
	fmt.Printf("searches        %d (%d CSB cycles; %d reduce cycles)\n",
		q.Stats.Searches, q.Stats.SearchCycles, q.Stats.ReduceCycles)
	fmt.Printf("sim_seconds     %.9f\n", resp.SimSeconds)
	fmt.Printf("run_ns          %d\n", resp.RunNS)
	for _, h := range q.Hits {
		if h.Found {
			fmt.Printf("hit             row %d val %#x\n", h.Index, h.Val)
		} else {
			fmt.Printf("miss\n")
		}
	}
	if len(q.Indices) > 0 {
		fmt.Printf("selected rows   %v\n", q.Indices)
	}
	for _, m := range q.Matches {
		fmt.Printf("match           row %d key %#x val %#x dist %d\n", m.Index, m.Key, m.Val, m.Distance)
	}
	for _, p := range q.Pairs {
		fmt.Printf("join pair       probe %d -> build row %d\n", p.Probe, p.Build)
	}
	if resp.ProfileTable != "" {
		fmt.Printf("\n%s", resp.ProfileTable)
	}
	if traceFile != "" && len(resp.TraceJSON) > 0 {
		if err := os.WriteFile(traceFile, resp.TraceJSON, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "capesim: write trace:", err)
			return
		}
		fmt.Printf("\ntrace           %s (%d bytes)\n", traceFile, len(resp.TraceJSON))
	}
}
