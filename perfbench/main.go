// Command perfbench is the repository's end-to-end benchmark: it
// starts a freshly built caped at its default flags on loopback, drives
// it with a closed loop of clients (one per CPU), verifies every
// answer, and prints the end-to-end metrics of one traffic mix. With
// -trace 1 it also replays the mix's seeded requests in process,
// timing the benchmark's own calls into each layer, and prints the
// per-layer metrics instead.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// NAME is one of bitlevel_exec, tiny_source, query_bitlevel, paper_fast,
// or all. The last line of standard output is a JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"cape/internal/server"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	caped    string
	out      string
	root     string
}

// setupRounds is how many times a run sets caped up; setup_s is the
// median, and the last instance serves the measured phase.
const setupRounds = 5

// clients is the closed loop's client count: one per CPU, so the load
// matches the worker pool caped builds by default.
var clients = runtime.NumCPU()

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "all", "traffic mix to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request stream")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced replay and prints per-layer metrics")
	flag.StringVar(&o.caped, "caped", "", "caped binary built from this checkout")
	flag.StringVar(&o.out, "out", ".bench_build/runs", "directory for caped logs and span files")
	flag.Parse()
	o.trace = traceFlag == 1
	if flag.NArg() != 0 || o.caped == "" || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -caped BIN --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	var defs []workloadDef
	if o.workload == "all" {
		defs = workloadDefs
	} else {
		w, ok := lookupWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		defs = []workloadDef{w}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	o.root = root
	printRecord(o)
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range defs {
		res, err := runWorkload(o, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if len(defs) == 1 {
			total = *res
			break
		}
		line, _ := json.Marshal(res)
		fmt.Printf("%s %s\n", w.name, line)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printRecord prints the run record: what code, where, with which
// settings.
func printRecord(o options) {
	commit := "unknown"
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Only a repository rooted at the checkout names its commit; the
	// checkout may sit inside an unrelated one.
	if b, err := exec.CommandContext(ctx, "git", "-C", o.root, "rev-parse", "--show-toplevel", "HEAD").Output(); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 && f[0] == o.root {
			commit = f[1]
		}
	}
	fmt.Printf("record commit=%s source_sha256=%s seed=%d seconds=%d trace=%v nproc=%d gomaxprocs_generator=%d go=%s clients=%d\n",
		commit, sourceDigest(o.root), o.seed, o.seconds, o.trace, runtime.NumCPU(),
		runtime.GOMAXPROCS(0), runtime.Version(), clients)
}

// sourceDigest hashes the repository's Go sources and module files, so
// a run names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// httpRun is what one measured HTTP run of a workload observed.
type httpRun struct {
	samples  []sample
	warm     []sample // every set-up's warm-up
	wall     time.Duration
	setups   []float64
	cpu      time.Duration
	steal    time.Duration // CPU time the host gave other guests
	hwm      int64
	before   scrape
	after    scrape
	health   health
	gomaxcap int
}

// measure sets caped up `setups` times (keeping the last) and drives
// the stream for o.seconds.
func measure(o options, st *stream, setups int) (*httpRun, error) {
	hr := &httpRun{}
	var p *capedProc
	for i := 0; i < setups; i++ {
		logPath := filepath.Join(o.out, fmt.Sprintf("%s-caped%d.log", st.workload, i))
		var err error
		var warm []sample
		var d time.Duration
		p, warm, d, err = setupCaped(o.caped, logPath, st, clients)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		hr.warm = append(hr.warm, warm...)
		hr.setups = append(hr.setups, d.Seconds())
		if i < setups-1 {
			p.stop()
		}
	}
	defer p.stop()
	var err error
	if hr.before, err = p.scrapeCounters(); err != nil {
		return nil, fmt.Errorf("scrape before: %w", err)
	}
	cpu0, err := procCPU(p.pid())
	if err != nil {
		return nil, err
	}
	// Steal time only annotates the record; a kernel without it in
	// /proc/stat reads as zero.
	steal0, _ := stealTime()
	runtime.GC()
	hr.samples, hr.wall = drive(p.base, st, st.seq, clients, time.Now().Add(time.Duration(o.seconds)*time.Second))
	cpu1, err := procCPU(p.pid())
	if err != nil {
		return nil, err
	}
	steal1, _ := stealTime()
	hr.cpu = cpu1 - cpu0
	hr.steal = steal1 - steal0
	if hr.hwm, err = procHWM(p.pid()); err != nil {
		return nil, err
	}
	if hr.after, err = p.scrapeCounters(); err != nil {
		return nil, fmt.Errorf("scrape after: %w", err)
	}
	if err := p.getJSON("/healthz", &hr.health); err != nil {
		return nil, err
	}
	hr.gomaxcap = int(hr.after.metrics["caped_go_gomaxprocs"])
	if len(hr.samples) == len(st.seq) {
		fmt.Printf("warning: the stream of %d requests ran dry before %ds\n", len(st.seq), o.seconds)
	}
	return hr, nil
}

// checked is the verification of one HTTP run.
type checked struct {
	ok       int
	failed   int
	warmFail int
	resp     []*server.Response // by sample, nil for failures and 422s
	firstErr error
}

// check verifies every warm-up and measured answer against the Go model
// and fresh-machine references, computed here, outside the timed phase.
func check(st *stream, hr *httpRun, clients int) checked {
	used := map[int]bool{}
	for _, s := range hr.warm {
		used[s.item] = true
	}
	for _, s := range hr.samples {
		used[s.item] = true
	}
	refs := computeRefs(st, used, clients)
	var c checked
	c.resp = make([]*server.Response, len(hr.samples))
	note := func(err error) {
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	for _, s := range hr.warm {
		if err := verifySample(st, refs, s); err != nil {
			c.warmFail++
			note(fmt.Errorf("warm-up request %d (%s): %w", s.pos, st.items[s.item].shape, err))
		}
	}
	for i, s := range hr.samples {
		if s.err != nil {
			c.failed++
			note(fmt.Errorf("request %d: %w", s.pos, s.err))
			continue
		}
		resp, err := verify(&st.items[s.item], refs[s.item], s.status, s.body)
		if err != nil {
			c.failed++
			note(fmt.Errorf("request %d (%s): %w", s.pos, st.items[s.item].shape, err))
			continue
		}
		c.ok++
		c.resp[i] = resp
	}
	return c
}

func verifySample(st *stream, refs map[int]refAnswer, s sample) error {
	if s.err != nil {
		return s.err
	}
	_, err := verify(&st.items[s.item], refs[s.item], s.status, s.body)
	return err
}

// computeRefs runs the fresh-machine reference of every used item on
// `workers` goroutines.
func computeRefs(st *stream, used map[int]bool, workers int) map[int]refAnswer {
	idx := make([]int, 0, len(used))
	for i := range used {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]refAnswer, len(idx))
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(idx) {
					return
				}
				out[k] = reference(&st.items[idx[k]])
			}
		}()
	}
	wg.Wait()
	refs := make(map[int]refAnswer, len(idx))
	for k, i := range idx {
		refs[i] = out[k]
	}
	return refs
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runWorkload runs one traffic mix and returns its result line.
func runWorkload(o options, w workloadDef) (*result, error) {
	st, err := generate(w, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s: %d distinct requests, %d in the stream, %d warm-up\n",
		w.name, len(st.items), len(st.seq), len(st.warm))
	setups := setupRounds
	if o.trace {
		// The traced run reports no set-up time.
		setups = 1
	}
	hr, err := measure(o, st, setups)
	if err != nil {
		return nil, err
	}
	c := check(st, hr, clients)
	attempted := len(hr.samples) + len(hr.warm)
	failed := c.failed + c.warmFail
	fmt.Printf("caped gomaxprocs=%d go=%s workers=%d; host steal during the measured phase %.2fs of %.2fs\n",
		hr.gomaxcap, hr.after.status.GoVersion, hr.health.Workers, hr.steal.Seconds(), hr.wall.Seconds()*float64(runtime.NumCPU()))
	fmt.Printf("mix %s\n", shapesSummary(st, len(hr.samples)))
	if c.firstErr != nil {
		fmt.Printf("first failure: %v\n", c.firstErr)
	}
	printCounters(hr)
	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if o.trace {
		if err := traceMetrics(o, w, st, hr, &c, res); err != nil {
			return nil, err
		}
		failed = res.Failed
	} else {
		endToEnd(o, w, hr, &c, res)
	}
	res.Correct = failed == 0
	return res, nil
}

// printCounters prints what caped's own counters say about the measured
// phase, next to what the clients saw.
func printCounters(hr *httpRun) {
	ok200 := 0
	for _, s := range hr.samples {
		if s.err == nil && s.status == 200 {
			ok200++
		}
	}
	byStatus := map[string]float64{}
	for series, v := range hr.after.metrics {
		if !strings.HasPrefix(series, "caped_jobs_completed_total{") {
			continue
		}
		i := strings.Index(series, `status="`)
		if i < 0 {
			continue
		}
		st := series[i+len(`status="`):]
		st = st[:strings.IndexByte(st, '"')]
		byStatus[st] += v - hr.before.metrics[series]
	}
	before, after := hr.before.status.Perf, hr.after.status.Perf
	fmt.Printf("counters: jobs_completed %v (clients saw %d 200s), retries %.0f, asm hits/misses %.0f/%.0f, "+
		"ucode hits/misses %.0f/%.0f, microops %d, csb_runs %d, hbm_bytes %d, vector alu/mem insts %d/%d\n",
		byStatus, ok200, delta(hr.before, hr.after, "caped_retries_total"),
		delta(hr.before, hr.after, "caped_asm_cache_hits_total"), delta(hr.before, hr.after, "caped_asm_cache_misses_total"),
		delta(hr.before, hr.after, "caped_ucode_cache_hits_total"), delta(hr.before, hr.after, "caped_ucode_cache_misses_total"),
		after.MicroopsTotal-before.MicroopsTotal, after.CSBRuns-before.CSBRuns, after.HBMBytes-before.HBMBytes,
		after.VectorALU-before.VectorALU, after.VectorMem-before.VectorMem)
}

// endToEnd fills the end-to-end metrics of a measured run.
func endToEnd(o options, w workloadDef, hr *httpRun, c *checked, res *result) {
	lat := make([]float64, len(hr.samples))
	for i, s := range hr.samples {
		lat[i] = float64(s.lat.Nanoseconds()) / 1e6
	}
	sort.Float64s(lat)
	n := len(lat)
	beyondOf := func(v float64) int {
		k := 0
		for _, x := range lat {
			if x > v {
				k++
			}
		}
		return k
	}
	p99, tail := percentile(lat, 99), percentile(lat, w.tailPct)
	completed := c.ok
	put := func(name, unit string, v float64, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Printf("%-16s %14.6f %-8s %s\n", name, v, unit, note)
	}
	put("jobs_per_s", "jobs/s", float64(completed)/hr.wall.Seconds(),
		fmt.Sprintf("(%d verified in %.3fs, %d clients, closed loop)", completed, hr.wall.Seconds(), clients))
	put("latency_p50_ms", "ms", percentile(lat, 50), fmt.Sprintf("(n=%d)", n))
	put("latency_tail_ms", "ms", tail, fmt.Sprintf("(p%g, n=%d, %d samples beyond)", w.tailPct, n, beyondOf(tail)))
	fmt.Printf("%-16s %14.6f %-8s (n=%d, %d samples beyond)\n", "p99", p99, "ms", n, beyondOf(p99))
	fmt.Printf("%-16s %14.6f %-8s (%d of %d attempted, warm-up included)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), "fraction", res.Failed, res.Attempted)
	cpuPerJob := 0.0
	if completed > 0 {
		cpuPerJob = float64(hr.cpu.Nanoseconds()) / 1e6 / float64(completed)
	}
	put("cpu_ms_per_job", "ms", cpuPerJob, fmt.Sprintf("(caped user+sys %.2fs)", hr.cpu.Seconds()))
	put("peak_rss_mb", "MiB", float64(hr.hwm)/(1<<20), "(caped VmHWM)")
	put("setup_s", "s", median(hr.setups), fmt.Sprintf("(median of %d: %v)", len(hr.setups), fmtFloats(hr.setups)))
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// traceMetrics runs the traced replay and fills the per-layer metrics.
func traceMetrics(o options, w workloadDef, st *stream, hr *httpRun, c *checked, res *result) error {
	n := w.replay
	if n > len(hr.samples) {
		n = len(hr.samples)
	}
	if n == 0 {
		return errors.New("no completed requests to replay")
	}
	// Passes run off, on, on, off, each from a fresh pool and caches and
	// with freed memory returned first, so neither pass order nor heap
	// reuse biases the tracing cost.
	var passes []replayRun
	var wallOff, wallOn time.Duration
	for _, spansOn := range []bool{false, true, true, false} {
		debug.FreeOSMemory()
		pass := replay(st, n, spansOn)
		if spansOn {
			wallOn += pass.wall
		} else {
			wallOff += pass.wall
		}
		passes = append(passes, pass)
	}
	on := passes[2]

	// The replay must reproduce the HTTP run's answers and modeled
	// counts exactly.
	var mismatch int
	var simHTTP, simReplay [2]float64
	for pos := 0; pos < n; pos++ {
		s := hr.samples[pos]
		a := on.answers[pos]
		err := sameAnswer(&st.items[s.item], s, c.resp[pos], a)
		for _, p := range passes {
			if err == nil {
				err = sameReplay(a, p.answers[pos])
			}
		}
		if err != nil {
			mismatch++
			if mismatch == 1 {
				fmt.Printf("replay mismatch at request %d (%s): %v\n", pos, st.items[s.item].shape, err)
			}
		}
		if r := c.resp[pos]; r != nil {
			simHTTP[0] += simCycles(r)
			simHTTP[1] += r.Result.EnergyPJ
		}
		if a.resp != nil {
			simReplay[0] += simCycles(a.resp)
			simReplay[1] += a.resp.Result.EnergyPJ
		}
	}
	if simHTTP != simReplay {
		mismatch++
		fmt.Printf("replay sim totals %v differ from the HTTP run's %v\n", simReplay, simHTTP)
	}
	res.Failed += mismatch
	res.Attempted += n

	lt := selfTimes(on.tr.spans)
	var table strings.Builder
	fmt.Fprintf(&table, "self time of %d replayed %s requests (seed %d); two passes each with spans on: %.3fs, off: %.3fs\n",
		n, w.name, o.seed, wallOn.Seconds(), wallOff.Seconds())
	selfTable(&table, lt, n)
	fmt.Print(table.String())
	spanPath := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.spans.csv", w.name, o.seed))
	if err := writeSpans(spanPath, on.tr.spans, table.String()); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(on.tr.spans), spanPath)

	perReq := func(ids ...int) float64 {
		var ns int64
		for _, id := range ids {
			ns += lt[id].selfNS
		}
		return float64(ns) / float64(n)
	}
	var bytesIn, bytesOut, cpInsts, aluInsts, memBytes, searches, rows, rejected float64
	for pos := 0; pos < n; pos++ {
		bytesIn += float64(len(st.items[st.seq[pos]].body))
		a := on.answers[pos]
		bytesOut += float64(a.out)
		if a.diags != nil {
			rejected++
		}
		if r := a.resp; r != nil {
			cpInsts += float64(r.Result.CP.ScalarInsts + r.Result.CP.VectorInsts)
			aluInsts += float64(r.Result.VectorALUInsts)
			memBytes += float64(r.Result.MemBytes)
			if r.Query != nil {
				searches += float64(r.Query.Stats.Searches)
				rows += float64(r.Query.Stats.RowsScanned)
			}
		}
	}
	var overhead, queue []float64
	for i, s := range hr.samples {
		if r := c.resp[i]; r != nil {
			overhead = append(overhead, float64(s.lat.Nanoseconds()-r.TotalNS)/1e6)
			queue = append(queue, float64(r.QueueNS)/1e6)
		}
	}
	sort.Float64s(overhead)
	sort.Float64s(queue)
	ratio := func(hits, misses string) float64 {
		h, m := delta(hr.before, hr.after, hits), delta(hr.before, hr.after, misses)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	machines := 0
	for _, s := range hr.health.Pool {
		machines += s.Created
	}
	microops := 0.0
	if c.ok > 0 {
		microops = float64(hr.after.status.Perf.MicroopsTotal-hr.before.status.Perf.MicroopsTotal) / float64(c.ok)
	}
	total := lt[spanRequest].totalNS
	unattributed := 0.0
	if total > 0 {
		unattributed = float64(lt[spanRequest].selfNS) / float64(total)
	}
	put := func(name, unit string, v float64) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Printf("%-24s %16.6f %s\n", name, v, unit)
	}
	fmt.Printf("queue and edge overhead from %d HTTP responses; replay of the first %d requests\n", len(queue), n)
	put("edge.overhead_ms", "ms", percentile(overhead, 50))
	put("edge.decode_us", "us", perReq(spanDecode)/1e3)
	put("edge.encode_us", "us", perReq(spanEncode)/1e3)
	put("edge.bytes_in", "bytes", bytesIn/float64(n))
	put("edge.bytes_out", "bytes", bytesOut/float64(n))
	put("queue.wait_ms_p50", "ms", percentile(queue, 50))
	put("queue.wait_ms_p99", "ms", percentile(queue, 99))
	put("asm.compile_us", "us", perReq(spanCompile)/1e3)
	put("asm.hit_ratio", "fraction", ratio("caped_asm_cache_hits_total", "caped_asm_cache_misses_total"))
	put("asm.rejected", "count", rejected)
	put("pool.get_us", "us", perReq(spanPoolGet)/1e3)
	put("pool.reset_ms", "ms", perReq(spanPoolPut)/1e6)
	put("pool.machines_created", "count", float64(machines))
	put("workloads.build_ms", "ms", perReq(spanBuild)/1e6)
	put("workloads.check_ms", "ms", perReq(spanCheck)/1e6)
	put("cp.self_ms", "ms", perReq(spanCPRun)/1e6)
	put("cp.insts", "count", cpInsts)
	put("vec.alu_ms", "ms", perReq(spanVecALU)/1e6)
	put("vec.alu_insts", "count", aluInsts)
	put("vec.mem_ms", "ms", perReq(spanVecMem)/1e6)
	put("vec.mem_bytes", "bytes", memBytes)
	put("ucode.lower_us", "us", perReq(spanUcode)/1e3)
	put("ucode.hit_ratio", "fraction", ratio("caped_ucode_cache_hits_total", "caped_ucode_cache_misses_total"))
	put("csb.exec_ms", "ms", perReq(spanCSB)/1e6)
	put("csb.microops", "count", microops)
	put("query.load_ms", "ms", perReq(spanQueryLoad)/1e6)
	put("query.engine_ms", "ms", perReq(spanQueryNew, spanQueryRun)/1e6)
	put("query.searches", "count", searches)
	put("query.rows_scanned", "count", rows)
	put("sim.cycles", "cycles", simReplay[0])
	put("sim.energy_pj", "pJ", simReplay[1])
	put("trace.unattributed_frac", "fraction", unattributed)
	put("trace.overhead_frac", "fraction", wallOn.Seconds()/wallOff.Seconds()-1)
	return nil
}

// simCycles is a response's modeled cycle count.
func simCycles(r *server.Response) float64 {
	if r.Query != nil {
		return float64(r.Query.Stats.Cycles())
	}
	return float64(r.Result.CP.Cycles)
}
