package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"cape/internal/asm"
	"cape/internal/cache"
	"cape/internal/core"
	"cape/internal/cp"
	"cape/internal/isa"
	"cape/internal/query"
	"cape/internal/server"
	"cape/internal/timing"
	"cape/internal/ucode"
)

// Span names, one per layer boundary the replay times. The replay
// records them from its own calls into each layer's public functions.
const (
	spanRequest = iota
	spanDecode
	spanCompile
	spanPoolGet
	spanBuild
	spanCPRun
	spanVecALU
	spanVecMem
	spanCheck
	spanQueryNew
	spanQueryLoad
	spanQueryRun
	spanUcode
	spanCSB
	spanPoolPut
	spanEncode
	numSpans
)

var spanNames = [numSpans]string{
	"request", "edge.decode", "asm.compile", "pool.get", "workloads.build",
	"cp.run", "vec.alu", "vec.mem", "workloads.check", "query.new",
	"query.load", "query.run", "ucode.lower", "csb.exec", "pool.put", "edge.encode",
}

// span is one timed call: times are nanoseconds since the tracer's
// epoch, parent indexes the tracer's span list (-1 for a request).
type span struct {
	name       uint8
	req        int32
	parent     int32
	start, end int64
}

// tracer keeps spans in memory; when off, begin and end do nothing, so
// the same replay measures the cost of tracing.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32 // stack of open spans
	req   int32
}

func (t *tracer) begin(name uint8) {
	if !t.on {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, start: int64(time.Since(t.epoch))})
	t.open = append(t.open, int32(len(t.spans)-1))
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].end = int64(time.Since(t.epoch))
	t.open = t.open[:n]
}

// vectorSpans is the cp.VectorUnit the replay's control processor
// issues to: it times each instruction the pooled machine executes,
// splitting vector ALU from vector memory issue.
type vectorSpans struct {
	m  *core.Machine
	tr *tracer
}

func (v *vectorSpans) MaxVL() int                    { return v.m.MaxVL() }
func (v *vectorSpans) SetWindow(vstart, vl, sew int) { v.m.SetWindow(vstart, vl, sew) }

func (v *vectorSpans) Issue(inst isa.Inst, x1, x2, now int64) (int64, int64, bool) {
	if inst.Op.Class() == isa.ClassVectorMem {
		v.tr.begin(spanVecMem)
	} else {
		v.tr.begin(spanVecALU)
	}
	done, res, ok := v.m.Issue(inst, x1, x2, now)
	v.tr.end()
	return done, res, ok
}

// backendSpans is the core.Backend the replay's query engine runs on:
// on the bit-level backend it lowers each instruction itself and times
// the lowering and the CSB execution apart.
type backendSpans struct {
	core.Backend
	bb    *core.BitBackend // nil on the fast backend
	cache *ucode.Cache
	sew   int
	tr    *tracer
}

func (b *backendSpans) SetWindow(vstart, vl, sew int) {
	if sew == 0 {
		sew = 32
	}
	b.sew = sew
	b.Backend.SetWindow(vstart, vl, sew)
}

func (b *backendSpans) Exec(inst isa.Inst, x uint64) (int64, bool) {
	if b.bb == nil || inst.Op == isa.OpVMV_XS {
		b.tr.begin(spanCSB)
		r, ok := b.Backend.Exec(inst, x)
		b.tr.end()
		return r, ok
	}
	b.tr.begin(spanUcode)
	seq, err := ucode.Lower(b.cache, inst.Op, int(inst.Vd), int(inst.Vs2), int(inst.Vs1), x, b.sew)
	b.tr.end()
	if err != nil {
		// BitBackend.Exec panics on the same error.
		panic(fmt.Sprintf("replay: lower %v: %v", inst.Op, err))
	}
	b.tr.begin(spanCSB)
	r, ok := b.bb.ExecSeq(inst, seq)
	b.tr.end()
	return r, ok
}

// haltProg runs on a machine's own control processor after the replay's
// processor finished, to read the machine's accumulated accounting
// (energy, lane ops, memory bytes) through the public Run.
var haltProg = &isa.Program{Name: "collect", Insts: []isa.Inst{{Op: isa.OpHALT}}}

// memLatencyCycles mirrors the control processor's scalar miss latency
// that core.New gives a machine's cache hierarchy: HBM latency plus
// one packet transfer, in CP cycles.
func memLatencyCycles(cfg core.Config) int {
	ns := cfg.HBM.LatencyNS + float64(cfg.HBM.PacketBytes)/cfg.HBM.BytesPerNSPerChannel
	return int(ns * 1000 / timing.CAPECyclePS)
}

// replayAnswer is what the replay produced for one request.
type replayAnswer struct {
	resp  *server.Response
	diags asm.DiagnosticList
	err   error
	out   int // encoded response bytes
}

// replayer executes requests in process, one at a time, through the
// layers' public entry points.
type replayer struct {
	opts server.Options
	pool *server.Pool
	tr   *tracer
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{
		opts: server.Options{AsmCache: asm.NewCache(0)},
		pool: server.NewPool(1),
		tr:   tr,
	}
}

// run replays one request body.
func (r *replayer) run(reqID int, body []byte) replayAnswer {
	tr := r.tr
	tr.req = int32(reqID)
	tr.begin(spanRequest)
	defer tr.end()

	// Decode exactly as the HTTP handler does.
	tr.begin(spanDecode)
	var req server.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	tr.end()
	if err != nil {
		return replayAnswer{err: fmt.Errorf("decode: %w", err)}
	}

	tr.begin(spanCompile)
	spec, err := server.Compile(req, r.opts)
	tr.end()
	if err != nil {
		var a replayAnswer
		if !errors.As(err, &a.diags) {
			a.err = err
		}
		a.out = r.encode(errorBody{Error: err.Error(), Status: server.StatusOf(err), Diagnostics: a.diags})
		return a
	}

	tr.begin(spanPoolGet)
	m, err := r.pool.Get(context.Background(), spec.Config)
	tr.end()
	if err != nil {
		return replayAnswer{err: err}
	}
	var resp *server.Response
	if spec.Query != nil {
		resp, err = r.execQuery(m, spec)
	} else {
		resp, err = r.execProgram(m, spec)
	}
	tr.begin(spanPoolPut)
	r.pool.Put(spec.Config, m)
	tr.end()
	if err != nil {
		return replayAnswer{err: err}
	}
	return replayAnswer{resp: resp, out: r.encode(resp)}
}

// encode writes v the way the handler does (indented JSON) and returns
// the byte count.
func (r *replayer) encode(v any) int {
	r.tr.begin(spanEncode)
	defer r.tr.end()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return 0
	}
	return buf.Len()
}

// execProgram runs a source or workload job with its own control
// processor, so CP self time splits from vector issue.
func (r *replayer) execProgram(m *core.Machine, spec *server.Spec) (*server.Response, error) {
	tr := r.tr
	prog := spec.Prog
	if spec.Workload != nil {
		tr.begin(spanBuild)
		p, err := spec.Workload.BuildCAPE(m)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("build workload %s: %w", spec.Workload.Name, err)
		}
		prog = p
	}
	cfg := m.Config()
	proc := cp.New(cfg.CP, &vectorSpans{m: m, tr: tr}, m.RAM(),
		cache.NewHierarchy(memLatencyCycles(cfg), cache.CPL1D, cache.CPL2))
	proc.SetMaxInsts(spec.MaxInsts)
	for reg, v := range spec.Registers {
		proc.SetX(reg, v)
	}
	if err := core.Validate(prog); err != nil {
		return nil, err
	}
	tr.begin(spanCPRun)
	stats, err := proc.Run(prog)
	tr.end()
	if err != nil {
		return nil, err
	}
	acc, err := m.Run(haltProg)
	if err != nil {
		return nil, err
	}
	res := acc
	res.CP = stats
	res.TimePS = int64(float64(stats.Cycles) * timing.CAPECyclePS)
	resp := &server.Response{
		Program:    prog.Name,
		Config:     spec.Config.Name,
		Chains:     spec.Config.Chains,
		Backend:    spec.BackendName,
		Result:     res,
		SimSeconds: res.Seconds(),
	}
	if spec.Workload != nil {
		tr.begin(spanCheck)
		cerr := spec.Workload.Check(m)
		tr.end()
		ok := cerr == nil
		if cerr != nil {
			resp.CheckError = cerr.Error()
		}
		resp.CheckOK = &ok
	}
	if d := spec.Dump; d != nil {
		resp.Memory = m.RAM().ReadWords(d.Addr, d.Words)
	}
	return resp, nil
}

// execQuery runs a query job on the machine's backend through a timing
// wrapper, splitting table load, engine work, lowering and the CSB.
func (r *replayer) execQuery(m *core.Machine, spec *server.Spec) (*server.Response, error) {
	tr := r.tr
	q := spec.Query
	be := &backendSpans{Backend: m.Backend(), cache: m.UcodeCache(), sew: 32, tr: tr}
	be.bb, _ = m.Backend().(*core.BitBackend)

	tr.begin(spanQueryNew)
	err := q.Validate()
	var eng *query.Engine
	if err == nil {
		eng, err = query.New(query.Config{Backend: be, SEW: q.SEW, Chains: spec.Config.Chains})
	}
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin(spanQueryLoad)
	err = eng.Load(q.Keys, q.Vals)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin(spanQueryRun)
	res, err := runQuery(eng, q)
	tr.end()
	if err != nil {
		return nil, err
	}
	return &server.Response{
		Program:    "query:" + string(q.Kind),
		Config:     spec.Config.Name,
		Chains:     spec.Config.Chains,
		Backend:    spec.BackendName,
		Query:      res,
		SimSeconds: float64(res.Stats.Cycles()) / (timing.CAPEFreqGHz * 1e9),
	}, nil
}

// runQuery is query.Request.Run after the table load, for the kinds the
// benchmark sends: the load gets its own span that way.
func runQuery(e *query.Engine, q *query.Request) (*query.Result, error) {
	res := &query.Result{Kind: q.Kind, Rows: e.Len()}
	before := e.Stats()
	switch q.Kind {
	case query.KindKVGet:
		res.Hits = e.GetBatch(q.Probes)
	case query.KindRelSelect:
		lo, hi := q.Arg, uint32(0)
		if q.Pred == query.PredRange {
			lo, hi = q.Lo, q.Hi
		}
		idx, err := e.Select(q.Pred, lo, hi)
		if err != nil {
			return nil, err
		}
		res.Indices = idx
	case query.KindRelJoin:
		p, err := e.Join(q.Probes)
		if err != nil {
			return nil, err
		}
		res.Pairs = p
	case query.KindNearBest:
		for _, p := range q.Probes {
			m, ok := e.Nearest(p)
			if !ok {
				return nil, errors.New("nearest-match on an empty table")
			}
			res.Matches = append(res.Matches, m)
		}
	default:
		return nil, fmt.Errorf("replay does not run query kind %s", q.Kind)
	}
	after := e.Stats()
	res.Stats = query.Stats{
		Lookups:      after.Lookups - before.Lookups,
		RowsScanned:  after.RowsScanned - before.RowsScanned,
		Searches:     after.Searches - before.Searches,
		SearchCycles: after.SearchCycles - before.SearchCycles,
		ReduceCycles: after.ReduceCycles - before.ReduceCycles,
	}
	return res, nil
}

// replayRun is one pass of the traced replay.
type replayRun struct {
	answers []replayAnswer
	wall    time.Duration
	tr      *tracer
}

// replay warms a fresh pool and caches with the stream's warm-up
// requests, then replays the first n requests of the stream.
func replay(st *stream, n int, spansOn bool) replayRun {
	tr := &tracer{on: false, epoch: time.Now()}
	rp := newReplayer(tr)
	for _, idx := range st.warm {
		rp.run(-1, st.items[idx].body)
	}
	if n > len(st.seq) {
		n = len(st.seq)
	}
	tr.on = spansOn
	out := replayRun{answers: make([]replayAnswer, n), tr: tr}
	t0 := time.Now()
	for pos := 0; pos < n; pos++ {
		out.answers[pos] = rp.run(pos, st.items[st.seq[pos]].body)
	}
	out.wall = time.Since(t0)
	return out
}

// layerTime is one span name's totals over a replay.
type layerTime struct {
	count   int
	totalNS int64
	selfNS  int64
}

// selfTimes folds spans into per-name totals: a span's self time is its
// duration minus the time its children cover.
func selfTimes(spans []span) [numSpans]layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out [numSpans]layerTime
	for i, s := range spans {
		d := s.end - s.start
		lt := &out[s.name]
		lt.count++
		lt.totalNS += d
		lt.selfNS += d - child[i]
	}
	return out
}

// writeSpans writes every span as CSV and the self-time table as text.
func writeSpans(path string, spans []span, table string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span,req,parent,name,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.req, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(path+".selftime.txt", []byte(table), 0o644)
}

// selfTable renders the self-time table of one replay.
func selfTable(w io.Writer, lt [numSpans]layerTime, requests int) {
	total := lt[spanRequest].totalNS
	order := make([]int, 0, numSpans)
	for i := range lt {
		if lt[i].count > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return lt[order[a]].selfNS > lt[order[b]].selfNS })
	fmt.Fprintf(w, "%-16s %9s %12s %12s %8s\n", "span", "calls", "self_ms/req", "total_ms/req", "self%")
	for _, i := range order {
		fmt.Fprintf(w, "%-16s %9d %12.4f %12.4f %7.2f%%\n", spanNames[i], lt[i].count,
			float64(lt[i].selfNS)/1e6/float64(requests), float64(lt[i].totalNS)/1e6/float64(requests),
			100*float64(lt[i].selfNS)/float64(total))
	}
}
