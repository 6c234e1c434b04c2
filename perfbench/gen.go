package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"

	"cape/internal/query"
	"cape/internal/server"
	"cape/internal/workloads"
)

// item is one distinct request a workload can send: its encoded body,
// the decoded form the in-process reference and the traced replay use,
// and what a plain Go model says the answer must be.
type item struct {
	body []byte
	req  server.Request
	// malformed items must come back 422 with diagnostics.
	malformed bool
	// memory is the expected dump of a source job, computed in Go from
	// the request's registers.
	memory []uint32
	// query is the expected answer of a query job from a plain scan of
	// the generated table (Stats is left zero; it comes from the
	// fresh-machine reference).
	query *query.Result
	// shape groups items that share a program text and pool shard; the
	// warm-up touches every shape so caches and machines are built
	// before timing.
	shape string
}

// stream is a workload's seeded request stream: distinct items, the
// order the clients send them in, and the warm-up order.
type stream struct {
	workload string
	items    []item
	seq      []int
	warm     []int
}

// workloadDef describes one traffic mix.
type workloadDef struct {
	name string
	// gen builds the stream for a seed; maxJobs bounds its length.
	gen func(r *rand.Rand, maxJobs int) (*stream, error)
	// jobsPerSecond sizes the pre-generated stream: the stream holds
	// this many requests per measured second, several times what the
	// parent commit completes, so the clients never run dry.
	jobsPerSecond int
	// replay is how many requests of the stream the traced replay runs.
	replay int
	// tailPct is the percentile latency_tail_ms reports: the highest
	// that leaves at least ten samples beyond it in a 20-second run.
	tailPct float64
}

var workloadDefs = []workloadDef{
	{
		name:          "bitlevel_exec",
		gen:           genBitlevel,
		jobsPerSecond: 2000,
		replay:        48,
		// ~1000 requests in 20 s, fewer when the host is busy.
		tailPct: 98.5,
	},
	{
		name:          "tiny_source",
		gen:           genTiny,
		jobsPerSecond: 4000,
		replay:        300,
		tailPct:       99,
	},
	{
		name:          "query_bitlevel",
		gen:           genQuery,
		jobsPerSecond: 2000,
		replay:        50,
		tailPct:       99,
	},
	{
		name:          "paper_fast",
		gen:           genPaper,
		jobsPerSecond: 2000,
		replay:        20,
		// ~460 requests in 20 s: p99 would rest on 4 samples.
		tailPct: 97.5,
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// generate builds the named workload's stream for seed, sized for a
// run of the given length.
func generate(w workloadDef, seed int64, seconds int) (*stream, error) {
	r := rand.New(rand.NewSource(seed))
	st, err := w.gen(r, w.jobsPerSecond*seconds)
	if err != nil {
		return nil, err
	}
	st.workload = w.name
	for i := range st.items {
		b, err := json.Marshal(st.items[i].req)
		if err != nil {
			return nil, fmt.Errorf("encode %s item %d: %w", w.name, i, err)
		}
		st.items[i].body = b
	}
	return st, nil
}

// shuffledRounds is a sequence of n item indices made of rounds, each
// a fresh permutation of all items: any prefix of whole rounds holds
// every item equally often, whatever the seed.
func shuffledRounds(r *rand.Rand, n, items int) []int {
	seq := make([]int, 0, n+items)
	for len(seq) < n {
		seq = append(seq, r.Perm(items)...)
	}
	return seq[:n]
}

// warmByShape lists the first item of every shape twice in a row, so
// the two clients run each shape concurrently and both pooled machines
// of its shard get built.
func warmByShape(items []item) []int {
	seen := map[string]bool{}
	var warm []int
	for i, it := range items {
		if !seen[it.shape] {
			seen[it.shape] = true
			warm = append(warm, i, i)
		}
	}
	return warm
}

// sewMask is the value mask of an element width.
func sewMask(sew int) uint32 {
	if sew >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(sew) - 1
}

// sext sign-extends the low sew bits of v, as vmv.x.s does.
func sext(v uint32, sew int) int64 {
	k := 32 - uint(sew)
	return int64(int32(v<<k) >> k)
}

// --- bitlevel_exec -------------------------------------------------------

// Fixed addresses of the bit-level programs' arrays.
const (
	bitX   = 0x100000
	bitOut = 0x300000
)

// memSuffix is the vle/vse width suffix and log2 of the element bytes.
func memSuffix(sew int) (string, int) {
	switch sew {
	case 16:
		return "16", 1
	case 8:
		return "8", 0
	}
	return "32", 2
}

// fillLoop writes x10 elements to X, chunk k holding x12 + k*x14.
func fillLoop(sew int) string {
	s, sh := memSuffix(sew)
	return fmt.Sprintf(`    li      x20, %#x
    mv      x23, x10
    mv      x24, x12
fill:
    beq     x23, x0, filled
    vsetvli x2, x23, e%d
    vmv.v.x v1, x24
    vse%s.v  v1, (x20)
    slli    x8, x2, %d
    add     x20, x20, x8
    add     x24, x24, x14
    sub     x23, x23, x2
    j       fill
filled:
`, bitX, sew, s, sh)
}

// saxpySource is the strip-mined a*X + y kernel: X comes from the fill
// loop, y is the splat x13 + k*x15 of chunk k.
func saxpySource(sew int) string {
	s, sh := memSuffix(sew)
	return fmt.Sprintf(`# saxpy e%d: out = a*X + y over x10 elements
%s    li      x20, %#x
    li      x22, %#x
    mv      x23, x10
    mv      x25, x13
chunk:
    beq     x23, x0, done
    vsetvli x2, x23, e%d
    vle%s.v  v1, (x20)
    vmv.v.x v2, x25
    vmv.v.x v3, x11
    vmul.vv v4, v1, v3
    vadd.vv v4, v4, v2
    vse%s.v  v4, (x22)
    slli    x8, x2, %d
    add     x20, x20, x8
    add     x22, x22, x8
    add     x25, x25, x15
    sub     x23, x23, x2
    j       chunk
done:
    halt
`, sew, fillLoop(sew), bitX, bitOut, sew, s, s, sh)
}

// searchSource is the search-and-reduce kernel: per chunk it stores the
// summed Hamming distance to x11 and the count of ternary matches of
// x13 (value | care<<sew).
func searchSource(sew int) string {
	s, sh := memSuffix(sew)
	return fmt.Sprintf(`# search e%d: per-chunk Hamming sum and match count over x10 elements
%s    li      x20, %#x
    li      x22, %#x
    mv      x23, x10
chunk:
    beq     x23, x0, done
    vsetvli x2, x23, e%d
    vmv.v.x v9, x0
    vle%s.v  v1, (x20)
    vhamm.vx v2, v1, x11
    vredsum.vs v3, v2, v9
    vmv.x.s x6, v3
    vmsearch.vx v4, v1, x13
    vredsum.vs v5, v4, v9
    vmv.x.s x7, v5
    sw      x6, 0(x22)
    sw      x7, 4(x22)
    addi    x22, x22, 8
    slli    x8, x2, %d
    add     x20, x20, x8
    sub     x23, x23, x2
    j       chunk
done:
    halt
`, sew, fillLoop(sew), bitX, bitOut, sew, s, sh)
}

// dumpWords packs a little-endian byte image into words.
func dumpWords(img []byte) []uint32 {
	out := make([]uint32, len(img)/4)
	for i := range out {
		out[i] = uint32(img[4*i]) | uint32(img[4*i+1])<<8 | uint32(img[4*i+2])<<16 | uint32(img[4*i+3])<<24
	}
	return out
}

// putElem stores v as an sew-bit little-endian element at byte offset off.
func putElem(img []byte, off int, v uint32, sew int) {
	for b := 0; b < sew/8; b++ {
		img[off+b] = byte(v >> (8 * uint(b)))
	}
}

// bitJob is one generated bit-level request before encoding.
type bitJob struct {
	kernel string // "saxpy" or "search"
	config string
	sew    int
	n      int
	regs   map[string]int64
}

// vl classes of a bit-level job.
const (
	vlFull        = iota // whole strips
	vlPartial            // one partial strip
	vlFullPartial        // a whole strip and a partial one
)

// genBitlevel builds a pool of 48 jobs whose shapes are the same for
// every seed: 36 on CAPE32k (each kernel in each vl class at e32 four
// times, e16 and e8 once) and 12 on CAPE131k (each kernel once at full
// vl e32, once at full vl narrow, and four times partial). Partial
// sizes are stratified over their range, so the seed moves each size
// within its stratum only; it also picks the registers and the order.
func genBitlevel(r *rand.Rand, maxJobs int) (*stream, error) {
	type shape struct {
		kernel, config string
		sew, class     int
	}
	kernels := []string{"saxpy", "search"}
	var shapes []shape
	for _, class := range []int{vlFull, vlPartial, vlFullPartial} {
		for _, sew := range []int{32, 32, 32, 32, 16, 8} {
			for _, kernel := range kernels {
				shapes = append(shapes, shape{kernel, "CAPE32k", sew, class})
			}
		}
	}
	for _, kernel := range kernels {
		narrow := 16
		if kernel == "search" {
			narrow = 8
		}
		shapes = append(shapes,
			shape{kernel, "CAPE131k", 32, vlFull},
			shape{kernel, "CAPE131k", narrow, vlFull})
	}
	for _, sew := range []int{32, 32, 16, 8} {
		for _, kernel := range kernels {
			shapes = append(shapes, shape{kernel, "CAPE131k", sew, vlPartial})
		}
	}
	type group struct {
		config string
		class  int
	}
	groupSize := map[group]int{}
	for _, sh := range shapes {
		groupSize[group{sh.config, sh.class}]++
	}
	groupNext := map[group]int{}
	st := &stream{}
	for _, sh := range shapes {
		j := bitJob{kernel: sh.kernel, config: sh.config, sew: sh.sew}
		lanes := 32768
		if j.config == "CAPE131k" {
			lanes = 131072
		}
		// The partial part spans a quarter strip on CAPE32k and an
		// eighth on CAPE131k, whose transfers cost four times as much
		// per strip; the k-th job of its group takes the k-th stratum.
		g := group{sh.config, sh.class}
		k, span := groupNext[g], lanes/4
		groupNext[g]++
		if lanes > 32768 {
			span = lanes / 8
		}
		part := lanes/64 + int((float64(k)+r.Float64())*float64(span)/float64(groupSize[g]))
		switch sh.class {
		case vlFull:
			j.n = lanes
		case vlPartial:
			j.n = part
		default:
			j.n = lanes + part
		}
		mask := sewMask(j.sew)
		j.regs = map[string]int64{
			"x10": int64(j.n),
			"x11": int64(r.Uint32() & mask),
			"x12": int64(r.Uint32()),
			"x14": int64(r.Intn(1 << 16)),
		}
		if j.kernel == "saxpy" {
			j.regs["x13"] = int64(r.Uint32())
			j.regs["x15"] = int64(r.Intn(1 << 16))
		} else {
			care := r.Uint32() & mask & 0x0F0F0F0F
			j.regs["x13"] = int64(uint64(r.Uint32()&mask) | uint64(care)<<uint(j.sew))
		}
		st.items = append(st.items, j.item(lanes))
	}
	st.seq = shuffledRounds(r, maxJobs, len(st.items))
	st.warm = warmByShape(st.items)
	return st, nil
}

// item encodes the job and computes its expected dump.
func (j bitJob) item(lanes int) item {
	var src string
	var img []byte
	sew, mask := j.sew, sewMask(j.sew)
	x12, x14 := j.regs["x12"], j.regs["x14"]
	xk := func(k int) uint32 { return uint32(x12+int64(k)*x14) & mask }
	chunks := (j.n + lanes - 1) / lanes
	if j.kernel == "saxpy" {
		src = saxpySource(sew)
		a := uint32(j.regs["x11"]) & mask
		x13, x15 := j.regs["x13"], j.regs["x15"]
		// Whole words: a partial last word keeps zeros above the data.
		img = make([]byte, (j.n*sew/8+3)/4*4)
		for e := 0; e < j.n; e++ {
			k := e / lanes
			y := uint32(x13+int64(k)*x15) & mask
			putElem(img, e*sew/8, (a*xk(k)+y)&mask, sew)
		}
	} else {
		src = searchSource(sew)
		q := uint32(j.regs["x11"]) & mask
		x13 := uint64(j.regs["x13"])
		value, care := uint32(x13)&mask, uint32(x13>>uint(sew))&mask
		img = make([]byte, 8*chunks)
		for k := 0; k < chunks; k++ {
			vl := lanes
			if rem := j.n - k*lanes; rem < vl {
				vl = rem
			}
			d := xk(k)
			hamm := uint32(bits.OnesCount32((d^q)&mask)) * uint32(vl)
			var count uint32
			if (d^value)&care == 0 {
				count = uint32(vl)
			}
			putElem(img, 8*k, uint32(sext(hamm&mask, sew)), 32)
			putElem(img, 8*k+4, uint32(sext(count&mask, sew)), 32)
		}
	}
	words := dumpWords(img)
	// Dump the last 32 written words and the 32 past them: the tail
	// covers the partial strip, and the zeros past it check that pooled
	// RAM came back cleared.
	const dumpWordsN = 64
	start := len(words) - dumpWordsN/2
	if start < 0 {
		start = 0
	}
	want := make([]uint32, dumpWordsN)
	for i := range want {
		if start+i < len(words) {
			want[i] = words[start+i]
		}
	}
	req := server.Request{
		Source:    src,
		Name:      j.kernel,
		Config:    j.config,
		Backend:   "bitlevel",
		Registers: j.regs,
		Dump:      &server.DumpSpec{Addr: bitOut + uint64(4*start), Words: dumpWordsN},
	}
	return item{
		req:    req,
		memory: want,
		shape:  fmt.Sprintf("%s/e%d/%s", j.kernel, sew, j.config),
	}
}

// --- tiny_source ---------------------------------------------------------

// tinyOps are the .vx forms a tiny program chains, with their Go model.
var tinyOps = []struct {
	name string
	f    func(a, x uint32) uint32
}{
	{"vadd.vx", func(a, x uint32) uint32 { return a + x }},
	{"vsub.vx", func(a, x uint32) uint32 { return a - x }},
	{"vrsub.vx", func(a, x uint32) uint32 { return x - a }},
}

// tinyCombine are the closing .vv forms.
var tinyCombine = []struct {
	name string
	f    func(a, b uint32) uint32
}{
	{"vmul.vv", func(a, b uint32) uint32 { return a * b }},
	{"vadd.vv", func(a, b uint32) uint32 { return a + b }},
	{"vxor.vv", func(a, b uint32) uint32 { return a ^ b }},
}

// tinyProg is one ~10-instruction fast-backend program: v1 = x11 op1
// x12, v2 = v1 op2 C, v3 = v2 comb v1, stored as 64 words at addr.
type tinyProg struct {
	addr          uint64
	op1, op2, cmb int
	c             uint32
	bad           bool
}

func (p tinyProg) source() string {
	comb := tinyCombine[p.cmb].name
	if p.bad {
		// An unknown register: the assembler must reject the program
		// with a positioned diagnostic.
		comb += " v3, v2, v" + fmt.Sprint(40+p.c%50) + " #"
	}
	return fmt.Sprintf(`    li      x10, %#x
    li      x5, 64
    vsetvli x2, x5, e32
    vmv.v.x v1, x11
    %s v1, v1, x12
    li      x13, %d
    %s v2, v1, x13
    %s v3, v2, v1
    vse32.v v3, (x10)
    halt
`, p.addr, tinyOps[p.op1].name, p.c, tinyOps[p.op2].name, comb)
}

func (p tinyProg) expect(x11, x12 uint32) []uint32 {
	v1 := tinyOps[p.op1].f(x11, x12)
	v2 := tinyOps[p.op2].f(v1, p.c)
	v3 := tinyCombine[p.cmb].f(v2, v1)
	out := make([]uint32, 64)
	for i := range out {
		out[i] = v3
	}
	return out
}

func randTiny(r *rand.Rand) tinyProg {
	return tinyProg{
		addr: uint64(0x1000 + 0x100*r.Intn(2048)),
		op1:  r.Intn(len(tinyOps)),
		op2:  r.Intn(len(tinyOps)),
		cmb:  r.Intn(len(tinyCombine)),
		c:    uint32(r.Intn(1 << 30)),
	}
}

func genTiny(r *rand.Rand, maxJobs int) (*stream, error) {
	const repeatSet = 16
	repeats := make([]tinyProg, repeatSet)
	for i := range repeats {
		repeats[i] = randTiny(r)
	}
	st := &stream{}
	add := func(p tinyProg, name string) int {
		x11, x12 := r.Uint32()>>1, r.Uint32()>>1
		it := item{
			req: server.Request{
				Source:    p.source(),
				Name:      name,
				Registers: map[string]int64{"x11": int64(x11), "x12": int64(x12)},
				Dump:      &server.DumpSpec{Addr: p.addr, Words: 64},
			},
			malformed: p.bad,
			shape:     "tiny",
		}
		if !p.bad {
			it.memory = p.expect(x11, x12)
		}
		st.items = append(st.items, it)
		return len(st.items) - 1
	}
	// The warm-up compiles every repeated program once.
	for i, p := range repeats {
		st.warm = append(st.warm, add(p, fmt.Sprintf("tiny-r%d", i)))
	}
	st.seq = make([]int, maxJobs)
	for i := range st.seq {
		switch x := r.Intn(100); {
		case x < 3:
			p := randTiny(r)
			p.bad = true
			st.seq[i] = add(p, "tiny-bad")
		case x < 51:
			k := r.Intn(repeatSet)
			st.seq[i] = add(repeats[k], fmt.Sprintf("tiny-r%d", k))
		default:
			st.seq[i] = add(randTiny(r), "tiny-u")
		}
	}
	return st, nil
}

// --- query_bitlevel ------------------------------------------------------

// genQuery builds a pool of 50 queries whose shapes are the same for
// every seed: kv.get twice as often as rel.select, rel.join and
// near.best, each over 4k, 4k, 8k, 16k and 32k rows, with the probe
// counts and predicates spread evenly over the sizes. The seed picks
// the tables, probe values, predicate operands and the order.
func genQuery(r *rand.Rand, maxJobs int) (*stream, error) {
	type slot struct {
		kind        query.Kind
		rows, level int
	}
	kinds := []query.Kind{query.KindKVGet, query.KindKVGet, query.KindRelSelect, query.KindRelJoin, query.KindNearBest}
	var slots []slot
	for pass := 0; pass < 2; pass++ {
		for ki, kind := range kinds {
			for ri, rows := range []int{4096, 4096, 8192, 16384, 32768} {
				slots = append(slots, slot{kind, rows, (pass + ki + ri) % 5})
			}
		}
	}
	st := &stream{}
	for _, sl := range slots {
		kind, rows := sl.kind, sl.rows
		q := &query.Request{Kind: kind, Keys: make([]uint32, rows)}
		for i := range q.Keys {
			q.Keys[i] = r.Uint32() >> 1
		}
		switch kind {
		case query.KindKVGet:
			// Unique keys, so a hit has exactly one answer.
			seen := make(map[uint32]bool, rows)
			for i := range q.Keys {
				for seen[q.Keys[i]] {
					q.Keys[i] = r.Uint32() >> 1
				}
				seen[q.Keys[i]] = true
			}
			if rows <= 8192 {
				q.Vals = make([]uint32, rows)
				for i := range q.Vals {
					q.Vals[i] = r.Uint32() >> 1
				}
			}
			q.Probes = make([]uint32, []int{1, 4, 16, 64, 256}[sl.level])
			for i := range q.Probes {
				if r.Intn(2) == 0 {
					q.Probes[i] = q.Keys[r.Intn(rows)]
				} else {
					q.Probes[i] = r.Uint32() >> 1
				}
			}
		case query.KindRelSelect:
			// A selective predicate: each match costs one priority-encoder
			// read, so keep matches to a few dozen rows.
			switch sl.level % 3 {
			case 0:
				q.Pred, q.Arg = query.PredEq, q.Keys[r.Intn(rows)]
			case 1:
				q.Pred, q.Arg = query.PredLt, uint32(r.Intn(1<<31/rows*32))
			default:
				q.Pred = query.PredRange
				q.Lo = uint32(r.Intn(1 << 30))
				q.Hi = q.Lo + uint32(r.Intn(1<<31/rows*32))
			}
		case query.KindRelJoin:
			// Some build keys repeat, so a probe can pair with several rows.
			for i := 0; i < rows/64; i++ {
				q.Keys[r.Intn(rows)] = q.Keys[r.Intn(rows)]
			}
			q.Probes = make([]uint32, []int{1, 4, 12, 24, 48}[sl.level])
			for i := range q.Probes {
				if r.Intn(3) > 0 {
					q.Probes[i] = q.Keys[r.Intn(rows)]
				} else {
					q.Probes[i] = r.Uint32() >> 1
				}
			}
		case query.KindNearBest:
			q.Probes = make([]uint32, 1+sl.level)
			for i := range q.Probes {
				q.Probes[i] = r.Uint32() >> 1
			}
		}
		st.items = append(st.items, item{
			req:   server.Request{Query: q, Backend: "bitlevel"},
			query: scanQuery(q),
			shape: string(kind),
		})
	}
	st.seq = shuffledRounds(r, maxJobs, len(st.items))
	st.warm = warmByShape(st.items)
	return st, nil
}

// scanQuery answers q with a plain Go scan of its table.
func scanQuery(q *query.Request) *query.Result {
	res := &query.Result{Kind: q.Kind, Rows: len(q.Keys)}
	val := func(i int) uint32 {
		if i < len(q.Vals) {
			return q.Vals[i]
		}
		return 0
	}
	first := func(k uint32) int {
		for i, key := range q.Keys {
			if key == k {
				return i
			}
		}
		return -1
	}
	switch q.Kind {
	case query.KindKVGet:
		res.Hits = make([]query.Lookup, len(q.Probes))
		for i, p := range q.Probes {
			if idx := first(p); idx >= 0 {
				res.Hits[i] = query.Lookup{Found: true, Index: idx, Val: val(idx)}
			} else {
				res.Hits[i] = query.Lookup{Index: -1}
			}
		}
	case query.KindRelSelect:
		for i, k := range q.Keys {
			ks := int32(k)
			var ok bool
			switch q.Pred {
			case query.PredEq:
				ok = k == q.Arg
			case query.PredLt:
				ok = ks < int32(q.Arg)
			case query.PredRange:
				ok = ks >= int32(q.Lo) && ks <= int32(q.Hi)
			}
			if ok {
				res.Indices = append(res.Indices, i)
			}
		}
	case query.KindRelJoin:
		for pi, p := range q.Probes {
			for bi, k := range q.Keys {
				if k == p {
					res.Pairs = append(res.Pairs, query.JoinPair{Probe: pi, Build: bi})
				}
			}
		}
	case query.KindNearBest:
		for _, p := range q.Probes {
			best, bestD := 0, 33
			for i, k := range q.Keys {
				if d := bits.OnesCount32(k ^ p); d < bestD {
					best, bestD = i, d
				}
			}
			res.Matches = append(res.Matches, query.Match{
				Index: best, Key: q.Keys[best], Val: val(best), Distance: uint32(bestD)})
		}
	}
	return res
}

// --- paper_fast ----------------------------------------------------------

// paperKernels are the built-in kernels that finish in at most ~150 ms
// on the fast backend.
var paperKernels = []string{"idxsrch", "lreg", "memcpy", "pca", "redsum", "revidx", "strmatch", "vsearch", "vvadd", "vvmul"}

func genPaper(r *rand.Rand, maxJobs int) (*stream, error) {
	st := &stream{}
	for _, k := range paperKernels {
		if _, ok := workloads.ByName(k); !ok {
			return nil, fmt.Errorf("paper_fast: no built-in kernel %q", k)
		}
		for _, cfg := range []string{"CAPE32k", "CAPE131k"} {
			st.items = append(st.items, item{
				req:   server.Request{Workload: k, Config: cfg},
				shape: k + "/" + cfg,
			})
		}
	}
	st.seq = shuffledRounds(r, maxJobs, len(st.items))
	// Items alternate CAPE32k/CAPE131k; warm each configuration's
	// kernels back to back so the two clients build both of its
	// pooled machines.
	for first := 0; first < 2; first++ {
		for i := first; i < len(st.items); i += 2 {
			st.warm = append(st.warm, i)
		}
	}
	return st, nil
}

// shapesSummary lists a stream's shapes with their share of the first
// n requests, for the run record.
func shapesSummary(st *stream, n int) string {
	if n > len(st.seq) {
		n = len(st.seq)
	}
	count := map[string]int{}
	for _, i := range st.seq[:n] {
		count[st.items[i].shape]++
	}
	keys := make([]string, 0, len(count))
	for k := range count {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, count[k])
	}
	return strings.Join(parts, " ")
}
