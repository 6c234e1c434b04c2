// The ucode experiment measures the compile-once microcode layer
// (internal/ucode): per-instruction lowering ns/op with the template
// cache against direct table generation on a repeated instruction
// stream, plus end-to-end bit-level workload throughput (simulated
// cycles per wall-second) with the cache on vs. off. Results go to
// stdout as a table and to -ucode-out as BENCH_ucode.json so CI can
// track the lowering speedup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"cape/internal/asm"
	"cape/internal/core"
	"cape/internal/isa"
	"cape/internal/ucode"
)

var ucodeOut = flag.String("ucode-out", "BENCH_ucode.json", "output path for the ucode JSON report")

// ucodeLowerEntry is one instruction's lowering measurement on the
// repeated stream.
type ucodeLowerEntry struct {
	Inst       string  `json:"inst"`
	SEW        int     `json:"sew"`
	MicroOps   int     `json:"microops"`
	DirectNSOp int64   `json:"direct_ns_op"`
	CachedNSOp int64   `json:"cached_ns_op"`
	Speedup    float64 `json:"speedup"`
}

// ucodeE2EEntry is one end-to-end bit-level run pair (cache on/off).
type ucodeE2EEntry struct {
	Workload      string           `json:"workload"`
	Chains        int              `json:"chains"`
	Cycles        int64            `json:"cycles"`
	CacheOffNS    int64            `json:"cache_off_ns"`
	CacheOnNS     int64            `json:"cache_on_ns"`
	CacheOffCPS   float64          `json:"cache_off_cycles_per_sec"`
	CacheOnCPS    float64          `json:"cache_on_cycles_per_sec"`
	Speedup       float64          `json:"speedup"`
	BitIdentical  bool             `json:"bit_identical"`
	CacheOnStats  ucode.CacheStats `json:"cache_on_stats"`
	CacheOffStats ucode.CacheStats `json:"cache_off_stats"`
}

// ucodeBenchReport is the BENCH_ucode.json payload.
type ucodeBenchReport struct {
	StreamDirectNSOp int64             `json:"stream_direct_ns_op"`
	StreamCachedNSOp int64             `json:"stream_cached_ns_op"`
	StreamSpeedup    float64           `json:"stream_speedup"`
	Lowering         []ucodeLowerEntry `json:"lowering"`
	EndToEnd         []ucodeE2EEntry   `json:"end_to_end"`
}

func (r ucodeBenchReport) String() string {
	out := fmt.Sprintf("Compile-once microcode: template cache vs. direct lowering (stream speedup %.2fx)\n",
		r.StreamSpeedup)
	out += fmt.Sprintf("%-12s %4s %6s %13s %13s %9s\n",
		"inst", "sew", "µops", "direct ns/op", "cached ns/op", "speedup")
	for _, e := range r.Lowering {
		out += fmt.Sprintf("%-12s %4d %6d %13d %13d %8.2fx\n",
			e.Inst, e.SEW, e.MicroOps, e.DirectNSOp, e.CachedNSOp, e.Speedup)
	}
	out += "\nEnd-to-end bit-level execution (simulated cycles per wall-second)\n"
	out += fmt.Sprintf("%-12s %7s %9s %14s %14s %9s %5s\n",
		"workload", "chains", "cycles", "off cycles/s", "on cycles/s", "speedup", "bit=")
	for _, e := range r.EndToEnd {
		out += fmt.Sprintf("%-12s %7d %9d %14.0f %14.0f %8.2fx %5v\n",
			e.Workload, e.Chains, e.Cycles, e.CacheOffCPS, e.CacheOnCPS, e.Speedup, e.BitIdentical)
	}
	return out
}

// ucodeStream is the repeated instruction stream: a loop body's worth
// of distinct static instructions, re-lowered every iteration exactly
// as the CP re-issues them. Scalars vary per replay so .vx templates
// pay the rebind copy on every hit.
var ucodeStream = []struct {
	name         string
	op           isa.Opcode
	vd, vs2, vs1 int
}{
	{"vadd.vv", isa.OpVADD_VV, 3, 1, 2},
	{"vadd.vx", isa.OpVADD_VX, 4, 3, 0},
	{"vmul.vv", isa.OpVMUL_VV, 5, 3, 4},
	{"vmseq.vx", isa.OpVMSEQ_VX, 6, 5, 0},
	{"vand.vv", isa.OpVAND_VV, 7, 6, 3},
	{"vredsum.vs", isa.OpVREDSUM_VS, 8, 7, 3},
}

// timeLower reports the mean ns per call of f, adaptively repeating
// until at least minTime has elapsed (capped at maxReps).
func timeLower(f func() error) (int64, error) {
	const (
		minTime = 100 * time.Millisecond
		maxReps = 2_000_000
	)
	if err := f(); err != nil { // warm up (and populate any cache)
		return 0, err
	}
	start := time.Now()
	if err := f(); err != nil {
		return 0, err
	}
	est := time.Since(start)
	reps := 1
	if est > 0 && est < minTime {
		reps = int(minTime / est)
		if reps > maxReps {
			reps = maxReps
		}
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Nanoseconds() / int64(reps), nil
}

// ucodeWorkload is the end-to-end bit-level program: a scalar loop
// whose vector body re-lowers the same static instructions every
// iteration, which is exactly where compile-once pays.
const ucodeWorkload = `
	li      x1, 64
	vsetvli x2, x1, e32
	li      x10, 0x1000
	li      x11, 5
	li      x5, 0
	li      x6, 48
	vle32.v v1, (x10)
loop:
	vadd.vx v2, v1, x11
	vmul.vv v3, v2, v2
	vsll.vi v4, v2, 3
	vmseq.vx v0, v3, x11
	vadd.vv v3, v3, v4
	addi    x11, x11, 1
	addi    x5, x5, 1
	blt     x5, x6, loop
	vmv.v.x v5, x0
	vredsum.vs v6, v3, v5
	vse32.v v3, (x10)
	halt
`

// runE2E builds a bit-level machine with the given cache setting and
// times repeated runs of prog, returning mean wall ns per run, the
// result of the final run, and a memory digest for identity checking.
func runE2E(prog *isa.Program, cacheSize int) (int64, core.Result, []uint32, ucode.CacheStats, error) {
	const (
		chains  = 64
		minTime = 200 * time.Millisecond
		maxReps = 50
	)
	cfg := core.CAPE32k()
	cfg.Chains = chains
	cfg.Backend = core.BackendBitLevel
	cfg.RAMBytes = 1 << 20
	cfg.UcodeCacheSize = cacheSize
	m := core.New(cfg)
	res, err := m.Run(prog) // warm up (and populate the cache)
	if err != nil {
		return 0, core.Result{}, nil, ucode.CacheStats{}, err
	}
	mem := m.RAM().ReadWords(0x1000, 64)

	m.Reset()
	start := time.Now()
	if _, err := m.Run(prog); err != nil {
		return 0, core.Result{}, nil, ucode.CacheStats{}, err
	}
	est := time.Since(start)
	reps := 1
	if est > 0 && est < minTime {
		reps = int(minTime / est)
		if reps > maxReps {
			reps = maxReps
		}
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		m.Reset()
		if _, err := m.Run(prog); err != nil {
			return 0, core.Result{}, nil, ucode.CacheStats{}, err
		}
	}
	ns := time.Since(start).Nanoseconds() / int64(reps)
	return ns, res, mem, m.UcodeCache().Stats(), nil
}

// ucodeBench runs the experiment and writes the JSON report.
func ucodeBench() (fmt.Stringer, error) {
	var report ucodeBenchReport

	// Per-instruction lowering: direct generation vs. steady-state
	// cache hits, scalars varying per call.
	cache := ucode.NewCache(0)
	for _, in := range ucodeStream {
		seq, err := ucode.Lower(nil, in.op, in.vd, in.vs2, in.vs1, 0, 32)
		if err != nil {
			return nil, fmt.Errorf("ucode: lower %s: %w", in.name, err)
		}
		var x uint64
		in := in
		direct, err := timeLower(func() error {
			x++
			_, err := ucode.Lower(nil, in.op, in.vd, in.vs2, in.vs1, x, 32)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("ucode: time direct %s: %w", in.name, err)
		}
		cached, err := timeLower(func() error {
			x++
			_, err := ucode.Lower(cache, in.op, in.vd, in.vs2, in.vs1, x, 32)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("ucode: time cached %s: %w", in.name, err)
		}
		report.Lowering = append(report.Lowering, ucodeLowerEntry{
			Inst:       in.name,
			SEW:        32,
			MicroOps:   seq.Len(),
			DirectNSOp: direct,
			CachedNSOp: cached,
			Speedup:    float64(direct) / float64(cached),
		})
	}

	// Whole-stream replay: the acceptance number. One replay lowers
	// every instruction in the stream once, as one loop iteration would.
	var x uint64
	streamWith := func(c *ucode.Cache) func() error {
		return func() error {
			x++
			for _, in := range ucodeStream {
				if _, err := ucode.Lower(c, in.op, in.vd, in.vs2, in.vs1, x, 32); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var err error
	report.StreamDirectNSOp, err = timeLower(streamWith(nil))
	if err != nil {
		return nil, fmt.Errorf("ucode: stream direct: %w", err)
	}
	report.StreamCachedNSOp, err = timeLower(streamWith(ucode.NewCache(0)))
	if err != nil {
		return nil, fmt.Errorf("ucode: stream cached: %w", err)
	}
	report.StreamSpeedup = float64(report.StreamDirectNSOp) / float64(report.StreamCachedNSOp)

	// End-to-end: the same program on bit-level machines differing only
	// in the cache setting must be cycle- and bit-identical, with the
	// cached machine running faster in wall time.
	prog, err := asm.Assemble("ucode-bench", ucodeWorkload)
	if err != nil {
		return nil, fmt.Errorf("ucode: assemble: %w", err)
	}
	offNS, offRes, offMem, offStats, err := runE2E(prog, -1)
	if err != nil {
		return nil, fmt.Errorf("ucode: cache-off run: %w", err)
	}
	onNS, onRes, onMem, onStats, err := runE2E(prog, 0)
	if err != nil {
		return nil, fmt.Errorf("ucode: cache-on run: %w", err)
	}
	identical := offRes.CP.Cycles == onRes.CP.Cycles && slices.Equal(offMem, onMem)
	if !identical {
		return nil, fmt.Errorf("ucode: cached run diverged from uncached (cycles %d vs %d)",
			onRes.CP.Cycles, offRes.CP.Cycles)
	}
	cycles := onRes.CP.Cycles
	report.EndToEnd = append(report.EndToEnd, ucodeE2EEntry{
		Workload:      "scalar-loop kernel (48 iterations)",
		Chains:        64,
		Cycles:        cycles,
		CacheOffNS:    offNS,
		CacheOnNS:     onNS,
		CacheOffCPS:   float64(cycles) / (float64(offNS) / 1e9),
		CacheOnCPS:    float64(cycles) / (float64(onNS) / 1e9),
		Speedup:       float64(offNS) / float64(onNS),
		BitIdentical:  identical,
		CacheOnStats:  onStats,
		CacheOffStats: offStats,
	})

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(*ucodeOut, append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("ucode: writing %s: %w", *ucodeOut, err)
	}
	return report, nil
}
