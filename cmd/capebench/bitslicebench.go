// The bitslice experiment measures the CSB's word-parallel bit-slice
// engine — the one executor production runs — against the retired
// per-column scalar engine kept as its reference: same microcode, same
// serial execution, so the measured gain is purely the SIMD-in-a-word
// data layout. Results go to stdout as a table and to -bitslice-out as
// BENCH_bitslice.json so CI can gate the throughput floors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"cape/internal/csb"
	"cape/internal/isa"
	"cape/internal/tt"
	"cape/internal/ucode"
)

var bitsliceOut = flag.String("bitslice-out", "BENCH_bitslice.json", "output path for the bitslice JSON report")

// bitsliceBenchEntry is one (config, instruction) measurement. Scalar
// is the retired per-chain/per-column engine (csb.NewScalar); Bitslice
// the production engine (csb.New, Run). Speedup is Scalar/Bitslice.
type bitsliceBenchEntry struct {
	Config         string  `json:"config"`
	Chains         int     `json:"chains"`
	Inst           string  `json:"inst"`
	MicroOps       int     `json:"microops"`
	ScalarNSOp     int64   `json:"scalar_ns_op"`
	BitsliceNSOp   int64   `json:"bitslice_ns_op"`
	Speedup        float64 `json:"speedup"`
	BitIdentical   bool    `json:"bit_identical"`
	StatsIdentical bool    `json:"stats_identical"`
}

// bitsliceBenchReport is the BENCH_bitslice.json payload.
type bitsliceBenchReport struct {
	Note    string               `json:"note,omitempty"`
	Entries []bitsliceBenchEntry `json:"entries"`
}

func (r bitsliceBenchReport) String() string {
	out := "Bit-slice engine vs. retired scalar engine (serial, per-microop throughput)\n"
	out += fmt.Sprintf("%-9s %7s %-12s %6s %13s %15s %9s %5s\n",
		"config", "chains", "inst", "µops", "scalar ns/op", "bitslice ns/op", "speedup", "bit=")
	for _, e := range r.Entries {
		out += fmt.Sprintf("%-9s %7d %-12s %6d %13d %15d %8.2fx %5v\n",
			e.Config, e.Chains, e.Inst, e.MicroOps, e.ScalarNSOp, e.BitsliceNSOp,
			e.Speedup, e.BitIdentical && e.StatsIdentical)
	}
	return out
}

// fillCSB seeds the benchmark registers with a deterministic pattern so
// carry chains and tag activity resemble real data rather than zeros.
func fillCSB(c *csb.CSB) {
	x := uint32(0x9e3779b9)
	for v := 1; v <= 3; v++ {
		for e := 0; e < c.MaxVL(); e++ {
			x = x*1664525 + 1013904223
			c.WriteElement(v, e, x)
		}
	}
}

// timeRunMin times Run over several rounds and returns the fastest
// round's mean ns/op. Min-of-N discards scheduler noise, which on a
// loaded or throttled host dwarfs the effects being measured.
func timeRunMin(c *csb.CSB, ops []tt.MicroOp) int64 {
	const (
		rounds    = 5
		roundTime = 60 * time.Millisecond
		maxReps   = 200
	)
	c.Run(ops) // warm up
	start := time.Now()
	c.Run(ops)
	est := time.Since(start)
	reps := 1
	if est > 0 && est < roundTime {
		reps = int(roundTime / est)
		if reps > maxReps {
			reps = maxReps
		}
	}
	best := int64(0)
	for r := 0; r < rounds; r++ {
		start = time.Now()
		for i := 0; i < reps; i++ {
			c.Run(ops)
		}
		ns := time.Since(start).Nanoseconds() / int64(reps)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// timePairMin times two CSBs on the same sequence, interleaved twice
// (a, b, a, b) so host speed drift hits both sides equally, and returns
// each side's best ns/op.
func timePairMin(a, b *csb.CSB, ops []tt.MicroOp) (aNS, bNS int64) {
	aNS = timeRunMin(a, ops)
	bNS = timeRunMin(b, ops)
	aNS = min(aNS, timeRunMin(a, ops))
	bNS = min(bNS, timeRunMin(b, ops))
	return aNS, bNS
}

// bitsliceBench runs the experiment and writes the JSON report.
func bitsliceBench() (fmt.Stringer, error) {
	configs := []struct {
		name   string
		chains int
	}{
		{"chains64", 64},
		{"CAPE32k", 1024},
		{"CAPE131k", 4096},
	}
	insts := []struct {
		name string
		op   isa.Opcode
		x    uint64
	}{
		{"vadd.vv", isa.OpVADD_VV, 0},
		{"vmul.vv", isa.OpVMUL_VV, 0},
		{"vredsum.vs", isa.OpVREDSUM_VS, 0},
		// Packed (value, care) at SEW 32: value 0x37F0ABCD, care the
		// top halfword — a realistic prefix search.
		{"vmsearch.vx", isa.OpVMSEARCH_VX, 0xFFFF_0000_37F0_ABCD},
		{"vhamm.vx", isa.OpVHAMM_VX, 0xBEEF},
	}

	report := bitsliceBenchReport{
		Note: "scalar = retired per-column engine (csb.NewScalar, the differential reference); " +
			"bitslice = word-parallel engine (csb.New, the production executor)",
	}
	for _, cfg := range configs {
		for _, in := range insts {
			seq, err := ucode.Lower(nil, in.op, 1, 2, 3, in.x, 32)
			if err != nil {
				return nil, fmt.Errorf("bitslice: generate %s: %w", in.name, err)
			}
			ops := seq.Ops()

			// Bit- and stats-identity on fresh state, before timing
			// mutates it.
			scalar, bits := csb.NewScalar(cfg.chains), csb.New(cfg.chains)
			fillCSB(scalar)
			fillCSB(bits)
			scalar.Run(ops)
			bits.Run(ops)
			identical := scalar.StateDigest() == bits.StateDigest() &&
				scalar.ReductionResult() == bits.ReductionResult()
			stats := scalar.Stats == bits.Stats
			if !identical || !stats {
				return nil, fmt.Errorf("bitslice: %s on %s: engines diverged (bits %v, stats %v)",
					in.name, cfg.name, identical, stats)
			}

			scalarNS, bitsNS := timePairMin(scalar, bits, ops)
			report.Entries = append(report.Entries, bitsliceBenchEntry{
				Config:         cfg.name,
				Chains:         cfg.chains,
				Inst:           in.name,
				MicroOps:       len(ops),
				ScalarNSOp:     scalarNS,
				BitsliceNSOp:   bitsNS,
				Speedup:        float64(scalarNS) / float64(bitsNS),
				BitIdentical:   identical,
				StatsIdentical: stats,
			})
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(*bitsliceOut, append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("bitslice: writing %s: %w", *bitsliceOut, err)
	}
	return report, nil
}
