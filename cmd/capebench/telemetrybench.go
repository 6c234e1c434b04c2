// The telemetry experiment measures the cost of the always-on
// observability substrate (internal/telemetry): per-microop throughput
// of the CSB's Run with the PMU attached vs. detached,
// and the flight recorder's event throughput under one and many
// writers. Counters must stay within a few percent of free — they are
// never switched off in production — so CI gates the ratio via
// testdata/bench_baseline.json, and TestCountersOnOverheadGuard
// enforces the stricter 3% bound. Results go to stdout as a table and
// to -telemetry-out as BENCH_telemetry.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"cape/internal/csb"
	"cape/internal/isa"
	"cape/internal/telemetry"
	"cape/internal/ucode"
)

var telemetryOut = flag.String("telemetry-out", "BENCH_telemetry.json", "output path for the telemetry JSON report")

// telemetryCounterEntry is one (config, instruction) overhead
// measurement on csb.Run. Ratio is off/on ns — 1.0 means the counters
// are free, 0.97 means they cost 3%.
type telemetryCounterEntry struct {
	Config   string  `json:"config"`
	Chains   int     `json:"chains"`
	Inst     string  `json:"inst"`
	MicroOps int     `json:"microops"`
	OffNSOp  int64   `json:"off_ns_op"`
	OnNSOp   int64   `json:"on_ns_op"`
	Ratio    float64 `json:"ratio"`
}

// telemetryBenchReport is the BENCH_telemetry.json payload.
type telemetryBenchReport struct {
	Note    string                  `json:"note,omitempty"`
	Entries []telemetryCounterEntry `json:"entries"`
	// CountersRatio is the worst (lowest) entry ratio — the gated
	// number.
	CountersRatio float64 `json:"counters_ratio"`
	// FlightMEPS is single-writer flight-recorder throughput in
	// millions of events per second; FlightConcurrentMEPS the
	// aggregate across FlightWriters concurrent writers on one ring.
	FlightMEPS           float64 `json:"flight_meps"`
	FlightWriters        int     `json:"flight_writers"`
	FlightConcurrentMEPS float64 `json:"flight_concurrent_meps"`
}

func (r telemetryBenchReport) String() string {
	out := fmt.Sprintf("Always-on telemetry: PMU overhead on csb.Run (worst ratio %.3f; 1.0 = free)\n",
		r.CountersRatio)
	out += fmt.Sprintf("%-9s %7s %-12s %6s %11s %11s %7s\n",
		"config", "chains", "inst", "µops", "off ns/op", "on ns/op", "ratio")
	for _, e := range r.Entries {
		out += fmt.Sprintf("%-9s %7d %-12s %6d %11d %11d %7.3f\n",
			e.Config, e.Chains, e.Inst, e.MicroOps, e.OffNSOp, e.OnNSOp, e.Ratio)
	}
	out += fmt.Sprintf("\nFlight recorder: %.1f M events/s single writer, %.1f M events/s aggregate across %d writers\n",
		r.FlightMEPS, r.FlightConcurrentMEPS, r.FlightWriters)
	return out
}

// flightThroughput records events for roughly dur and returns millions
// of events per second across the given writer count.
func flightThroughput(writers int, dur time.Duration) float64 {
	r := telemetry.NewFlightRecorder(telemetry.DefaultFlightCap)
	const batch = 4096
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	counts := make([]uint64, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := telemetry.Event{Shard: "bench", Kind: "job_done", JobID: uint64(w)}
			for time.Now().Before(deadline) {
				for i := 0; i < batch; i++ {
					r.Record(ev)
				}
				counts[w] += batch
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var total uint64
	for _, c := range counts {
		total += c
	}
	return float64(total) / elapsed / 1e6
}

// telemetryBench runs the experiment and writes the JSON report.
func telemetryBench() (fmt.Stringer, error) {
	configs := []struct {
		name   string
		chains int
	}{
		{"chains64", 64},
		{"CAPE32k", 1024},
	}
	insts := []struct {
		name string
		op   isa.Opcode
		x    uint64
	}{
		{"vadd.vv", isa.OpVADD_VV, 0},
		{"vmsearch.vx", isa.OpVMSEARCH_VX, 0xFFFF_0000_37F0_ABCD},
	}

	report := telemetryBenchReport{
		Note: "off = csb.Run with no PMU attached; on = the production configuration " +
			"(per-shard PMU, atomic adds amortized per microcode run)",
	}
	for _, cfg := range configs {
		for _, in := range insts {
			seq, err := ucode.Lower(nil, in.op, 1, 2, 3, in.x, 32)
			if err != nil {
				return nil, fmt.Errorf("telemetry: generate %s: %w", in.name, err)
			}
			ops := seq.Ops()

			off, on := csb.New(cfg.chains), csb.New(cfg.chains)
			fillCSB(off)
			fillCSB(on)
			on.SetPMU(&telemetry.PMU{})

			offNS, onNS := timePairMin(off, on, ops)
			report.Entries = append(report.Entries, telemetryCounterEntry{
				Config:   cfg.name,
				Chains:   cfg.chains,
				Inst:     in.name,
				MicroOps: len(ops),
				OffNSOp:  offNS,
				OnNSOp:   onNS,
				Ratio:    float64(offNS) / float64(onNS),
			})
		}
	}
	report.CountersRatio = report.Entries[0].Ratio
	for _, e := range report.Entries[1:] {
		if e.Ratio < report.CountersRatio {
			report.CountersRatio = e.Ratio
		}
	}

	report.FlightMEPS = flightThroughput(1, 250*time.Millisecond)
	report.FlightWriters = 4
	report.FlightConcurrentMEPS = flightThroughput(report.FlightWriters, 250*time.Millisecond)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(*telemetryOut, append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("telemetry: writing %s: %w", *telemetryOut, err)
	}
	return report, nil
}
