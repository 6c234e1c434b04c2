// Package telemetry is caped's always-on observability substrate:
// hardware-style performance counters (PMU), per-shard lock-free
// flight recorders, rolling-window SLO tracking, and Go runtime
// metric registration. Unlike internal/obs — which profiles one job
// when that job asks for a trace — everything here is on for every
// job, so it answers "what is the fleet doing right now?" and "what
// happened just before that 503?".
//
// The package sits below the engine layers: it imports only the
// standard library and internal/metrics, so internal/csb,
// internal/core and internal/server can all thread a *PMU or *Flight
// through without import cycles.
package telemetry

import (
	"fmt"
	"strings"
	"sync/atomic"

	"cape/internal/metrics"
)

// PMU is a block of always-on performance counters, styled after a
// hardware performance-monitoring unit: every field is a monotonic
// atomic counter, cheap enough to bump from the hot path. One PMU is
// shared by every machine of a pool shard (like the shard's ucode
// cache), so the counters describe the shard's aggregate activity.
//
// The CSB flushes one CSBDelta per microcode run (AddCSBRun); the
// machine counts microcode-cache lookups and HBM transfers at issue
// time. All methods are safe for concurrent use.
type PMU struct {
	// CSB activity, accumulated per microcode run.
	csbRuns        atomic.Uint64
	searchSerial   atomic.Uint64
	searchParallel atomic.Uint64
	updateSerial   atomic.Uint64
	updateProp     atomic.Uint64
	updateParallel atomic.Uint64
	reduce         atomic.Uint64
	enable         atomic.Uint64
	wordsEvaluated atomic.Uint64
	lanesActive    atomic.Uint64
	csbCycles      atomic.Uint64
	match0Bits     atomic.Uint64
	match1Bits     atomic.Uint64

	// Machine-level activity, counted at instruction issue.
	ucodeHits    atomic.Uint64
	ucodeMisses  atomic.Uint64
	hbmTransfers atomic.Uint64
	hbmBytes     atomic.Uint64
	vectorALU    atomic.Uint64
	vectorMem    atomic.Uint64
}

// CSBDelta is one microcode run's counter increments, computed by the
// CSB from its Stats delta so the PMU pays a handful of atomic adds
// per run (hundreds of word-sweeps), not per microop.
type CSBDelta struct {
	// Microops retired, by the energy model's class split.
	SearchSerial   uint64
	SearchParallel uint64
	UpdateSerial   uint64
	UpdateProp     uint64
	UpdateParallel uint64
	Reduce         uint64
	Enable         uint64
	// Words is the bitmap-word (or chain, on the scalar engine) sweeps
	// evaluated: words per microop × microops.
	Words uint64
	// Lanes is active lanes × microops (lane-slots the window exposed).
	Lanes uint64
	// Cycles is the modeled CSB cycle cost.
	Cycles uint64
	// Match0Bits/Match1Bits count comparand bits driven against stored
	// 0s and 1s across all searches — the match-line activity proxy
	// CAM energy models key on.
	Match0Bits uint64
	Match1Bits uint64
}

// AddCSBRun accumulates one microcode run. Zero fields skip their
// atomic add, so a typical two-class run costs ~6 uncontended adds.
func (p *PMU) AddCSBRun(d *CSBDelta) {
	p.csbRuns.Add(1)
	if d.SearchSerial != 0 {
		p.searchSerial.Add(d.SearchSerial)
	}
	if d.SearchParallel != 0 {
		p.searchParallel.Add(d.SearchParallel)
	}
	if d.UpdateSerial != 0 {
		p.updateSerial.Add(d.UpdateSerial)
	}
	if d.UpdateProp != 0 {
		p.updateProp.Add(d.UpdateProp)
	}
	if d.UpdateParallel != 0 {
		p.updateParallel.Add(d.UpdateParallel)
	}
	if d.Reduce != 0 {
		p.reduce.Add(d.Reduce)
	}
	if d.Enable != 0 {
		p.enable.Add(d.Enable)
	}
	if d.Words != 0 {
		p.wordsEvaluated.Add(d.Words)
	}
	if d.Lanes != 0 {
		p.lanesActive.Add(d.Lanes)
	}
	if d.Cycles != 0 {
		p.csbCycles.Add(d.Cycles)
	}
	if d.Match0Bits != 0 {
		p.match0Bits.Add(d.Match0Bits)
	}
	if d.Match1Bits != 0 {
		p.match1Bits.Add(d.Match1Bits)
	}
}

// AddUcodeLookup counts one microcode template-cache lookup.
func (p *PMU) AddUcodeLookup(hit bool) {
	if hit {
		p.ucodeHits.Add(1)
	} else {
		p.ucodeMisses.Add(1)
	}
}

// AddHBMTransfer counts one vector memory transfer of n bytes.
func (p *PMU) AddHBMTransfer(n uint64) {
	p.hbmTransfers.Add(1)
	p.hbmBytes.Add(n)
}

// AddVectorInst counts one issued vector instruction (mem selects the
// memory pipe, otherwise ALU/reduction).
func (p *PMU) AddVectorInst(mem bool) {
	if mem {
		p.vectorMem.Add(1)
	} else {
		p.vectorALU.Add(1)
	}
}

// CSBRuns returns the microcode-run count (tests, gauges).
func (p *PMU) CSBRuns() uint64 { return p.csbRuns.Load() }

// PerfCounters is a point-in-time PMU snapshot, JSON-shaped for
// /v1/status and renderable as a table for capesim -counters.
type PerfCounters struct {
	CSBRuns        uint64 `json:"csb_runs"`
	MicroopsTotal  uint64 `json:"microops_total"`
	SearchSerial   uint64 `json:"search_serial"`
	SearchParallel uint64 `json:"search_parallel"`
	UpdateSerial   uint64 `json:"update_serial"`
	UpdateProp     uint64 `json:"update_prop"`
	UpdateParallel uint64 `json:"update_parallel"`
	Reduce         uint64 `json:"reduce"`
	Enable         uint64 `json:"enable"`
	WordsEvaluated uint64 `json:"words_evaluated"`
	LanesActive    uint64 `json:"lanes_active"`
	CSBCycles      uint64 `json:"csb_cycles"`
	Match0Bits     uint64 `json:"match0_bits"`
	Match1Bits     uint64 `json:"match1_bits"`
	// Match0Density is Match0Bits / (Match0Bits + Match1Bits): the
	// fraction of comparand bits searched against stored zeros.
	Match0Density float64 `json:"match0_density"`
	UcodeHits     uint64  `json:"ucode_cache_hits"`
	UcodeMisses   uint64  `json:"ucode_cache_misses"`
	HBMTransfers  uint64  `json:"hbm_transfers"`
	HBMBytes      uint64  `json:"hbm_bytes"`
	VectorALU     uint64  `json:"vector_alu_insts"`
	VectorMem     uint64  `json:"vector_mem_insts"`
}

// Snapshot reads every counter. Loads are individually atomic, not a
// consistent cut — counters may be mid-run — which is the usual PMU
// read semantics.
func (p *PMU) Snapshot() PerfCounters {
	c := PerfCounters{
		CSBRuns:        p.csbRuns.Load(),
		SearchSerial:   p.searchSerial.Load(),
		SearchParallel: p.searchParallel.Load(),
		UpdateSerial:   p.updateSerial.Load(),
		UpdateProp:     p.updateProp.Load(),
		UpdateParallel: p.updateParallel.Load(),
		Reduce:         p.reduce.Load(),
		Enable:         p.enable.Load(),
		WordsEvaluated: p.wordsEvaluated.Load(),
		LanesActive:    p.lanesActive.Load(),
		CSBCycles:      p.csbCycles.Load(),
		Match0Bits:     p.match0Bits.Load(),
		Match1Bits:     p.match1Bits.Load(),
		UcodeHits:      p.ucodeHits.Load(),
		UcodeMisses:    p.ucodeMisses.Load(),
		HBMTransfers:   p.hbmTransfers.Load(),
		HBMBytes:       p.hbmBytes.Load(),
		VectorALU:      p.vectorALU.Load(),
		VectorMem:      p.vectorMem.Load(),
	}
	c.finish()
	return c
}

// finish recomputes the derived fields from the raw counters.
func (c *PerfCounters) finish() {
	c.MicroopsTotal = c.SearchSerial + c.SearchParallel + c.UpdateSerial +
		c.UpdateProp + c.UpdateParallel + c.Reduce + c.Enable
	if total := c.Match0Bits + c.Match1Bits; total > 0 {
		c.Match0Density = float64(c.Match0Bits) / float64(total)
	} else {
		c.Match0Density = 0
	}
}

// Add accumulates o into c (aggregating shards) and refreshes the
// derived fields.
func (c *PerfCounters) Add(o PerfCounters) {
	c.CSBRuns += o.CSBRuns
	c.SearchSerial += o.SearchSerial
	c.SearchParallel += o.SearchParallel
	c.UpdateSerial += o.UpdateSerial
	c.UpdateProp += o.UpdateProp
	c.UpdateParallel += o.UpdateParallel
	c.Reduce += o.Reduce
	c.Enable += o.Enable
	c.WordsEvaluated += o.WordsEvaluated
	c.LanesActive += o.LanesActive
	c.CSBCycles += o.CSBCycles
	c.Match0Bits += o.Match0Bits
	c.Match1Bits += o.Match1Bits
	c.UcodeHits += o.UcodeHits
	c.UcodeMisses += o.UcodeMisses
	c.HBMTransfers += o.HBMTransfers
	c.HBMBytes += o.HBMBytes
	c.VectorALU += o.VectorALU
	c.VectorMem += o.VectorMem
	c.finish()
}

// Table renders the snapshot as an aligned two-column table (the
// capesim -counters output).
func (c PerfCounters) Table() string {
	var b strings.Builder
	b.WriteString("perf counters\n")
	row := func(name string, v uint64) {
		fmt.Fprintf(&b, "  %-22s %d\n", name, v)
	}
	row("csb_runs", c.CSBRuns)
	row("microops_total", c.MicroopsTotal)
	row("  search_serial", c.SearchSerial)
	row("  search_parallel", c.SearchParallel)
	row("  update_serial", c.UpdateSerial)
	row("  update_prop", c.UpdateProp)
	row("  update_parallel", c.UpdateParallel)
	row("  reduce", c.Reduce)
	row("  enable", c.Enable)
	row("words_evaluated", c.WordsEvaluated)
	row("lanes_active", c.LanesActive)
	row("csb_cycles", c.CSBCycles)
	row("match0_bits", c.Match0Bits)
	row("match1_bits", c.Match1Bits)
	fmt.Fprintf(&b, "  %-22s %.4f\n", "match0_density", c.Match0Density)
	row("ucode_cache_hits", c.UcodeHits)
	row("ucode_cache_misses", c.UcodeMisses)
	row("hbm_transfers", c.HBMTransfers)
	row("hbm_bytes", c.HBMBytes)
	row("vector_alu_insts", c.VectorALU)
	row("vector_mem_insts", c.VectorMem)
	return b.String()
}

// RegisterPMU exposes a PMU on a metrics registry under the caped_pmu_*
// families, sampled live at render time. labels (typically the shard
// key) are copied into every series.
func RegisterPMU(reg *metrics.Registry, labels metrics.Labels, p *PMU) {
	with := func(extra metrics.Labels) metrics.Labels {
		m := make(metrics.Labels, len(labels)+len(extra))
		for k, v := range labels {
			m[k] = v
		}
		for k, v := range extra {
			m[k] = v
		}
		return m
	}
	classes := []struct {
		name string
		c    *atomic.Uint64
	}{
		{"search_serial", &p.searchSerial},
		{"search_parallel", &p.searchParallel},
		{"update_serial", &p.updateSerial},
		{"update_prop", &p.updateProp},
		{"update_parallel", &p.updateParallel},
		{"reduce", &p.reduce},
		{"enable", &p.enable},
	}
	for _, cl := range classes {
		c := cl.c
		reg.CounterFunc("caped_pmu_microops_total",
			"Microoperations retired by the CSB, by class.",
			with(metrics.Labels{"class": cl.name}), c.Load)
	}
	reg.CounterFunc("caped_pmu_csb_runs_total",
		"Microcode sequences executed by the CSB.", labels, p.csbRuns.Load)
	reg.CounterFunc("caped_pmu_words_evaluated_total",
		"Bitmap-word sweeps evaluated (words per microop x microops).", labels, p.wordsEvaluated.Load)
	reg.CounterFunc("caped_pmu_lanes_active_total",
		"Active lane-slots exposed to microops (window lanes x microops).", labels, p.lanesActive.Load)
	reg.CounterFunc("caped_pmu_csb_cycles_total",
		"Modeled CSB cycles spent on microcode.", labels, p.csbCycles.Load)
	reg.CounterFunc("caped_pmu_match_bits_total",
		"Comparand bits driven on search match lines, by stored polarity.",
		with(metrics.Labels{"polarity": "0"}), p.match0Bits.Load)
	reg.CounterFunc("caped_pmu_match_bits_total",
		"Comparand bits driven on search match lines, by stored polarity.",
		with(metrics.Labels{"polarity": "1"}), p.match1Bits.Load)
	reg.GaugeFunc("caped_pmu_match0_density_ppm",
		"Match-0 fraction of searched comparand bits, in parts per million.",
		labels, func() int64 {
			m0, m1 := p.match0Bits.Load(), p.match1Bits.Load()
			if m0+m1 == 0 {
				return 0
			}
			return int64(float64(m0) / float64(m0+m1) * 1e6)
		})
	reg.CounterFunc("caped_pmu_ucode_lookups_total",
		"Compiled-program (microcode template) cache lookups, by result.",
		with(metrics.Labels{"result": "hit"}), p.ucodeHits.Load)
	reg.CounterFunc("caped_pmu_ucode_lookups_total",
		"Compiled-program (microcode template) cache lookups, by result.",
		with(metrics.Labels{"result": "miss"}), p.ucodeMisses.Load)
	reg.CounterFunc("caped_pmu_hbm_transfers_total",
		"Vector memory transfers issued to the HBM model.", labels, p.hbmTransfers.Load)
	reg.CounterFunc("caped_pmu_hbm_bytes_total",
		"Bytes moved by vector memory transfers.", labels, p.hbmBytes.Load)
	reg.CounterFunc("caped_pmu_vector_insts_total",
		"Vector instructions issued, by pipe.",
		with(metrics.Labels{"pipe": "alu"}), p.vectorALU.Load)
	reg.CounterFunc("caped_pmu_vector_insts_total",
		"Vector instructions issued, by pipe.",
		with(metrics.Labels{"pipe": "mem"}), p.vectorMem.Load)
}
