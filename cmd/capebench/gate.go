// The -check-against regression gate: a baseline JSON file records the
// minimum expected speedups of the throughput experiments, and the gate
// fails the run (exit 1) when any measured speedup falls more than the
// baseline's tolerance below its floor.
// The committed baseline (testdata/bench_baseline.json) holds
// conservative floors measured on a 2-CPU CI runner; see EXPERIMENTS.md
// for the regeneration recipe.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchBaseline is the -check-against file format. Keys of Ucode are
// "stream_speedup" and "e2e_speedup". Values are speedup floors; the
// gate fails when a measurement drops below floor*(1-tolerance).
type benchBaseline struct {
	Note      string             `json:"note,omitempty"`
	Tolerance float64            `json:"tolerance"`
	Ucode     map[string]float64 `json:"ucode,omitempty"`
	// Query keys are scenario names (e.g. "rel.select") matching
	// queryBenchEntry; values are modeled-speedup floors vs the OoO
	// baseline. Both sides are modeled, so the numbers are
	// deterministic across hosts.
	Query map[string]float64 `json:"query,omitempty"`
	// Bitslice keys are "<config>/<inst>" (e.g. "CAPE131k/vmul.vv")
	// matching bitsliceBenchEntry; values are bit-slice engine speedup
	// floors vs the scalar reference engine.
	Bitslice map[string]float64 `json:"bitslice,omitempty"`
	// Telemetry keys are "counters_ratio" (worst off/on throughput
	// ratio across telemetryCounterEntry; 1.0 = counters free) and
	// "flight_meps" (single-writer flight-recorder millions of events
	// per second). Values are floors.
	Telemetry map[string]float64 `json:"telemetry,omitempty"`
	// Asm keys are "cache_speedup" (hand-scheduled program) and
	// "kernel_cache_speedup" (.kernel DSL program): compiled-program
	// cache hit vs. cold staged compile.
	Asm map[string]float64 `json:"asm,omitempty"`
	// Cluster keys are "speedup_2w" and "speedup_4w": aggregate
	// coordinator throughput at 2/4 workers relative to 1 worker.
	Cluster map[string]float64 `json:"cluster,omitempty"`
}

// checkBaseline compares this run's experiment results against the
// baseline file. Baseline sections whose experiment did not run are an
// error: a gate that silently checks nothing would read as green.
func checkBaseline(path string, results map[string]fmt.Stringer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bl benchBaseline
	if err := json.Unmarshal(data, &bl); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	tol := bl.Tolerance
	if tol <= 0 {
		tol = 0.15
	}

	var failures []string
	checked := 0
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	check := func(name string, got, floor float64) {
		checked++
		if got < floor*(1-tol) {
			fail("%s: speedup %.2fx is below floor %.2fx - %.0f%% tolerance",
				name, got, floor, 100*tol)
		}
	}
	// gateSection checks one experiment's measurements against its
	// floors, in both directions: a floor whose scenario was not
	// measured fails, and a measured scenario with no floor in the
	// baseline fails too — an unfloored measurement would silently pass
	// forever, so the gate demands the baseline be extended instead.
	gateSection := func(section string, floors, cur map[string]float64) {
		keys := make([]string, 0, len(floors))
		for k := range floors {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			got, ok := cur[k]
			if !ok {
				fail("%s: baseline key %q was not measured", section, k)
				continue
			}
			check(section+" "+k, got, floors[k])
		}
		missing := make([]string, 0)
		for k := range cur {
			if _, ok := floors[k]; !ok {
				missing = append(missing, k)
			}
		}
		sort.Strings(missing)
		for _, k := range missing {
			fail("%s: measured %q (%.2fx) has no floor in the baseline — add a %q entry to %s",
				section, k, cur[k], section, path)
		}
	}

	// notRun records a floored section whose experiment was skipped —
	// as a failure, not an early return, so one missing experiment
	// doesn't mask every other floor miss in the run.
	notRun := func(section string) {
		fail("baseline has %s floors but the experiment did not run (add -exp %s)", section, section)
	}

	if len(bl.Ucode) > 0 {
		if r, ok := results["ucode"].(ucodeBenchReport); ok {
			cur := map[string]float64{"stream_speedup": r.StreamSpeedup}
			if len(r.EndToEnd) > 0 {
				cur["e2e_speedup"] = r.EndToEnd[0].Speedup
			}
			gateSection("ucode", bl.Ucode, cur)
		} else {
			notRun("ucode")
		}
	}

	if len(bl.Query) > 0 {
		if r, ok := results["query"].(queryBenchReport); ok {
			cur := map[string]float64{}
			for _, e := range r.Entries {
				cur[e.Scenario] = e.Speedup
			}
			gateSection("query", bl.Query, cur)
		} else {
			notRun("query")
		}
	}

	if len(bl.Bitslice) > 0 {
		if r, ok := results["bitslice"].(bitsliceBenchReport); ok {
			cur := map[string]float64{}
			for _, e := range r.Entries {
				cur[e.Config+"/"+e.Inst] = e.Speedup
			}
			gateSection("bitslice", bl.Bitslice, cur)
		} else {
			notRun("bitslice")
		}
	}

	if len(bl.Telemetry) > 0 {
		if r, ok := results["telemetry"].(telemetryBenchReport); ok {
			cur := map[string]float64{
				"counters_ratio": r.CountersRatio,
				"flight_meps":    r.FlightMEPS,
			}
			gateSection("telemetry", bl.Telemetry, cur)
		} else {
			notRun("telemetry")
		}
	}

	if len(bl.Asm) > 0 {
		if r, ok := results["asm"].(asmBenchReport); ok {
			gateSection("asm", bl.Asm, r.gateEntries())
		} else {
			notRun("asm")
		}
	}

	if len(bl.Cluster) > 0 {
		if r, ok := results["cluster"].(clusterBenchReport); ok {
			gateSection("cluster", bl.Cluster, r.gateEntries())
		} else {
			notRun("cluster")
		}
	}

	if checked == 0 && len(failures) == 0 {
		return fmt.Errorf("%s gates nothing (no ucode, query, bitslice, telemetry, asm or cluster floors)", path)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d failures (%d floor checks ran):\n  %s",
			len(failures), checked, strings.Join(failures, "\n  "))
	}
	fmt.Printf("[%d baseline checks passed, tolerance %.0f%%]\n", checked, 100*tol)
	return nil
}
