// Command capebench regenerates the paper's tables and figures from
// the simulator (the experiment index is DESIGN.md §4; measured-vs-
// paper comparisons are recorded in EXPERIMENTS.md).
//
// Usage:
//
//	capebench -list
//	capebench -exp tableI,tableII,fig11
//	capebench -exp all          (runs everything; minutes of CPU)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"cape/internal/report"
	"cape/internal/workloads"
)

type experiment struct {
	name string
	desc string
	run  func() (fmt.Stringer, error)
}

func experiments() []experiment {
	// Phoenix/micro measurements are shared between figures; memoize.
	var phoenixMs, microMs []report.Measurement
	phoenix := func() ([]report.Measurement, error) {
		if phoenixMs == nil {
			ms, err := report.MeasureSuite(workloads.Phoenix())
			if err != nil {
				return nil, err
			}
			phoenixMs = ms
		}
		return phoenixMs, nil
	}
	micro := func() ([]report.Measurement, error) {
		if microMs == nil {
			ms, err := report.MeasureSuite(workloads.Micro())
			if err != nil {
				return nil, err
			}
			microMs = ms
		}
		return microMs, nil
	}

	return []experiment{
		{"tableI", "per-instruction cycles/energy vs the associative emulator", func() (fmt.Stringer, error) {
			return report.TableI()
		}},
		{"tableII", "microoperation delay/energy constants", func() (fmt.Stringer, error) {
			return report.TableII(), nil
		}},
		{"tableIII", "experimental setup", func() (fmt.Stringer, error) {
			return report.TableIII(), nil
		}},
		{"fig8", "chain layout / area model", func() (fmt.Stringer, error) {
			return report.Fig8(), nil
		}},
		{"fig9", "microbenchmark speedups", func() (fmt.Stringer, error) {
			ms, err := micro()
			if err != nil {
				return nil, err
			}
			return report.SpeedupTable("Fig. 9 — microbenchmark speedups (set inferred; see DESIGN.md §5)", ms), nil
		}},
		{"fig10", "roofline of the Phoenix applications", func() (fmt.Stringer, error) {
			ms, err := phoenix()
			if err != nil {
				return nil, err
			}
			return report.Fig10(ms), nil
		}},
		{"fig11", "Phoenix application speedups (area-equivalent)", func() (fmt.Stringer, error) {
			ms, err := phoenix()
			if err != nil {
				return nil, err
			}
			return report.SpeedupTable("Fig. 11 — Phoenix speedups", ms), nil
		}},
		{"fig12", "SVE-style SIMD speedups over scalar", func() (fmt.Stringer, error) {
			return report.Fig12(workloads.Phoenix()), nil
		}},
		{"ucode", "compile-once microcode: cached vs. direct lowering (writes BENCH_ucode.json)", func() (fmt.Stringer, error) {
			return ucodeBench()
		}},
		{"bitslice", "bit-slice CSB executor vs. the scalar reference engine (writes BENCH_bitslice.json)", func() (fmt.Stringer, error) {
			return bitsliceBench()
		}},
		{"chaos", "fault injection vs. serving resilience (writes BENCH_chaos.json)", func() (fmt.Stringer, error) {
			return chaosBench()
		}},
		{"query", "content-addressable query engine vs. OoO software kernels (writes BENCH_query.json)", func() (fmt.Stringer, error) {
			return queryBench()
		}},
		{"telemetry", "always-on counter overhead and flight-recorder throughput (writes BENCH_telemetry.json)", func() (fmt.Stringer, error) {
			return telemetryBench()
		}},
		{"asm", "staged assembler pipeline: cold compile vs. program-cache hit (writes BENCH_asm.json)", func() (fmt.Stringer, error) {
			return asmBench()
		}},
		{"cluster", "coordinator/worker scale-out: aggregate throughput vs. node count (writes BENCH_cluster.json)", func() (fmt.Stringer, error) {
			return clusterBench()
		}},
		{"ablations", "design-choice ablations: vlrw.v, redsum-vs-add, narrow elements, CSB scaling", func() (fmt.Stringer, error) {
			vlrw, err := report.AblationReplicaLoad()
			if err != nil {
				return nil, err
			}
			scaling, err := report.AblationScaling()
			if err != nil {
				return nil, err
			}
			narrow, err := report.AblationNarrowElements()
			if err != nil {
				return nil, err
			}
			return multiTable{vlrw, report.AblationRedsum(), narrow, scaling}, nil
		}},
	}
}

// multiTable renders several tables as one experiment output.
type multiTable []fmt.Stringer

func (m multiTable) String() string {
	var out string
	for i, t := range m {
		if i > 0 {
			out += "\n"
		}
		out += t.String()
	}
	return out
}

func main() {
	var (
		list         = flag.Bool("list", false, "list experiments and exit")
		exps         = flag.String("exp", "all", "comma-separated experiment names, or 'all'")
		checkAgainst = flag.String("check-against", "", "baseline JSON of minimum speedups; exit 1 on regression past its tolerance")
	)
	flag.Parse()

	all := experiments()
	if *list {
		for _, e := range all {
			fmt.Printf("%-9s %s\n", e.name, e.desc)
		}
		return
	}

	want := map[string]bool{}
	if *exps != "all" {
		for _, n := range strings.Split(*exps, ",") {
			want[strings.TrimSpace(n)] = true
		}
		known := map[string]bool{}
		for _, e := range all {
			known[e.name] = true
		}
		var unknown []string
		for n := range want {
			if !known[n] {
				unknown = append(unknown, n)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "capebench: unknown experiments: %s (use -list)\n",
				strings.Join(unknown, ", "))
			os.Exit(1)
		}
	}

	results := map[string]fmt.Stringer{}
	for _, e := range all {
		if *exps != "all" && !want[e.name] {
			continue
		}
		start := time.Now()
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "capebench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		results[e.name] = out
		fmt.Println(out)
		fmt.Printf("[%s regenerated in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}

	if *checkAgainst != "" {
		if err := checkBaseline(*checkAgainst, results); err != nil {
			fmt.Fprintf(os.Stderr, "capebench: regression gate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[regression gate passed against %s]\n", *checkAgainst)
	}
}
