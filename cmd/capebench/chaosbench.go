// The chaos experiment measures serving-path resilience under
// deterministic fault injection: for every fault class it runs a batch
// of jobs against an in-process caped server twice — resilience
// machinery disabled, then enabled — and reports availability, latency
// quantiles, retry counts, and bit-identity of every completed job
// against a fault-free reference. Results go to stdout as a table and
// to -chaos-out as BENCH_chaos.json so CI can track availability under
// each fault class.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"cape/internal/cp"
	"cape/internal/fault"
	"cape/internal/metrics"
	"cape/internal/server"
)

var chaosOut = flag.String("chaos-out", "BENCH_chaos.json", "output path for the chaos JSON report")

// chaosSeed fixes every scenario's fault schedule so the experiment is
// reproducible run to run.
const chaosSeed = 0xC0FFEE

// chaosJobs is the batch size per (scenario, resilience) cell.
const chaosJobs = 20

// chaosKernel is the probe program: a vector load and store expose HBM
// faults, the ALU body keeps every CSB fault class inside the
// per-attempt fire window, and the dump range enables bit-identity
// checks on completed jobs.
const chaosKernel = `
	li      x1, 64
	vsetvli x2, x1, e32
	li      x10, 0x1000
	li      x11, 3
	vle32.v v1, (x10)
	vadd.vx v2, v1, x11
	vmul.vv v3, v2, v2
	vadd.vv v4, v3, v1
	vsll.vi v5, v4, 1
	vadd.vv v3, v3, v5
	vse32.v v3, (x10)
	halt
`

// chaosLatencyBuckets resolve sub-millisecond in-process latencies that
// DefLatencyBuckets (sized for network serving) would flatten.
var chaosLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// chaosScenario is one fault class under test.
type chaosScenario struct {
	name string
	cfg  fault.Config
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{"none", fault.Config{}},
		{"hbm-late", fault.Config{Seed: chaosSeed, HBMLateProb: 0.5}},
		{"hbm-drop", fault.Config{Seed: chaosSeed, HBMDropProb: 0.25}},
		{"stuck-tag", fault.Config{Seed: chaosSeed, StuckTagProb: 0.3}},
		{"budget-storm", fault.Config{Seed: chaosSeed, BudgetStormProb: 1, BudgetStormFloor: 8}},
	}
}

// chaosEntry is one (scenario, resilience) cell.
type chaosEntry struct {
	Scenario     string            `json:"scenario"`
	Resilience   bool              `json:"resilience"`
	Jobs         int               `json:"jobs"`
	Succeeded    int               `json:"succeeded"`
	Availability float64           `json:"availability"`
	P50MS        float64           `json:"p50_ms"`
	P99MS        float64           `json:"p99_ms"`
	Retries      uint64            `json:"retries"`
	Faults       map[string]uint64 `json:"faults_injected,omitempty"`
	Statuses     map[string]int    `json:"statuses"`
	BitIdentical bool              `json:"bit_identical"`
}

// chaosBenchReport is the BENCH_chaos.json payload.
type chaosBenchReport struct {
	Seed    uint64       `json:"seed"`
	Jobs    int          `json:"jobs_per_cell"`
	Entries []chaosEntry `json:"entries"`
}

func (r chaosBenchReport) String() string {
	out := fmt.Sprintf("Fault injection vs. serving resilience (seed %#x, %d jobs per cell)\n",
		r.Seed, r.Jobs)
	out += fmt.Sprintf("%-13s %-10s %6s %8s %8s %8s %8s %5s\n",
		"scenario", "resilience", "ok", "avail", "p50 ms", "p99 ms", "retries", "bit=")
	for _, e := range r.Entries {
		mode := "off"
		if e.Resilience {
			mode = "on"
		}
		out += fmt.Sprintf("%-13s %-10s %3d/%-3d %7.0f%% %8.2f %8.2f %8d %5v\n",
			e.Scenario, mode, e.Succeeded, e.Jobs, 100*e.Availability,
			e.P50MS, e.P99MS, e.Retries, e.BitIdentical)
	}
	return out
}

// chaosStatus classifies a Submit error the way caped's job log does.
func chaosStatus(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, cp.ErrBudgetExceeded):
		return "budget_exceeded"
	case errors.Is(err, cp.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return "timeout"
	case errors.Is(err, server.ErrBreakerOpen):
		return "breaker_open"
	case errors.Is(err, fault.ErrInjected):
		return "fault"
	default:
		return "error"
	}
}

func chaosRequest() server.Request {
	return server.Request{
		Source:  chaosKernel,
		Name:    "chaos-probe",
		Chains:  64,
		Backend: "bitlevel",
		Dump:    &server.DumpSpec{Addr: 0x1000, Words: 64},
	}
}

// chaosOptions builds a single-worker server so the fault schedule is a
// deterministic function of the scenario seed. Resilience off disables
// retries and the breaker — an attempt failure is a job failure.
func chaosOptions(fc fault.Config, resilience bool) server.Options {
	o := server.Options{
		Workers:           1,
		MachinesPerConfig: 1,
		RAMBytes:          1 << 20,
		Faults:            fc,
		Registry:          metrics.NewRegistry(),
	}
	if resilience {
		o.Retries = 8
		o.RetryBaseDelay = 200 * time.Microsecond
		o.RetryMaxDelay = 2 * time.Millisecond
	} else {
		o.Retries = -1
		o.BreakerThreshold = -1
	}
	return o
}

// runChaosCell drives one batch of jobs and summarizes the cell.
func runChaosCell(sc chaosScenario, resilience bool, want []uint32) (chaosEntry, error) {
	s := server.New(chaosOptions(sc.cfg, resilience))
	defer s.Close()
	lat := metrics.NewRegistry().Histogram("chaos_latency_seconds", "",
		chaosLatencyBuckets, nil)
	e := chaosEntry{
		Scenario:   sc.name,
		Resilience: resilience,
		Jobs:       chaosJobs,
		Statuses:   map[string]int{},
		// Vacuously true until a completed job diverges.
		BitIdentical: true,
	}
	for i := 0; i < chaosJobs; i++ {
		start := time.Now()
		resp, err := s.Submit(context.Background(), chaosRequest())
		lat.Observe(time.Since(start).Seconds())
		st := chaosStatus(err)
		e.Statuses[st]++
		if st == "error" {
			// A fault class must surface as a typed error, never an
			// untyped one: that would defeat the resilience layer.
			return e, fmt.Errorf("chaos: %s: untyped job error: %v", sc.name, err)
		}
		if err != nil {
			continue
		}
		e.Succeeded++
		if !slices.Equal(resp.Memory, want) {
			e.BitIdentical = false
		}
	}
	e.Availability = float64(e.Succeeded) / float64(e.Jobs)
	e.P50MS = 1000 * lat.Quantile(0.50)
	e.P99MS = 1000 * lat.Quantile(0.99)
	e.Retries = s.RetryCount()
	counts := s.FaultCounts()
	for c := fault.Class(0); c < fault.NumClasses; c++ {
		if counts[c] > 0 {
			if e.Faults == nil {
				e.Faults = map[string]uint64{}
			}
			e.Faults[c.String()] = counts[c]
		}
	}
	return e, nil
}

// chaosBench runs the experiment and writes the JSON report.
func chaosBench() (fmt.Stringer, error) {
	// Fault-free reference for bit-identity: injection may delay or kill
	// attempts but must never corrupt a completed job.
	ref := server.New(chaosOptions(fault.Config{}, true))
	refResp, err := ref.Submit(context.Background(), chaosRequest())
	ref.Close()
	if err != nil {
		return nil, fmt.Errorf("chaos: fault-free reference: %w", err)
	}

	report := chaosBenchReport{Seed: chaosSeed, Jobs: chaosJobs}
	for _, sc := range chaosScenarios() {
		for _, resilience := range []bool{false, true} {
			e, err := runChaosCell(sc, resilience, refResp.Memory)
			if err != nil {
				return nil, err
			}
			if !e.BitIdentical {
				return nil, fmt.Errorf("chaos: %s (resilience=%v): a completed job diverged from the fault-free run",
					sc.name, resilience)
			}
			report.Entries = append(report.Entries, e)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(*chaosOut, append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("chaos: writing %s: %w", *chaosOut, err)
	}
	return report, nil
}
