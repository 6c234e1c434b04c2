package csb

import (
	"testing"
	"time"

	"cape/internal/telemetry"
)

// TestCountersOnOverheadGuard is the CI gate on the always-on perf
// counters: Run with a PMU attached must stay within 3% of Run with no
// PMU, at the paper's CAPE32k
// chain count. The PMU flush is amortized per microcode run (one
// Stats diff plus a handful of atomic adds), so the cost is fixed per
// run regardless of microop count; minimum-of-N timing with retries
// damps scheduler noise, and a persistent regression past the bound
// fails. The capebench telemetry experiment tracks the same ratio
// with a looser floor in testdata/bench_baseline.json.
func TestCountersOnOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	const (
		chains  = 1024 // CAPE32k
		batches = 4    // vadd sequences per measured repetition
		reps    = 8
		bound   = 1.03
		retries = 3
	)
	ops := vaddOps(32)
	off := New(chains)
	on := New(chains)
	on.SetPMU(&telemetry.PMU{})

	run := func(c *CSB) time.Duration {
		return measure(reps, func() {
			for b := 0; b < batches; b++ {
				c.Run(ops)
			}
		})
	}

	var ratio float64
	for attempt := 0; attempt < retries; attempt++ {
		// Interleave and alternate order so frequency scaling and cache
		// warmth cut both ways.
		var offT, onT time.Duration
		if attempt%2 == 0 {
			offT = run(off)
			onT = run(on)
		} else {
			onT = run(on)
			offT = run(off)
		}
		ratio = float64(onT) / float64(offT)
		t.Logf("attempt %d: no-PMU %v, PMU-attached %v, ratio %.4f", attempt, offT, onT, ratio)
		if ratio <= bound {
			return
		}
	}
	t.Fatalf("counters-on Run is %.2f%% slower than counters-off (bound %.0f%%)",
		(ratio-1)*100, (bound-1)*100)
}
