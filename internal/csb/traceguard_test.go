package csb

import (
	"testing"
	"time"

	"cape/internal/isa"
	"cape/internal/obs"
	"cape/internal/tt"
)

// vaddOps returns the vadd.vv microcode the guard measures — the same
// kernel the CI overhead gate and EXPERIMENTS.md use.
func vaddOps(sew int) []tt.MicroOp {
	ops, err := tt.GenerateSEW(isa.OpVADD_VV, 3, 1, 2, 0, sew)
	if err != nil {
		panic(err)
	}
	return ops
}

// runSeedLoop replays the pre-observability Run body exactly: the
// plain serial loop over executeSerial with no recorder test at all.
// executeSerial/executeRange/account are the untouched seed functions,
// so this is a faithful in-process baseline.
func runSeedLoop(c *CSB, ops []tt.MicroOp) int {
	for i := range ops {
		c.executeSerial(&ops[i])
	}
	return tt.Cost(ops)
}

// measure returns the minimum time of reps executions of f over the
// microcode sequence, interleaving is the caller's job.
func measure(reps int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// TestTraceDisabledOverheadGuard is the CI gate on the disabled-tracer
// cost: Run with a nil recorder must stay within 3% of the seed's
// serial loop on the vadd kernel. Minimum-of-N timing with retries
// damps scheduler noise; a persistent regression past the bound fails.
func TestTraceDisabledOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	const (
		chains  = 64
		batches = 24 // vadd sequences per measured repetition
		reps    = 8
		bound   = 1.03
		retries = 3
	)
	ops := vaddOps(32)
	base := New(chains)
	inst := New(chains)
	if inst.rec != nil {
		t.Fatal("fresh CSB must have no recorder")
	}

	run := func(c *CSB, exec func(*CSB, []tt.MicroOp) int) time.Duration {
		return measure(reps, func() {
			for b := 0; b < batches; b++ {
				exec(c, ops)
			}
		})
	}
	seedExec := func(c *CSB, ops []tt.MicroOp) int { return runSeedLoop(c, ops) }
	newExec := func(c *CSB, ops []tt.MicroOp) int { return c.Run(ops) }

	var ratio float64
	for attempt := 0; attempt < retries; attempt++ {
		// Interleave and alternate order so frequency scaling and cache
		// warmth cut both ways.
		var seedT, newT time.Duration
		if attempt%2 == 0 {
			seedT = run(base, seedExec)
			newT = run(inst, newExec)
		} else {
			newT = run(inst, newExec)
			seedT = run(base, seedExec)
		}
		ratio = float64(newT) / float64(seedT)
		t.Logf("attempt %d: seed %v, nil-recorder Run %v, ratio %.4f", attempt, seedT, newT, ratio)
		if ratio <= bound {
			return
		}
	}
	t.Fatalf("tracing-disabled Run is %.2f%% slower than the seed loop (bound %.0f%%)",
		(ratio-1)*100, (bound-1)*100)
}

// TestTracedRunMatchesSerial: enabling the recorder must not change
// architectural state, stats, or the returned cycle cost, and a traced
// run records exactly one csb.run span.
func TestTracedRunMatchesSerial(t *testing.T) {
	ops := vaddOps(32)
	plain := New(8)
	traced := New(8)
	rec := obs.New(1)
	traced.SetRecorder(rec)

	for e := 0; e < plain.MaxVL(); e++ {
		v1, v2 := uint32(e*7+1), uint32(1000-e)
		for _, c := range []*CSB{plain, traced} {
			c.WriteElement(1, e, v1)
			c.WriteElement(2, e, v2)
		}
	}
	want := plain.Run(ops)
	if got := traced.Run(ops); got != want {
		t.Fatalf("cycle cost %d != %d", got, want)
	}
	if traced.StateDigest() != plain.StateDigest() {
		t.Fatal("state digest diverged under tracing")
	}
	if traced.Stats != plain.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", traced.Stats, plain.Stats)
	}
	ev := rec.Events()
	if len(ev) != 1 || ev[0].Name != "csb.run" || ev[0].Val != int64(len(ops)) {
		t.Fatalf("traced run events: %+v, want one csb.run span over %d microops", ev, len(ops))
	}
}
