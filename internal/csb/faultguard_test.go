package csb

import (
	"errors"
	"testing"
	"time"

	"cape/internal/fault"
)

// TestFaultDisabledOverheadGuard is the CI gate on the disabled-fault
// cost: Run with no armed plan must stay within 3% of the seed's
// serial loop on the vadd kernel, exactly like the trace and ucode
// guards. The disarmed hot path is one nil check.
func TestFaultDisabledOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	const (
		chains  = 64
		batches = 24
		reps    = 8
		bound   = 1.03
		retries = 3
	)
	ops := vaddOps(32)
	base := New(chains)
	inst := New(chains)
	if inst.finj != nil {
		t.Fatal("fresh CSB must have no fault plan")
	}

	run := func(c *CSB, exec func(*CSB)) time.Duration {
		return measure(reps, func() {
			for b := 0; b < batches; b++ {
				exec(c)
			}
		})
	}
	seedExec := func(c *CSB) { runSeedLoop(c, ops) }
	newExec := func(c *CSB) { c.Run(ops) }

	var ratio float64
	for attempt := 0; attempt < retries; attempt++ {
		var seedT, newT time.Duration
		if attempt%2 == 0 {
			seedT = run(base, seedExec)
			newT = run(inst, newExec)
		} else {
			newT = run(inst, newExec)
			seedT = run(base, seedExec)
		}
		ratio = float64(newT) / float64(seedT)
		t.Logf("attempt %d: seed %v, disarmed Run %v, ratio %.4f", attempt, seedT, newT, ratio)
		if ratio <= bound {
			return
		}
	}
	t.Fatalf("fault-disabled Run is %.2f%% slower than the seed loop (bound %.0f%%)",
		(ratio-1)*100, (bound-1)*100)
}

// TestStuckTagFires: an armed stuck-tag plan panics with the typed
// fault error at exactly the planned run index, and disarming stops it.
func TestStuckTagFires(t *testing.T) {
	ops := vaddOps(32)
	c := New(8)
	inj := fault.New(fault.Config{Seed: 1, StuckTagProb: 1}).Child()
	c.ArmFaults(inj, 2)

	catching := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = p.(error)
			}
		}()
		c.Run(ops)
		return nil
	}
	for run := 0; run < 2; run++ {
		if err := catching(); err != nil {
			t.Fatalf("run %d fired early: %v", run, err)
		}
	}
	err := catching()
	if err == nil {
		t.Fatal("planned stuck tag did not fire")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("panic value %v does not match ErrInjected", err)
	}
	if cls, ok := fault.ClassOf(err); !ok || cls != fault.ClassStuckTag {
		t.Fatalf("ClassOf = %v,%v, want stuck_tag", cls, ok)
	}

	c.DisarmFaults()
	if err := catching(); err != nil {
		t.Fatalf("disarmed CSB still fired: %v", err)
	}
}
