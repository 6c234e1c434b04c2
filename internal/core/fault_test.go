package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"cape/internal/cp"
	"cape/internal/fault"
)

// faultCfg builds a small bit-level config with the given fault
// schedule.
func faultCfg(fc fault.Config) Config {
	cfg := CAPE32k()
	cfg.Chains = 4
	cfg.Backend = BackendBitLevel
	cfg.RAMBytes = 1 << 20
	cfg.Faults = fc
	return cfg
}

// runCtx runs the probe under RunContext, converting fault panics to
// errors the way server.Exec does.
func runCtx(m *Machine) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok && errors.Is(e, fault.ErrInjected) {
				err = e
				return
			}
			panic(p)
		}
	}()
	return m.RunContext(context.Background(), resetProbe())
}

// TestHBMLateBitIdentical: late transfers add simulated time but the
// completed run stays bit-identical to a fault-free one — injection
// never corrupts architectural state.
func TestHBMLateBitIdentical(t *testing.T) {
	clean, cleanMem := runProbe(t, small(BackendBitLevel))

	m := New(faultCfg(fault.Config{Seed: 11, HBMLateProb: 1, HBMLateNS: 300}))
	words := make([]uint32, 96)
	for i := range words {
		words[i] = uint32(3 * i)
	}
	m.RAM().WriteWords(0x1000, words)
	res, err := runCtx(m)
	if err != nil {
		t.Fatalf("late transfers must not fail the run: %v", err)
	}
	if got := m.RAM().ReadWords(0x2000, 96); !slices.Equal(got, cleanMem) {
		t.Fatal("memory diverged under hbm-late injection")
	}
	// Architectural progress is identical; only modeled time grows.
	if res.CP.ScalarInsts != clean.CP.ScalarInsts || res.CP.VectorInsts != clean.CP.VectorInsts ||
		res.CP.Branches != clean.CP.Branches {
		t.Fatalf("instruction counts diverged: %+v vs %+v", res.CP, clean.CP)
	}
	if res.CP.Cycles <= clean.CP.Cycles {
		t.Fatalf("late transfers added no time: %d vs %d cycles", res.CP.Cycles, clean.CP.Cycles)
	}
	if got := m.FaultInjector().Count(fault.ClassHBMLate); got == 0 {
		t.Fatal("no late faults counted with probability 1")
	}
}

// TestHBMDropTyped: a dropped transfer surfaces as a typed transient
// fault error.
func TestHBMDropTyped(t *testing.T) {
	m := New(faultCfg(fault.Config{Seed: 5, HBMDropProb: 1}))
	_, err := runCtx(m)
	if err == nil {
		t.Fatal("dropped transfer did not fail the run")
	}
	if cls, ok := fault.ClassOf(err); !ok || cls != fault.ClassHBMDrop {
		t.Fatalf("ClassOf = %v,%v, want hbm_drop", cls, ok)
	}
	if !fault.IsTransient(err) {
		t.Fatal("hbm_drop not transient")
	}
}

// TestBudgetStorm: a storm collapses the attempt's budget to the floor
// (surfacing cp.ErrBudgetExceeded) and the disarm restores the
// original budget for the next attempt.
func TestBudgetStorm(t *testing.T) {
	m := New(faultCfg(fault.Config{Seed: 2, BudgetStormProb: 1, BudgetStormFloor: 8}))
	before := m.CP().MaxInsts()
	_, err := m.RunContext(context.Background(), resetProbe())
	if !errors.Is(err, cp.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if got := m.CP().MaxInsts(); got != before {
		t.Fatalf("budget not restored after attempt: %d, want %d", got, before)
	}
	if fault.IsTransient(err) {
		t.Fatal("budget exhaustion must not be retryable")
	}
}

// TestStuckTagThroughMachine: the CSB-armed stuck tag fires through
// the full machine path and is gated off the fast backend.
func TestStuckTagThroughMachine(t *testing.T) {
	m := New(faultCfg(fault.Config{Seed: 3, StuckTagProb: 1}))
	_, err := runCtx(m)
	if cls, ok := fault.ClassOf(err); !ok || cls != fault.ClassStuckTag {
		t.Fatalf("bit-level: err = %v, want stuck_tag", err)
	}

	cfg := faultCfg(fault.Config{Seed: 3, StuckTagProb: 1})
	cfg.Backend = BackendFast
	mf := New(cfg)
	if _, err := runCtx(mf); err != nil {
		t.Fatalf("fast backend has no subarrays to be defective, got %v", err)
	}
}

// TestFaultDeterminism: two machines with the same seed see the same
// fault schedule; retry attempts on one machine see fresh draws.
func TestFaultDeterminism(t *testing.T) {
	fc := fault.Config{Seed: 9, HBMDropProb: 0.5}
	runSchedule := func() []bool {
		m := New(faultCfg(fc))
		var outcomes []bool
		for a := 0; a < 8; a++ {
			m.Reset()
			_, err := runCtx(m)
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := runSchedule(), runSchedule()
	if !slices.Equal(a, b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if !slices.Contains(a, true) || !slices.Contains(a, false) {
		t.Fatalf("p=0.5 schedule over 8 attempts did not mix outcomes: %v", a)
	}
}

// TestSharedParentInjector: machines built from one parent injector
// draw distinct streams but report into shared counters.
func TestSharedParentInjector(t *testing.T) {
	parent := fault.New(fault.Config{Seed: 4, HBMLateProb: 1, HBMLateNS: 100})
	cfg := faultCfg(fault.Config{})
	cfg.FaultInjector = parent
	m1, m2 := New(cfg), New(cfg)
	if m1.FaultInjector() == nil || m2.FaultInjector() == nil {
		t.Fatal("FaultInjector not derived from parent")
	}
	if _, err := runCtx(m1); err != nil {
		t.Fatal(err)
	}
	if _, err := runCtx(m2); err != nil {
		t.Fatal(err)
	}
	if got := parent.Count(fault.ClassHBMLate); got == 0 {
		t.Fatal("parent counters not shared with machine children")
	}
}
