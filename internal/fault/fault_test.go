package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// TestDisabledConfig: the zero config builds a nil injector whose
// nil-safe methods all report "no fault".
func TestDisabledConfig(t *testing.T) {
	var cfg Config
	if cfg.Enabled() {
		t.Fatal("zero Config reports Enabled")
	}
	if got := New(cfg); got != nil {
		t.Fatalf("New(zero) = %v, want nil", got)
	}
	var i *Injector
	if i.Child() != nil {
		t.Error("nil.Child() != nil")
	}
	p := i.PlanAttempt(true)
	if p.StuckTagRun != -1 || p.BudgetFloor != 0 {
		t.Errorf("nil.PlanAttempt = %+v, want all-disabled", p)
	}
	if i.HBMLatePS() != 0 || i.HBMDrop() {
		t.Error("nil injector drew an HBM fault")
	}
	if i.Count(ClassStuckTag) != 0 {
		t.Error("nil.Count != 0")
	}
	if cfg.Key() != "off" {
		t.Errorf("zero Key = %q, want off", cfg.Key())
	}
}

// TestDeterminism: identical seeds and call sequences yield identical
// fault schedules; a different seed yields a different one.
func TestDeterminism(t *testing.T) {
	cfg := Config{
		Seed:         7,
		StuckTagProb: 0.3, HBMLateProb: 0.4, HBMDropProb: 0.2,
		BudgetStormProb: 0.2,
	}
	draw := func(seed uint64) string {
		c := cfg
		c.Seed = seed
		inj := New(c).Child()
		out := ""
		for n := 0; n < 64; n++ {
			p := inj.PlanAttempt(true)
			out += fmt.Sprintf("%d/%d/%d/%v;",
				p.StuckTagRun, p.BudgetFloor, inj.HBMLatePS(), inj.HBMDrop())
		}
		return out
	}
	a, b := draw(7), draw(7)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if c := draw(8); c == a {
		t.Fatal("different seeds drew identical schedules")
	}
}

// TestSeededSchedulePinned pins one seeded schedule across all classes
// to a digest, so a change to the draw order (adding or removing a
// class) cannot silently reshuffle existing chaos runs.
func TestSeededSchedulePinned(t *testing.T) {
	inj := New(Config{
		Seed:         7,
		StuckTagProb: 0.3, HBMLateProb: 0.4, HBMDropProb: 0.2,
		BudgetStormProb: 0.2,
	}).Child()
	h := fnv.New64a()
	for n := 0; n < 256; n++ {
		p := inj.PlanAttempt(n%3 != 0)
		fmt.Fprintf(h, "%d/%d/%d/%v;", p.StuckTagRun, p.BudgetFloor, inj.HBMLatePS(), inj.HBMDrop())
	}
	ch, sub := inj.PickSite(1024, 32)
	fmt.Fprintf(h, "%d/%d", ch, sub)
	if got, want := h.Sum64(), uint64(0x9cbd185d5acd813a); got != want {
		t.Fatalf("seeded schedule digest %#x, want %#x", got, want)
	}
	if got, want := inj.Counts(), [NumClasses]uint64{58, 97, 51, 55}; got != want {
		t.Fatalf("counts %v, want %v", got, want)
	}
}

// TestChildStreams: children drawn from one parent get distinct
// streams but share counters.
func TestChildStreams(t *testing.T) {
	parent := New(Config{Seed: 1, HBMLateProb: 1})
	c1, c2 := parent.Child(), parent.Child()
	if c1.HBMLatePS() == c2.HBMLatePS() {
		t.Error("sibling children drew identical latencies")
	}
	if got := parent.Count(ClassHBMLate); got != 2 {
		t.Errorf("shared count = %d, want 2", got)
	}
	// Rebuilding the same family reproduces the same streams.
	parent2 := New(Config{Seed: 1, HBMLateProb: 1})
	d1 := parent2.Child()
	d1.HBMLatePS() // consume the same draw c1 made
	parent3 := New(Config{Seed: 1, HBMLateProb: 1})
	e1 := parent3.Child()
	if e1.HBMLatePS() == 0 {
		t.Error("prob=1 late draw returned 0")
	}
}

// TestPlanAttemptGating: CSB-resident classes never fire on the fast
// backend; probability-1 classes always fire on the bit backend.
func TestPlanAttemptGating(t *testing.T) {
	inj := New(Config{Seed: 3, StuckTagProb: 1, BudgetStormProb: 1}).Child()
	p := inj.PlanAttempt(false)
	if p.StuckTagRun != -1 {
		t.Errorf("fast-backend plan armed CSB faults: %+v", p)
	}
	if p.BudgetFloor != 10_000 {
		t.Errorf("BudgetFloor = %d, want default 10000", p.BudgetFloor)
	}
	p = inj.PlanAttempt(true)
	if p.StuckTagRun < 0 || p.StuckTagRun >= attemptFireWindow {
		t.Errorf("StuckTagRun = %d, want [0,%d)", p.StuckTagRun, attemptFireWindow)
	}
	counts := inj.Counts()
	if counts[ClassStuckTag] != 1 || counts[ClassBudgetStorm] != 2 {
		t.Errorf("counts = %v", counts)
	}
}

// TestParseSpecRoundTrip: String() output re-parses to the same config.
func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"off",
		"seed=7,stuck=0.1",
		"seed=0x10,hbm-late=0.25,hbm-late-ns=500,hbm-drop=0.05",
		"seed=9,budget-storm=0.125,budget-floor=20000",
		"seed=1,stuck=0.1,hbm-late=0.3,hbm-drop=0.05,budget-storm=0.05",
	}
	for _, s := range specs {
		cfg, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		cfg2, err := ParseSpec(cfg.String())
		if err != nil {
			t.Fatalf("re-ParseSpec(%q): %v", cfg.String(), err)
		}
		if cfg != cfg2 {
			t.Errorf("round trip %q: %+v != %+v", s, cfg, cfg2)
		}
	}
	// Defaults fill in.
	cfg, err := ParseSpec("seed=2,hbm-late=0.5,budget-storm=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HBMLateNS != 400 || cfg.BudgetStormFloor != 10_000 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

// TestParseSpecErrors: malformed specs are rejected.
func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"stuck",           // no value
		"stuck=2",         // prob out of range
		"stuck=-0.5",      // negative prob
		"stuck=x",         // non-numeric
		"seed=no",         // bad seed
		"hbm-late-ns=-1",  // negative latency
		"budget-floor=-1", // negative floor
		"unknown=1",       // unknown key
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
	// An unknown key's error names it and lists the valid ones.
	_, err := ParseSpec("seed=1,worker-panic=0.1")
	want := `unknown spec key "worker-panic" (known: budget-floor, budget-storm, hbm-drop, hbm-late, hbm-late-ns, seed, stuck)`
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ParseSpec(worker-panic) error = %v, want %q", err, want)
	}
}

// TestErrorTyping: injected errors match ErrInjected, expose their
// class, and classify transience correctly.
func TestErrorTyping(t *testing.T) {
	err := Errorf(ClassStuckTag, "chain %d subarray %d", 3, 1)
	if !errors.Is(err, ErrInjected) {
		t.Error("stuck-tag error does not match ErrInjected")
	}
	if cls, ok := ClassOf(err); !ok || cls != ClassStuckTag {
		t.Errorf("ClassOf = %v,%v", cls, ok)
	}
	wrapped := fmt.Errorf("run: %w", err)
	if cls, ok := ClassOf(wrapped); !ok || cls != ClassStuckTag {
		t.Errorf("ClassOf(wrapped) = %v,%v", cls, ok)
	}
	if !IsTransient(wrapped) {
		t.Error("stuck tag not transient")
	}
	if IsTransient(Errorf(ClassHBMLate, "x")) {
		t.Error("hbm_late classified transient (it never errors)")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error classified transient")
	}
	if cls, ok := ClassOf(errors.New("plain")); ok {
		t.Errorf("ClassOf(plain) = %v, want !ok", cls)
	}
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == "class?" {
			t.Errorf("class %d has no name", c)
		}
	}
}
