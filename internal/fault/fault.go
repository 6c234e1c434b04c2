// Package fault implements deterministic, seedable fault injection
// for the CAPE simulator. Associative substrates are exposed to
// physical failure modes a cache-based core never sees — stuck tag
// bits in a subarray (the memristor aCAM line treats per-cell defects
// as a first-class concern), dropped or late memory transfers, and
// tenant storms that exhaust instruction budgets — and the serving
// layer must survive all of them. This package models those failure
// classes as draws from a seeded generator so that a fixed seed
// reproduces the exact same fault schedule run after run, which is
// what lets the chaos suite assert survival deterministically.
//
// The injector never corrupts architectural state silently: every
// injected fault either adds modeled latency (late transfers) or
// surfaces as a typed *Error (detected stuck bit, dropped transfer) or
// as a collapsed instruction budget
// (cp.ErrBudgetExceeded). Completed jobs are therefore always
// bit-identical to a fault-free run; resilience is about completing
// them anyway.
//
// Wiring: core.Config carries a Config (and, in the caped pool, a
// shared parent *Injector); each Machine derives a Child stream, plans
// one AttemptPlan per RunContext, and arms the CSB/VMU hooks with it.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Class identifies one injected fault category.
type Class uint8

const (
	// ClassStuckTag is a stuck tag bit in a CSB subarray, detected by
	// the chain controller's self-check when the faulty subarray is
	// searched (modeled after per-cell defect handling in associative
	// memories).
	ClassStuckTag Class = iota
	// ClassHBMLate is added HBM device latency on a VMU transfer.
	ClassHBMLate
	// ClassHBMDrop is a dropped VMU transfer (unrecoverable device
	// error on the sub-request stream).
	ClassHBMDrop
	// ClassBudgetStorm collapses the attempt's instruction budget,
	// modeling a tenant storm exhausting per-job budgets.
	ClassBudgetStorm

	// NumClasses is the number of distinct fault classes.
	NumClasses = 4
)

func (c Class) String() string {
	switch c {
	case ClassStuckTag:
		return "stuck_tag"
	case ClassHBMLate:
		return "hbm_late"
	case ClassHBMDrop:
		return "hbm_drop"
	case ClassBudgetStorm:
		return "budget_storm"
	}
	return "class?"
}

// Config describes one fault-injection schedule. The zero value
// disables injection entirely.
type Config struct {
	// Seed keys the deterministic generator; the same seed yields the
	// same fault schedule for the same call sequence.
	Seed uint64
	// StuckTagProb is the per-attempt probability that a stuck tag bit
	// manifests in one CSB subarray during the run.
	StuckTagProb float64
	// HBMLateProb is the per-transfer probability of added HBM latency.
	HBMLateProb float64
	// HBMLateNS is the mean added latency in nanoseconds for late
	// transfers (jittered 0.5x–1.5x; default 400 ns when late faults
	// are enabled without an explicit figure).
	HBMLateNS float64
	// HBMDropProb is the per-transfer probability that the transfer is
	// dropped, surfacing ClassHBMDrop.
	HBMDropProb float64
	// BudgetStormProb is the per-attempt probability of a budget
	// collapse.
	BudgetStormProb float64
	// BudgetStormFloor is the collapsed instruction budget (default
	// 10,000 when storms are enabled without an explicit floor).
	BudgetStormFloor int64
}

// Enabled reports whether any fault class can fire.
func (c Config) Enabled() bool {
	return c.StuckTagProb > 0 || c.HBMLateProb > 0 || c.HBMDropProb > 0 ||
		c.BudgetStormProb > 0
}

// withDefaults fills derived defaults for enabled classes.
func (c Config) withDefaults() Config {
	if c.HBMLateProb > 0 && c.HBMLateNS <= 0 {
		c.HBMLateNS = 400
	}
	if c.BudgetStormProb > 0 && c.BudgetStormFloor <= 0 {
		c.BudgetStormFloor = 10_000
	}
	return c
}

// Key returns a stable string identifying the configuration, used in
// pool shard keys so machines built under different fault schedules
// are never interchangeable. Disabled configs report "off".
func (c Config) Key() string {
	if !c.Enabled() {
		return "off"
	}
	return c.String()
}

// String renders the config in ParseSpec syntax (round-trippable).
func (c Config) String() string {
	if !c.Enabled() {
		return ""
	}
	c = c.withDefaults()
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("stuck", c.StuckTagProb)
	add("hbm-late", c.HBMLateProb)
	if c.HBMLateProb > 0 {
		add("hbm-late-ns", c.HBMLateNS)
	}
	add("hbm-drop", c.HBMDropProb)
	add("budget-storm", c.BudgetStormProb)
	if c.BudgetStormProb > 0 {
		parts = append(parts, fmt.Sprintf("budget-floor=%d", c.BudgetStormFloor))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated fault spec such as
//
//	seed=7,stuck=0.1,hbm-late=0.3,hbm-late-ns=500,hbm-drop=0.05,budget-storm=0.05,budget-floor=20000
//
// Empty input yields the disabled zero Config. Probabilities must lie
// in [0,1].
func ParseSpec(s string) (Config, error) {
	var c Config
	s = strings.TrimSpace(s)
	if s == "" || s == "off" {
		return c, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: bad spec element %q (want key=value)", part)
		}
		prob := func() (float64, error) {
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return 0, fmt.Errorf("fault: %s wants a probability in [0,1], got %q", key, val)
			}
			return p, nil
		}
		var err error
		switch key {
		case "seed":
			c.Seed, err = strconv.ParseUint(val, 0, 64)
			if err != nil {
				err = fmt.Errorf("fault: bad seed %q", val)
			}
		case "stuck":
			c.StuckTagProb, err = prob()
		case "hbm-late":
			c.HBMLateProb, err = prob()
		case "hbm-late-ns":
			c.HBMLateNS, err = strconv.ParseFloat(val, 64)
			if err != nil || c.HBMLateNS < 0 {
				err = fmt.Errorf("fault: bad hbm-late-ns %q", val)
			}
		case "hbm-drop":
			c.HBMDropProb, err = prob()
		case "budget-storm":
			c.BudgetStormProb, err = prob()
		case "budget-floor":
			c.BudgetStormFloor, err = strconv.ParseInt(val, 0, 64)
			if err != nil || c.BudgetStormFloor < 0 {
				err = fmt.Errorf("fault: bad budget-floor %q", val)
			}
		default:
			keys := []string{"seed", "stuck", "hbm-late", "hbm-late-ns", "hbm-drop",
				"budget-storm", "budget-floor"}
			sort.Strings(keys)
			err = fmt.Errorf("fault: unknown spec key %q (known: %s)", key, strings.Join(keys, ", "))
		}
		if err != nil {
			return Config{}, err
		}
	}
	return c.withDefaults(), nil
}

// ErrInjected is the sentinel every injected-fault error matches via
// errors.Is; the serving layer keys retry and status mapping on it.
var ErrInjected = errors.New("fault: injected")

// Error is a typed injected fault.
type Error struct {
	Class  Class
	Detail string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s: %s", e.Class, e.Detail)
}

// Is matches ErrInjected, so errors.Is(err, fault.ErrInjected) holds
// for every injected fault.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// Errorf builds a typed injected-fault error.
func Errorf(class Class, format string, args ...any) *Error {
	return &Error{Class: class, Detail: fmt.Sprintf(format, args...)}
}

// ClassOf extracts the fault class from an injected-fault error.
func ClassOf(err error) (Class, bool) {
	var e *Error
	if errors.As(err, &e) {
		return e.Class, true
	}
	return 0, false
}

// IsTransient reports whether a retry on a healthy (reset or
// different) machine may succeed. Budget storms are not represented
// here: they surface as cp.ErrBudgetExceeded, which is never retried —
// the serving layer cannot distinguish a storm from a genuinely
// runaway program, so both fail fast with a typed status.
func IsTransient(err error) bool {
	cls, ok := ClassOf(err)
	if !ok {
		return false
	}
	switch cls {
	case ClassStuckTag, ClassHBMDrop:
		return true
	}
	return false
}

// stats is the per-class injected-fault counter set, shared between a
// parent injector and all of its children.
type stats [NumClasses]atomic.Uint64

// Injector draws faults from a deterministic stream. A parent
// injector (fault.New) owns the shared counters and hands out
// per-machine Child streams; draws on one child depend only on the
// seed, the child's birth order, and the call sequence on that child,
// so a single-machine run is fully reproducible. An individual
// injector is driven by one goroutine at a time (the machine that owns
// it); the shared counters are atomic, so Count is safe from any
// goroutine (the /metrics render path).
type Injector struct {
	cfg   Config
	stats *stats
	seq   *atomic.Uint64
	rng   uint64
}

// New builds a parent injector, or returns nil when cfg is disabled so
// call sites need only a nil check.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{
		cfg:   cfg.withDefaults(),
		stats: &stats{},
		seq:   &atomic.Uint64{},
		rng:   splitmix64(cfg.Seed ^ 0x43617065_666c74), // "Cape" "flt"
	}
}

// Child derives a deterministic per-machine stream sharing the
// parent's counters. Nil-safe.
func (i *Injector) Child() *Injector {
	if i == nil {
		return nil
	}
	n := i.seq.Add(1)
	return &Injector{
		cfg:   i.cfg,
		stats: i.stats,
		seq:   i.seq,
		rng:   splitmix64(i.cfg.Seed + 0x9e3779b97f4a7c15*n),
	}
}

// Config returns the injector's configuration (zero when nil).
func (i *Injector) Config() Config {
	if i == nil {
		return Config{}
	}
	return i.cfg
}

// Count returns the number of injected faults of one class across the
// whole injector family. Nil-safe.
func (i *Injector) Count(c Class) uint64 {
	if i == nil {
		return 0
	}
	return i.stats[c].Load()
}

// Counts snapshots all per-class counters.
func (i *Injector) Counts() [NumClasses]uint64 {
	var out [NumClasses]uint64
	if i == nil {
		return out
	}
	for c := range out {
		out[c] = i.stats[c].Load()
	}
	return out
}

// note records one injected fault.
func (i *Injector) note(c Class) { i.stats[c].Add(1) }

// splitmix64 is the SplitMix64 output function, used both to derive
// child seeds and as the per-draw state transition.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next advances the stream and returns a uniform uint64.
func (i *Injector) next() uint64 {
	i.rng = splitmix64(i.rng)
	return i.rng
}

// unit returns a uniform float64 in [0,1).
func (i *Injector) unit() float64 {
	return float64(i.next()>>11) / (1 << 53)
}

// intn returns a uniform int in [0,n).
func (i *Injector) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(i.next() % uint64(n))
}

// attemptFireWindow bounds how many CSB microcode runs into an attempt
// an armed per-attempt fault manifests: the faulty subarray is hit
// within the first few vector instructions. Jobs issuing fewer runs than the drawn index escape
// the fault — the defective hardware was never exercised.
const attemptFireWindow = 4

// AttemptPlan is the per-attempt fault schedule drawn at RunContext
// time. Negative run indices mean "does not fire this attempt".
type AttemptPlan struct {
	// StuckTagRun is the CSB Run index at which a stuck tag bit
	// manifests, or -1.
	StuckTagRun int64
	// BudgetFloor, when positive, collapses the attempt's instruction
	// budget to min(current, BudgetFloor).
	BudgetFloor int64
}

// PlanAttempt draws one attempt's fault schedule. bitLevel gates the
// CSB-resident stuck-tag class: on the fast functional backend there
// is no subarray to be defective. Each planned fault is counted as
// injected at draw time.
func (i *Injector) PlanAttempt(bitLevel bool) AttemptPlan {
	p := AttemptPlan{StuckTagRun: -1}
	if i == nil {
		return p
	}
	if bitLevel && i.cfg.StuckTagProb > 0 && i.unit() < i.cfg.StuckTagProb {
		p.StuckTagRun = int64(i.intn(attemptFireWindow))
		i.note(ClassStuckTag)
	}
	if i.cfg.BudgetStormProb > 0 && i.unit() < i.cfg.BudgetStormProb {
		p.BudgetFloor = i.cfg.BudgetStormFloor
		i.note(ClassBudgetStorm)
	}
	return p
}

// HBMLatePS draws the added device latency for one VMU transfer in
// picoseconds (0 = no fault). The latency is the configured mean
// jittered uniformly over 0.5x–1.5x.
func (i *Injector) HBMLatePS() int64 {
	if i == nil || i.cfg.HBMLateProb <= 0 || i.unit() >= i.cfg.HBMLateProb {
		return 0
	}
	i.note(ClassHBMLate)
	return int64(i.cfg.HBMLateNS * 1000 * (0.5 + i.unit()))
}

// HBMDrop draws whether one VMU transfer is dropped.
func (i *Injector) HBMDrop() bool {
	if i == nil || i.cfg.HBMDropProb <= 0 || i.unit() >= i.cfg.HBMDropProb {
		return false
	}
	i.note(ClassHBMDrop)
	return true
}

// PickSite selects a (chain, subarray) defect site for error detail.
func (i *Injector) PickSite(chains, subs int) (chain, sub int) {
	if i == nil {
		return 0, 0
	}
	return i.intn(chains), i.intn(subs)
}
