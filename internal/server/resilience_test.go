package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"cape/internal/fault"
)

// chaosSource is the bit-level kernel the chaos tests run: a vector
// load and store (HBM fault exposure) around enough vector ALU
// instructions that CSB-resident faults always land inside the
// attempt's fire window.
const chaosSource = `
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

// chaosRequest is a bit-level job with a dump range for bit-identity
// checks.
func chaosRequest() Request {
	return Request{
		Source:  chaosSource,
		Name:    "chaos-probe",
		Chains:  64,
		Backend: "bitlevel",
		Dump:    &DumpSpec{Addr: 0x1000, Words: 64},
	}
}

// chaosOptions builds a single-worker, single-machine server so the
// fault schedule is a deterministic function of the seed.
func chaosOptions(fc fault.Config) Options {
	o := testOptions()
	o.Workers = 1
	o.MachinesPerConfig = 1
	o.Faults = fc
	o.RetryBaseDelay = time.Microsecond
	o.RetryMaxDelay = 10 * time.Microsecond
	return o
}

// cleanChaosMemory runs the chaos kernel fault-free and returns its
// dumped memory: the bit-identity reference.
func cleanChaosMemory(t *testing.T) []uint32 {
	t.Helper()
	s := New(chaosOptions(fault.Config{}))
	defer s.Close()
	resp, err := s.Submit(context.Background(), chaosRequest())
	if err != nil {
		t.Fatalf("fault-free run failed: %v", err)
	}
	return resp.Memory
}

// TestRetrySurvivesDrops: with dropped transfers injected at p=0.3 and
// a retry budget, every job completes and every completed result is
// bit-identical to the fault-free run.
func TestRetrySurvivesDrops(t *testing.T) {
	want := cleanChaosMemory(t)
	o := chaosOptions(fault.Config{Seed: 42, HBMDropProb: 0.3})
	o.Retries = 12 // drops are drawn per transfer, so attempts fail often
	s := New(o)
	defer s.Close()
	for i := 0; i < 20; i++ {
		resp, err := s.Submit(context.Background(), chaosRequest())
		if err != nil {
			t.Fatalf("job %d not survived: %v", i, err)
		}
		if !slices.Equal(resp.Memory, want) {
			t.Fatalf("job %d: completed result diverged from fault-free run", i)
		}
	}
	if got := s.FaultCounts()[fault.ClassHBMDrop]; got == 0 {
		t.Fatal("no drops injected at p=0.3 over 20 jobs")
	}
	if s.RetryCount() == 0 {
		t.Fatal("drops were injected but nothing was retried")
	}
}

// TestStuckTagSurvived: stuck tag bits are transient (a retry lands on
// a healthy subarray draw), so jobs complete under injection.
func TestStuckTagSurvived(t *testing.T) {
	want := cleanChaosMemory(t)
	o := chaosOptions(fault.Config{Seed: 7, StuckTagProb: 0.4})
	o.Retries = 10
	s := New(o)
	defer s.Close()
	for i := 0; i < 10; i++ {
		resp, err := s.Submit(context.Background(), chaosRequest())
		if err != nil {
			t.Fatalf("job %d not survived: %v", i, err)
		}
		if !slices.Equal(resp.Memory, want) {
			t.Fatalf("job %d: result diverged", i)
		}
	}
	if got := s.FaultCounts()[fault.ClassStuckTag]; got == 0 {
		t.Fatal("no stuck tags injected at p=0.4 over 10 jobs")
	}
}

// mustCompile compiles a request against the server's options.
func mustCompile(t *testing.T, s *Server, req Request) *Spec {
	t.Helper()
	spec, err := Compile(req, s.Options())
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBudgetStormTyped: budget storms are not retryable; the job fails
// with the budget status and a 422, and the budget recovers for the
// next job.
func TestBudgetStormTyped(t *testing.T) {
	s := New(chaosOptions(fault.Config{Seed: 5, BudgetStormProb: 1, BudgetStormFloor: 4}))
	defer s.Close()
	_, err := s.Submit(context.Background(), chaosRequest())
	if err == nil {
		t.Fatal("budget storm did not fail the job")
	}
	if got := statusOf(err); got != "budget_exceeded" {
		t.Fatalf("statusOf = %q, want budget_exceeded", got)
	}
	if got := httpStatusOf(err); got != http.StatusUnprocessableEntity {
		t.Fatalf("httpStatusOf = %d, want 422", got)
	}
	if s.RetryCount() != 0 {
		t.Fatal("budget storm was retried")
	}
}

// TestBreakerOpens: with retries disabled and every transfer dropped,
// consecutive failures trip the shard breaker and later jobs fail fast
// with ErrBreakerOpen → 503.
func TestBreakerOpens(t *testing.T) {
	o := chaosOptions(fault.Config{Seed: 9, HBMDropProb: 1})
	o.Retries = -1
	o.BreakerThreshold = 2
	o.BreakerCooldown = time.Hour // keep it open for the assertion
	s := New(o)
	defer s.Close()
	for i := 0; i < 2; i++ {
		_, err := s.Submit(context.Background(), chaosRequest())
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("job %d: err = %v, want injected fault", i, err)
		}
		if got := statusOf(err); got != "fault" {
			t.Fatalf("statusOf = %q, want fault", got)
		}
		if got := httpStatusOf(err); got != http.StatusServiceUnavailable {
			t.Fatalf("httpStatusOf = %d, want 503", got)
		}
	}
	_, err := s.Submit(context.Background(), chaosRequest())
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("breaker did not open: %v", err)
	}
	if got := statusOf(err); got != "breaker_open" {
		t.Fatalf("statusOf = %q, want breaker_open", got)
	}
	if got := httpStatusOf(err); got != http.StatusServiceUnavailable {
		t.Fatalf("httpStatusOf = %d, want 503", got)
	}
	b := s.breaker(mustCompile(t, s, chaosRequest()).Config)
	if b.StateVal() != breakerOpen {
		t.Fatalf("breaker state = %d, want open", b.StateVal())
	}
}

// TestBreakerStateMachine drives the breaker directly through
// open → half-open probe → re-open → half-open → closed.
func TestBreakerStateMachine(t *testing.T) {
	b := Breaker{threshold: 2, cooldown: 5 * time.Millisecond}
	if !b.Allow() {
		t.Fatal("fresh breaker must be closed")
	}
	b.OnResult(false)
	b.OnResult(false)
	if b.StateVal() != breakerOpen {
		t.Fatal("threshold failures did not open")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a job inside the cooldown")
	}
	time.Sleep(6 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but no probe allowed")
	}
	if b.Allow() {
		t.Fatal("second probe allowed while the first is in flight")
	}
	b.OnResult(false)
	if b.StateVal() != breakerOpen {
		t.Fatal("failed probe did not re-open")
	}
	time.Sleep(6 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.OnResult(true)
	if b.StateVal() != breakerClosed {
		t.Fatal("successful probe did not close")
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected a job")
	}
	// A disabled breaker is always closed.
	off := Breaker{}
	off.OnResult(false)
	off.OnResult(false)
	if !off.Allow() {
		t.Fatal("disabled breaker rejected a job")
	}
}

// TestDeadlineDuringRetries: the job's deadline bounds the whole retry
// loop, not each attempt.
func TestDeadlineDuringRetries(t *testing.T) {
	o := chaosOptions(fault.Config{Seed: 11, HBMDropProb: 1})
	o.Retries = 1_000_000
	o.RetryBaseDelay = time.Millisecond
	o.RetryMaxDelay = time.Millisecond
	s := New(o)
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Submit(ctx, chaosRequest())
	if err == nil {
		t.Fatal("every transfer drops; the job cannot succeed")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("retry loop ignored the deadline (took %v)", time.Since(start))
	}
}

// TestFaultMetricsExposed: /metrics carries the fault counters, the
// retry counter, and the per-shard breaker gauge.
func TestFaultMetricsExposed(t *testing.T) {
	s := New(chaosOptions(fault.Config{Seed: 42, HBMDropProb: 0.3}))
	defer s.Close()
	if _, err := s.Submit(context.Background(), chaosRequest()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Registry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`caped_faults_injected_total{class="hbm_drop"}`,
		`caped_faults_injected_total{class="stuck_tag"}`,
		"caped_retries_total",
		`caped_breaker_state{shard="`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestShardKeyIncludesFaults: machines with different fault schedules
// are never interchangeable.
func TestShardKeyIncludesFaults(t *testing.T) {
	off, err := Compile(chaosRequest(), chaosOptions(fault.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	on, err := Compile(chaosRequest(), chaosOptions(fault.Config{Seed: 1, HBMDropProb: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if ShardKey(off.Config) == ShardKey(on.Config) {
		t.Fatal("fault schedule missing from the shard key")
	}
}
