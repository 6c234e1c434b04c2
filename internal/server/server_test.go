package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cape/internal/cp"
	"cape/internal/metrics"
)

// probeSource loads 64 words (zeros on a clean machine), adds the
// per-job seed in x11, and stores them back: any cross-job state leak
// shows up in the dumped memory.
const probeSource = `
	li      x1, 64
	vsetvli x2, x1, e32
	li      x10, 0x1000
	vle32.v v1, (x10)
	vadd.vx v1, v1, x11
	vse32.v v1, (x10)
	halt
`

const spinSource = `
loop:
	addi x1, x1, 1
	j    loop
`

// testOptions keeps machines tiny so tests build dozens cheaply.
func testOptions() Options {
	return Options{
		Workers:           8,
		QueueDepth:        128,
		MachinesPerConfig: 4,
		RAMBytes:          1 << 20,
		Registry:          metrics.NewRegistry(),
	}
}

// probeRequest builds a seeded probe job on one of the two paper
// configurations (scaled down via the chain override).
func probeRequest(seed int64, big bool) Request {
	cfg, chains := "CAPE32k", 4
	if big {
		cfg, chains = "CAPE131k", 8
	}
	return Request{
		Source:    probeSource,
		Name:      fmt.Sprintf("probe-%d", seed),
		Config:    cfg,
		Chains:    chains,
		Registers: map[string]int64{"x11": seed},
		Dump:      &DumpSpec{Addr: 0x1000, Words: 64},
	}
}

func checkProbe(t *testing.T, resp *Response, seed int64) {
	t.Helper()
	if len(resp.Memory) != 64 {
		t.Fatalf("seed %d: dump has %d words", seed, len(resp.Memory))
	}
	for i, w := range resp.Memory {
		if w != uint32(seed) {
			t.Fatalf("seed %d: word %d is %#x (machine state leaked across jobs?)", seed, i, w)
		}
	}
	if resp.RunNS <= 0 || resp.TotalNS < resp.RunNS {
		t.Fatalf("seed %d: implausible latency breakdown %+v", seed, resp)
	}
}

func TestSubmitBasic(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	resp, err := s.Submit(context.Background(), probeRequest(7, false))
	if err != nil {
		t.Fatal(err)
	}
	checkProbe(t, resp, 7)
	if resp.Config != "CAPE32k" || resp.Chains != 4 || resp.Backend != "fast" {
		t.Fatalf("echoed config wrong: %+v", resp)
	}
	if resp.JobID == 0 {
		t.Fatal("job id not assigned")
	}
}

// TestConcurrentJobsDeterministic is the -race coverage required by the
// issue: ≥64 concurrent in-flight jobs across both configurations,
// deterministic results, and no machine cross-contamination.
func TestConcurrentJobsDeterministic(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	ctx := context.Background()

	// Reference result for a canonical job before any load.
	ref, err := s.Submit(ctx, probeRequest(1, false))
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 96
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := int64(1000 + i)
			resp, err := s.Submit(ctx, probeRequest(seed, i%2 == 1))
			if err != nil {
				errs <- fmt.Errorf("job %d: %w", i, err)
				return
			}
			for k, w := range resp.Memory {
				if w != uint32(seed) {
					errs <- fmt.Errorf("job %d: word %d is %#x, want %#x", i, k, w, uint32(seed))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The same canonical job after heavy reuse must be bit- and
	// cycle-identical: pooled machines are indistinguishable from
	// fresh ones.
	again, err := s.Submit(ctx, probeRequest(1, false))
	if err != nil {
		t.Fatal(err)
	}
	if again.Result != ref.Result {
		t.Fatalf("result drift across pool reuse:\nbefore %+v\nafter  %+v", ref.Result, again.Result)
	}

	// Steady state must reuse machines, not rebuild them.
	for _, st := range s.Pool().Stats() {
		if st.Created > testOptions().MachinesPerConfig {
			t.Fatalf("shard %s built %d machines (cap %d)", st.Key, st.Created, testOptions().MachinesPerConfig)
		}
		if st.Reuses == 0 {
			t.Fatalf("shard %s never reused a machine", st.Key)
		}
	}
}

func TestInfiniteLoopBudget(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	_, err := s.Submit(context.Background(), Request{
		Source:   spinSource,
		Chains:   4,
		MaxInsts: 100_000,
	})
	if !errors.Is(err, cp.ErrBudgetExceeded) {
		t.Fatalf("want cp.ErrBudgetExceeded, got %v", err)
	}
	// The worker and its machine must be free for the next job.
	resp, err := s.Submit(context.Background(), probeRequest(3, false))
	if err != nil {
		t.Fatal(err)
	}
	checkProbe(t, resp, 3)
}

func TestInfiniteLoopTimeout(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	start := time.Now()
	_, err := s.Submit(context.Background(), Request{
		Source:    spinSource,
		Chains:    4,
		TimeoutMS: 100,
		MaxInsts:  1 << 60,
	})
	if !errors.Is(err, cp.ErrCanceled) {
		t.Fatalf("want cp.ErrCanceled, got %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("timeout did not fire promptly")
	}
	// Pool not wedged.
	if _, err := s.Submit(context.Background(), probeRequest(4, false)); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadJob(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	resp, err := s.Submit(context.Background(), Request{Workload: "vvadd", Chains: 64})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CheckOK == nil || !*resp.CheckOK {
		t.Fatalf("workload check failed: %+v err=%s", resp.CheckOK, resp.CheckError)
	}
	if resp.Result.LaneOps == 0 || resp.Result.MemBytes == 0 {
		t.Fatalf("workload ran no vector work: %+v", resp.Result)
	}
}

func TestCompileErrors(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	cases := []Request{
		{},                                       // neither source nor workload
		{Source: "bogus x1"},                     // assembler error
		{Source: "halt", Config: "CAPE64k"},      // unknown config
		{Source: "halt", Backend: "quantum"},     // unknown backend
		{Workload: "no-such-kernel"},             // unknown workload
		{Source: probeSource, Workload: "vvadd"}, // both
		{Workload: "vvadd", Registers: map[string]int64{"x1": 1}},  // regs on workload
		{Source: "halt", Registers: map[string]int64{"x99": 1}},    // bad register
		{Source: "halt", Dump: &DumpSpec{Addr: 1 << 40, Words: 4}}, // dump past RAM
	}
	for i, req := range cases {
		if _, err := s.Submit(context.Background(), req); err == nil {
			t.Errorf("case %d (%+v): expected compile error", i, req)
		}
	}
}

func TestProgramFaultDoesNotKillWorker(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	// A store far outside RAM panics inside the simulator; the worker
	// must convert that to an error and survive.
	_, err := s.Submit(context.Background(), Request{
		Source: "li x1, 0x7fffffff\nsw x2, 0(x1)\nhalt",
		Chains: 4,
	})
	if err == nil || !strings.Contains(err.Error(), "program fault") {
		t.Fatalf("want program fault error, got %v", err)
	}
	if _, err := s.Submit(context.Background(), probeRequest(5, false)); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s := New(testOptions())
	s.Close()
	if _, err := s.Submit(context.Background(), probeRequest(1, false)); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestCloseLeavesNoGoroutines pins that nothing a server starts
// outlives Close: after one fast and one bit-level job, the goroutine
// count settles back to where it was before New. The settle loop is
// bounded and never forces a GC — a goroutine only a finalizer would
// reap counts as a leak.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(testOptions())
	for i, backend := range []string{"fast", "bitlevel"} {
		req := probeRequest(int64(i+1), false)
		req.Backend = backend
		resp, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("%s job: %v", backend, err)
		}
		checkProbe(t, resp, int64(i+1))
	}
	s.Close()

	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%d goroutines before New, %d after Close:\n%s", before, after, buf)
	}
}

// TestPoolResetObserved: every machine returned to the pool is timed on
// caped_pool_reset_seconds, so one completed job adds exactly one
// observation. The reset runs after the reply, so the count is read
// after Close has waited for the worker.
func TestPoolResetObserved(t *testing.T) {
	opts := testOptions()
	s := New(opts)
	if _, err := s.Submit(context.Background(), probeRequest(3, false)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if n := s.resetH.Count(); n != 1 {
		t.Fatalf("caped_pool_reset_seconds has %d observations after one job, want 1", n)
	}
	var buf strings.Builder
	if _, err := opts.Registry.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "caped_pool_reset_seconds_count 1") {
		t.Fatalf("/metrics lacks the reset observation:\n%s", buf.String())
	}
}
