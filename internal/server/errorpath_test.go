package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCompileRejectsMalformedSpec pins the exact rejection message for
// every malformed-request class Compile validates, so API errors stay
// actionable (TestCompileErrors only checks that rejection happens).
func TestCompileRejectsMalformedSpec(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"empty", Request{}, "needs source, workload or query"},
		{"bad assembly", Request{Source: "bogus x1"}, "assemble"},
		{"unknown config", Request{Source: "halt", Config: "CAPE64k"}, "unknown config"},
		{"unknown backend", Request{Source: "halt", Backend: "quantum"}, "unknown backend"},
		{"unknown workload", Request{Workload: "no-such-kernel"}, "unknown workload"},
		{"source and workload", Request{Source: "halt", Workload: "vvadd"}, "mutually exclusive"},
		{"negative chains", Request{Source: "halt", Chains: -8}, "bad chain count"},
		{"registers on workload", Request{Workload: "vvadd", Registers: map[string]int64{"x1": 1}},
			"registers are only valid"},
		{"bad register name", Request{Source: "halt", Registers: map[string]int64{"x99": 1}},
			"bad register name"},
		{"negative dump", Request{Source: "halt", Dump: &DumpSpec{Addr: 0, Words: -1}},
			"out of range"},
		{"oversized dump", Request{Source: "halt", Dump: &DumpSpec{Addr: 0, Words: maxDumpWords + 1}},
			"out of range"},
		{"dump past RAM", Request{Source: "halt", Dump: &DumpSpec{Addr: 1 << 40, Words: 4}},
			"exceeds RAM"},
		// The end of this range wraps past 2^64 to a small address.
		{"dump wrapping past 2^64", Request{Source: "halt", Dump: &DumpSpec{Addr: 1<<64 - 16, Words: 8}},
			"exceeds RAM"},
	}
	for _, tc := range cases {
		_, err := Compile(tc.req, Options{})
		if err == nil {
			t.Errorf("%s: compiled successfully, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestTraceStoreConcurrentWriters hammers the bounded trace store from
// concurrent writers and readers (run under -race) and then checks the
// eviction bookkeeping invariants survived.
func TestTraceStoreConcurrentWriters(t *testing.T) {
	const (
		cap       = 4
		writers   = 8
		perWriter = 200
	)
	ts := newTraceStore(cap)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter + i + 1)
				ts.put(id, []byte{byte(w)})
				// Interleave reads of our own id and of ids other
				// writers own, hitting found/evicted/unknown states.
				ts.get(id)
				ts.get(uint64(i + 1))
				ts.get(uint64(writers*perWriter + i + 1)) // never stored
			}
		}(w)
	}
	wg.Wait()

	ts.mu.Lock()
	live, gone := len(ts.live), len(ts.gone)
	ts.mu.Unlock()
	if live > cap {
		t.Fatalf("store holds %d traces, cap %d", live, cap)
	}
	if gone > 8*cap {
		t.Fatalf("evicted-id set grew to %d entries (bound %d)", gone, 8*cap)
	}
	// The store still works serially after the storm.
	ts.put(1_000_000, []byte("z"))
	if b, st := ts.get(1_000_000); st != traceFound || string(b) != "z" {
		t.Fatalf("post-storm get = %q, %v", b, st)
	}
}

// TestCancellationRacingCompletion submits jobs whose contexts are
// canceled at delays straddling the job runtime, so cancellation races
// completion in every ordering (run under -race). Canceled submissions
// must return the context error, completed ones a valid response, and
// the workers and pool must survive all of it.
func TestCancellationRacingCompletion(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	// Pin down the typical runtime so the cancel delays bracket it.
	if _, err := s.Submit(context.Background(), probeRequest(1, false)); err != nil {
		t.Fatal(err)
	}

	const jobs = 64
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			// Delays from "canceled while queued" through "canceled
			// after completion".
			delay := time.Duration(i%8) * 200 * time.Microsecond
			time.AfterFunc(delay, cancel)
			defer cancel()
			resp, err := s.Submit(ctx, probeRequest(int64(i), false))
			if err == nil && len(resp.Memory) != 64 {
				err = fmt.Errorf("completed job returned %d dump words", len(resp.Memory))
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && statusOf(err) != "timeout" {
			t.Errorf("job %d: unexpected error %v (status %s)", i, err, statusOf(err))
		}
	}
	// The server is still fully serviceable.
	resp, err := s.Submit(context.Background(), probeRequest(7, false))
	if err != nil {
		t.Fatalf("post-race probe failed: %v", err)
	}
	checkProbe(t, resp, 7)
}
