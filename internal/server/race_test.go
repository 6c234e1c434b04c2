package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cape/internal/metrics"
)

// bitLevelSource exercises the bit-level hot paths end to end: element
// loads, serial/parallel arithmetic microcode, a reduction through the
// accumulator, and a store the test can dump.
const bitLevelSource = `
	li      x1, 64
	vsetvli x2, x1, e32
	li      x10, 0x1000
	vle32.v v1, (x10)
	vadd.vx v2, v1, x11
	vmul.vv v3, v2, v2
	vadd.vv v3, v3, v1
	vmv.v.x v4, x0
	vredsum.vs v5, v3, v4
	vmv.x.s x12, v5
	vse32.v v3, (x10)
	halt
`

// TestConcurrentBitLevelJobsRace is the -race coverage for concurrent
// bit-level jobs on pooled machines: a pool of server workers, each
// driving its own machine, with the shard's machines sharing one ucode
// template cache and one PMU. Identical jobs must return bit-identical
// memory, scalar and cycle results — any cross-machine sharing or race
// shows up under -race or as a divergent response.
func TestConcurrentBitLevelJobsRace(t *testing.T) {
	s := New(Options{
		Workers:           4,
		QueueDepth:        64,
		MachinesPerConfig: 4,
		RAMBytes:          1 << 20,
		Registry:          metrics.NewRegistry(),
	})
	defer s.Close()

	req := Request{
		Source:    bitLevelSource,
		Name:      "concurrent-bitlevel",
		Config:    "CAPE32k",
		Chains:    8,
		Backend:   "bitlevel",
		Registers: map[string]int64{"x11": 5},
		Dump:      &DumpSpec{Addr: 0x1000, Words: 64},
	}

	const jobs = 24
	type result struct {
		mem    []uint32
		cycles int64
	}
	results := make([]result, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), req)
			if err != nil {
				errs[i] = err
				return
			}
			if len(resp.Memory) != 64 {
				errs[i] = fmt.Errorf("dump has %d words", len(resp.Memory))
				return
			}
			results[i] = result{mem: resp.Memory, cycles: resp.Result.CP.Cycles}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	// RAM starts zeroed, so v1 = 0, v2 = 5, v3 = 25: every dumped word
	// and every cycle count must match job 0 exactly.
	want := results[0]
	for i, w := range want.mem {
		if w != 25 {
			t.Fatalf("word %d: got %d want 25", i, w)
		}
	}
	for i := 1; i < jobs; i++ {
		if results[i].cycles != want.cycles {
			t.Fatalf("job %d: cycles %d vs %d — nondeterministic across pooled machines",
				i, results[i].cycles, want.cycles)
		}
		for e, w := range results[i].mem {
			if w != want.mem[e] {
				t.Fatalf("job %d word %d: %#x vs %#x", i, e, w, want.mem[e])
			}
		}
	}
}
