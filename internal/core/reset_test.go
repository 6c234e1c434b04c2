package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cape/internal/cp"
	"cape/internal/isa"
)

// resetProbe is a program that dirties every resettable structure:
// RAM, vector registers, scalar registers, the branch predictor (a
// data-dependent loop), the CP caches (scalar loads), the clock, and
// the statistics counters.
func resetProbe() *isa.Program {
	return isa.NewBuilder("reset-probe").
		Li(1, 96).
		Vsetvli(2, 1).
		Li(10, 0x1000).
		Vle32(1, 10). // loads zeros on a clean machine
		Li(3, 7).
		VaddVX(2, 1, 3). // v2 = v1 + 7
		Li(11, 0x2000).
		Vse32(2, 11).
		Lw(4, 0x2000, 0). // scalar load through the caches
		Li(5, 10).
		Li(6, 0).
		Label("loop"). // warm the branch predictor
		Addi(6, 6, 1).
		Blt(6, 5, "loop").
		VredsumVS(3, 2, 1).
		VmvXS(12, 3).
		Halt().
		MustBuild()
}

// runProbe seeds distinguishable RAM content, runs the probe, and
// returns the Result plus an output-memory snapshot.
func runProbe(t *testing.T, m *Machine) (Result, []uint32) {
	t.Helper()
	words := make([]uint32, 96)
	for i := range words {
		words[i] = uint32(3 * i)
	}
	m.RAM().WriteWords(0x1000, words)
	res, err := m.Run(resetProbe())
	if err != nil {
		t.Fatal(err)
	}
	return res, m.RAM().ReadWords(0x2000, 96)
}

func TestResetMatchesFreshMachine(t *testing.T) {
	for _, kind := range []BackendKind{BackendFast, BackendBitLevel} {
		// Two fresh machines, one run each: the reference behavior.
		r1, mem1 := runProbe(t, small(kind))
		r2, mem2 := runProbe(t, small(kind))
		if r1 != r2 {
			t.Fatalf("backend %d: fresh machines disagree: %+v vs %+v", kind, r1, r2)
		}

		// One pooled machine, Reset between runs, must match both.
		m := small(kind)
		p1, pm1 := runProbe(t, m)
		m.Reset()
		p2, pm2 := runProbe(t, m)
		if p1 != r1 {
			t.Errorf("backend %d: first pooled run: got %+v want %+v", kind, p1, r1)
		}
		if p2 != r1 {
			t.Errorf("backend %d: run after Reset: got %+v want %+v", kind, p2, r1)
		}
		for i := range mem1 {
			if pm1[i] != mem1[i] || pm2[i] != mem2[i] {
				t.Fatalf("backend %d: memory diverges at word %d", kind, i)
			}
		}
	}
}

func TestResetClearsState(t *testing.T) {
	m := small(BackendFast)
	runProbe(t, m)
	m.CP().SetX(20, 12345)
	m.Reset()
	if got := m.RAM().Load32(0x1000); got != 0 {
		t.Errorf("RAM not zeroed: %#x", got)
	}
	if got := m.CP().X(20); got != 0 {
		t.Errorf("scalar register survives Reset: %d", got)
	}
	if got := m.Backend().ReadElem(2, 0); got != 0 {
		t.Errorf("vector register survives Reset: %#x", got)
	}
	if got := m.CP().VL(); got != m.MaxVL() {
		t.Errorf("vl after Reset: got %d want MaxVL %d", got, m.MaxVL())
	}
	res, err := m.Run(isa.NewBuilder("empty").Halt().MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if res.CP.ScalarInsts != 0 || res.LaneOps != 0 {
		t.Errorf("statistics survive Reset: %+v", res)
	}
}

func TestRunContextCancel(t *testing.T) {
	m := small(BackendFast)
	prog := isa.NewBuilder("spin").
		Label("loop").
		Addi(1, 1, 1).
		J("loop").
		MustBuild()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunContext(ctx, prog); !errors.Is(err, cp.ErrCanceled) {
		t.Fatalf("want cp.ErrCanceled, got %v", err)
	}
	// The machine must be reusable after Reset.
	m.Reset()
	if _, err := m.RunContext(context.Background(), isa.NewBuilder("empty").Halt().MustBuild()); err != nil {
		t.Fatal(err)
	}
}

// dirtyPages lists the RAM pages the next Reset will clear.
func dirtyPages(r *RAM) []int {
	var pages []int
	for w, word := range r.dirty {
		for b := 0; b < 64; b++ {
			if word&(1<<uint(b)) != 0 {
				pages = append(pages, w*64+b)
			}
		}
	}
	return pages
}

// TestResetTrackers pins what the dirty trackers record, without any
// timing, so a change that quietly falls back to clearing everything
// (or forgets a writer) fails here rather than only in a benchmark. A
// sentinel written behind the trackers' backs, into a page and a
// register no job touched, must survive Reset: Reset clears what was
// marked and nothing else.
func TestResetTrackers(t *testing.T) {
	const sentinel = 7 * PageBytes // in a page nothing below writes
	for _, kind := range []BackendKind{BackendFast, BackendBitLevel} {
		m := small(kind)
		fb, _ := m.Backend().(*FastBackend)
		mem := m.RAM().Bytes()
		// resetKeepsSentinels plants a RAM byte and a register element
		// behind the trackers' backs, resets, and checks that every mark
		// is gone and both sentinels survived.
		resetKeepsSentinels := func(when string) {
			t.Helper()
			mem[sentinel] = 0xa5
			if fb != nil {
				fb.reg[9][0] = 0xa5
			}
			m.Reset()
			if p := dirtyPages(m.RAM()); len(p) != 0 {
				t.Fatalf("backend %d, %s: Reset left dirty pages %v", kind, when, p)
			}
			if mem[sentinel] != 0xa5 {
				t.Fatalf("backend %d, %s: Reset cleared a page nothing wrote", kind, when)
			}
			if fb != nil && (fb.dirty != 0 || fb.reg[9][0] != 0xa5) {
				t.Fatalf("%s: Reset left dirty registers %#x or cleared v9, which nothing wrote", when, fb.dirty)
			}
			mem[sentinel] = 0
			if fb != nil {
				fb.reg[9][0] = 0
			}
		}
		if p := dirtyPages(m.RAM()); len(p) != 0 {
			t.Fatalf("backend %d: fresh machine has dirty pages %v", kind, p)
		}
		if fb != nil && fb.dirty != 0 {
			t.Fatalf("fresh fast backend has dirty registers %#x", fb.dirty)
		}
		resetKeepsSentinels("fresh machine")
		// The probe seeds 0x1000 and stores to 0x2000, pages 1 and 2;
		// on the fast backend it writes v1, v2 and v3.
		runProbe(t, m)
		if p := fmt.Sprint(dirtyPages(m.RAM())); p != "[1 2]" {
			t.Fatalf("backend %d: probe dirtied pages %s, want [1 2]", kind, p)
		}
		if fb != nil && fb.dirty != 1<<1|1<<2|1<<3 {
			t.Fatalf("probe dirtied registers %#x, want v1, v2 and v3", fb.dirty)
		}
		resetKeepsSentinels("after the probe")
	}
	// A straddling store marks both pages, a bulk write its whole span,
	// and Reset clears each run of marked pages to its last byte.
	r := NewRAM(8 * PageBytes)
	r.Store32(2*PageBytes-2, 0xffffffff)
	r.Store16(3*PageBytes-1, 0xffff)
	r.StoreByte(4*PageBytes-1, 0xff)
	r.WriteBytes(5*PageBytes+1, bytes.Repeat([]byte{0xff}, PageBytes+2))
	if p := fmt.Sprint(dirtyPages(r)); p != "[1 2 3 5 6]" {
		t.Fatalf("dirty pages %s, want [1 2 3 5 6]", p)
	}
	r.Reset()
	for i, b := range r.Bytes() {
		if b != 0 {
			t.Fatalf("byte %#x survives Reset", i)
		}
	}
}

// TestRAMBoundsDoNotWrap: an access whose end wraps past 2^64 must
// fail the bounds check with the RAM's own error, not slip past it and
// die on a Go index panic.
func TestRAMBoundsDoNotWrap(t *testing.T) {
	m := small(BackendFast)
	prog := isa.NewBuilder("wrap").
		Li(5, -2).
		Sw(0, 0, 5). // sw x0, 0(x5): bytes 2^64-2 .. 2^64+1
		Halt().
		MustBuild()
	defer func() {
		msg, ok := recover().(string)
		if !ok || !strings.HasPrefix(msg, "ram: access") {
			t.Fatalf("want the RAM bounds panic, got %v", msg)
		}
	}()
	m.Run(prog)
	t.Fatal("store at 2^64-2 did not fault")
}
