package csb

import (
	"math/rand"
	"testing"

	"cape/internal/chain"
	"cape/internal/isa"
	"cape/internal/sram"
	"cape/internal/tt"
)

func TestWindowMasks(t *testing.T) {
	c := New(4) // MaxVL = 128
	if c.MaxVL() != 128 {
		t.Fatalf("MaxVL: %d", c.MaxVL())
	}
	c.SetWindow(0, 6)
	// Elements 0..5 live at (chain e%4, col e/4): chains 0,1 get cols
	// {0,1} -> mask 0b11, chains 2,3 get col 0 -> mask 0b1.
	for k := 0; k < 4; k++ {
		want := uint32(0b1)
		if k < 2 {
			want = 0b11
		}
		if got := c.Chain(k).ActiveMask(); got != want {
			t.Errorf("chain %d mask: got %#b want %#b", k, got, want)
		}
	}
	if got := c.ActiveChains(); got != 4 {
		t.Errorf("active chains: got %d", got)
	}
	c.SetWindow(0, 2)
	if got := c.ActiveChains(); got != 2 {
		t.Errorf("active chains with vl=2: got %d want 2", got)
	}
}

func TestElementMappingRoundTrip(t *testing.T) {
	c := New(8)
	for e := 0; e < c.MaxVL(); e += 17 {
		k, col := c.chainOf(e)
		if c.ElementIndex(k, col) != e {
			t.Fatalf("mapping not invertible at %d", e)
		}
	}
	c.WriteElement(3, 200, 0xDEAD)
	if got := c.ReadElement(3, 200); got != 0xDEAD {
		t.Fatalf("element round trip: %#x", got)
	}
	// Adjacent elements must land in adjacent chains (paper §V-E).
	k0, _ := c.chainOf(10)
	k1, _ := c.chainOf(11)
	if k1 != (k0+1)%c.NumChains() {
		t.Fatalf("adjacent elements not interleaved: %d then %d", k0, k1)
	}
}

// fixture builds a small CSB with randomized register contents and
// mirrors them into golden slices.
type fixture struct {
	c   *CSB
	reg [isa.NumVRegs][]uint32
}

func newFixture(t *testing.T, numChains int, rng *rand.Rand) *fixture {
	t.Helper()
	f := &fixture{c: New(numChains)}
	maxVL := f.c.MaxVL()
	for v := 0; v < isa.NumVRegs; v++ {
		f.reg[v] = make([]uint32, maxVL)
		for e := 0; e < maxVL; e++ {
			val := rng.Uint32()
			switch rng.Intn(4) {
			case 0:
				val &= 0xF // small values exercise carry chains
			case 1:
				val = -val
			}
			f.reg[v][e] = val
			f.c.WriteElement(v, e, val)
		}
	}
	// Mask registers hold 0/1 values where the tests use them as masks.
	for e := 0; e < maxVL; e++ {
		f.reg[0][e] &= 1
		f.c.WriteElement(0, e, f.reg[0][e])
	}
	return f
}

// run generates, executes, and cross-checks one instruction against the
// golden semantics applied to the mirror registers.
func (f *fixture) run(t *testing.T, op isa.Opcode, vd, vs2, vs1 int, x uint64, w isa.Window) {
	t.Helper()
	ops, err := tt.Generate(op, vd, vs2, vs1, x)
	if err != nil {
		t.Fatalf("%v: %v", op, err)
	}
	f.c.SetWindow(w.Start, w.VL)
	f.c.ResetReduction()
	f.c.Run(ops)

	// Golden update of the mirror.
	switch op {
	case isa.OpVADD_VV, isa.OpVSUB_VV, isa.OpVMUL_VV, isa.OpVAND_VV,
		isa.OpVOR_VV, isa.OpVXOR_VV, isa.OpVMSEQ_VV, isa.OpVMSLT_VV:
		isa.GoldenVV(op, f.reg[vd], f.reg[vs2], f.reg[vs1], w)
	case isa.OpVADD_VX, isa.OpVSUB_VX, isa.OpVMSEQ_VX, isa.OpVMSLT_VX:
		isa.GoldenVX(op, f.reg[vd], f.reg[vs2], uint32(x), w)
	case isa.OpVMERGE_VVM:
		isa.GoldenMerge(f.reg[vd], f.reg[vs2], f.reg[vs1], f.reg[0], w)
	case isa.OpVMV_VX:
		isa.GoldenSplat(f.reg[vd], uint32(x), w)
	default:
		t.Fatalf("fixture.run does not handle %v", op)
	}

	for e := 0; e < f.c.MaxVL(); e++ {
		if got, want := f.c.ReadElement(vd, e), f.reg[vd][e]; got != want {
			t.Fatalf("%v vd=v%d vs2=v%d vs1=v%d x=%#x elem %d (window %+v): CSB %#x golden %#x",
				op, vd, vs2, vs1, x, e, w, got, want)
		}
	}
	// The other registers must be untouched (except scratch rows,
	// which are not architectural).
	for v := 1; v < isa.NumVRegs; v++ {
		if v == vd {
			continue
		}
		for e := 0; e < f.c.MaxVL(); e += 7 {
			if got := f.c.ReadElement(v, e); got != f.reg[v][e] {
				t.Fatalf("%v clobbered v%d[%d]: %#x != %#x", op, v, e, got, f.reg[v][e])
			}
		}
	}
}

func TestMicrocodeMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := []isa.Opcode{
		isa.OpVADD_VV, isa.OpVSUB_VV, isa.OpVMUL_VV,
		isa.OpVAND_VV, isa.OpVOR_VV, isa.OpVXOR_VV,
		isa.OpVMSEQ_VV, isa.OpVMSLT_VV, isa.OpVMERGE_VVM,
		isa.OpVADD_VX, isa.OpVSUB_VX, isa.OpVMSEQ_VX, isa.OpVMSLT_VX,
		isa.OpVMV_VX,
	}
	for _, op := range ops {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			f := newFixture(t, 2, rng)
			maxVL := f.c.MaxVL()
			for trial := 0; trial < 12; trial++ {
				vd := 1 + rng.Intn(isa.NumVRegs-1) // keep v0 as mask
				vs2 := 1 + rng.Intn(isa.NumVRegs-1)
				vs1 := 1 + rng.Intn(isa.NumVRegs-1)
				x := uint64(rng.Uint32())
				w := isa.Window{Start: 0, VL: maxVL}
				if trial%3 == 1 {
					w = isa.Window{Start: rng.Intn(maxVL / 2), VL: maxVL/2 + rng.Intn(maxVL/2)}
				}
				f.run(t, op, vd, vs2, vs1, x, w)
			}
		})
	}
}

func TestMicrocodeAliasedOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type alias struct{ vd, vs2, vs1 int }
	aliases := []alias{
		{5, 5, 6},  // vd == vs2
		{5, 6, 5},  // vd == vs1
		{5, 5, 5},  // all equal
		{5, 6, 6},  // vs2 == vs1
		{5, 7, 12}, // no alias (control)
	}
	ops := []isa.Opcode{
		isa.OpVADD_VV, isa.OpVSUB_VV, isa.OpVMUL_VV,
		isa.OpVAND_VV, isa.OpVOR_VV, isa.OpVXOR_VV,
		isa.OpVMSEQ_VV, isa.OpVMSLT_VV, isa.OpVMERGE_VVM,
	}
	for _, op := range ops {
		for _, al := range aliases {
			f := newFixture(t, 1, rng)
			w := isa.Window{Start: 0, VL: f.c.MaxVL()}
			f.run(t, op, al.vd, al.vs2, al.vs1, 0, w)
		}
	}
}

func TestRedsumAgainstGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		f := newFixture(t, 3, rng)
		maxVL := f.c.MaxVL()
		w := isa.Window{Start: rng.Intn(maxVL / 2), VL: 1 + rng.Intn(maxVL)}
		ops, err := tt.Generate(isa.OpVREDSUM_VS, 1, 2, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.c.SetWindow(w.Start, w.VL)
		f.c.ResetReduction()
		f.c.Run(ops)
		got := uint32(f.c.ReductionResult()) + f.reg[3][0]
		want := isa.GoldenRedsum(f.reg[2], f.reg[3], w)
		if got != want {
			t.Fatalf("trial %d window %+v: redsum CSB %d golden %d", trial, w, got, want)
		}
	}
}

func TestCpopAndFirstAgainstGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		f := newFixture(t, 2, rng)
		maxVL := f.c.MaxVL()
		// Build a sparse mask in v4.
		mask := make([]uint32, maxVL)
		for e := range mask {
			if rng.Intn(8) == 0 {
				mask[e] = 1
			}
			f.c.WriteElement(4, e, mask[e])
		}
		w := isa.Window{Start: rng.Intn(maxVL / 2), VL: 1 + rng.Intn(maxVL)}
		f.c.SetWindow(w.Start, w.VL)

		ops, _ := tt.Generate(isa.OpVCPOP_M, 0, 4, 0, 0)
		f.c.ResetReduction()
		f.c.Run(ops)
		if got, want := int64(f.c.ReductionResult()), isa.GoldenCpop(mask, w); got != want {
			t.Fatalf("cpop window %+v: got %d want %d", w, got, want)
		}

		ops, _ = tt.Generate(isa.OpVFIRST_M, 0, 4, 0, 0)
		f.c.Run(ops)
		if got, want := f.c.FirstSetTag(), isa.GoldenFirst(mask, w); got != want {
			t.Fatalf("vfirst window %+v: got %d want %d", w, got, want)
		}
	}
}

// TestCycleCounts pins the microcode cycle costs. Where our derived
// associative algorithm achieves exactly the paper's Table I count the
// two coincide; the remaining deltas are documented in EXPERIMENTS.md
// (timing always uses the paper's formulas).
func TestCycleCounts(t *testing.T) {
	n := tt.ElemBits
	cases := []struct {
		op            isa.Opcode
		vd, vs2, vs1  int
		want          int
		matchesTableI bool
	}{
		{isa.OpVADD_VV, 1, 2, 3, 8*n + 2, true},
		{isa.OpVSUB_VV, 1, 2, 3, 8*n + 2, true},
		{isa.OpVAND_VV, 1, 2, 3, 3, true},
		{isa.OpVOR_VV, 1, 2, 3, 3, true},
		{isa.OpVXOR_VV, 1, 2, 3, 4, true},
		{isa.OpVMSEQ_VV, 1, 2, 3, n + 4, true},
		{isa.OpVREDSUM_VS, 1, 2, 3, n, true},
		{isa.OpVMSEQ_VX, 1, 2, 0, n + 3, false},   // paper: n+1
		{isa.OpVMSLT_VV, 1, 2, 3, 4*n + 1, false}, // paper: 3n+6
		{isa.OpVMERGE_VVM, 1, 2, 3, 8, false},     // paper: 4
		{isa.OpVCPOP_M, 0, 2, 0, 1, false},
	}
	for _, tc := range cases {
		ops, err := tt.Generate(tc.op, tc.vd, tc.vs2, tc.vs1, 0xABCD)
		if err != nil {
			t.Fatalf("%v: %v", tc.op, err)
		}
		if got := tt.Cost(ops); got != tc.want {
			t.Errorf("%v: cycle cost %d want %d", tc.op, got, tc.want)
		}
	}
	// vmul: ours is O(n^2) like the paper's 4n^2-4n; pin the exact
	// value so regressions are visible.
	ops, _ := tt.Generate(isa.OpVMUL_VV, 1, 2, 3, 0)
	wantMul := 1 // clear d
	for j := 0; j < n; j++ {
		wantMul += 6 + 9*(n-j)
	}
	if got := tt.Cost(ops); got != wantMul {
		t.Errorf("vmul: cycle cost %d want %d", got, wantMul)
	}
}

func TestMixOf(t *testing.T) {
	ops, _ := tt.Generate(isa.OpVADD_VV, 1, 2, 3, 0)
	m := tt.MixOf(ops)
	n := tt.ElemBits
	if m.SearchSerial != 6*n {
		t.Errorf("vadd searches: %d want %d", m.SearchSerial, 6*n)
	}
	if m.UpdateSerial != n || m.UpdateProp != n {
		t.Errorf("vadd updates: serial %d prop %d want %d/%d", m.UpdateSerial, m.UpdateProp, n, n)
	}
	if m.UpdateParallel != 2 {
		t.Errorf("vadd bulk updates: %d want 2", m.UpdateParallel)
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := New(1)
	ops, _ := tt.Generate(isa.OpVAND_VV, 1, 2, 3, 0)
	c.Run(ops)
	if c.Stats.SearchParallel != 1 || c.Stats.UpdateParallel != 2 {
		t.Fatalf("stats: %+v", c.Stats)
	}
	if c.Stats.Cycles != 3 {
		t.Fatalf("cycles: %d", c.Stats.Cycles)
	}
	var total Stats
	total.Add(c.Stats)
	total.Add(c.Stats)
	if total.Cycles != 6 {
		t.Fatalf("Add: %+v", total)
	}
}

// TestTailElementsUndisturbed verifies the RISC-V tail policy at CSB
// scale: elements at and beyond vl keep their previous contents for
// every destination-writing instruction.
func TestTailElementsUndisturbed(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := newFixture(t, 2, rng)
	maxVL := f.c.MaxVL()
	w := isa.Window{Start: 3, VL: maxVL - 9}
	f.run(t, isa.OpVADD_VV, 9, 10, 11, 0, w)
	f.run(t, isa.OpVMUL_VV, 12, 13, 14, 0, w)
	f.run(t, isa.OpVMSEQ_VV, 15, 16, 17, 0, w)
	// fixture.run compares all MaxVL elements against golden, which
	// only writes inside the window — so reaching here proves the
	// pre-start and tail elements were preserved.
	_ = w
}

func TestSearchXDistributesComparand(t *testing.T) {
	c := New(1)
	// Element value 0xF0F0F0F0 at column 0 of v5.
	c.WriteElement(5, 0, 0xF0F0F0F0)
	c.Execute(tt.MicroOp{Kind: tt.KSearchX, Row: 5, X: 0xF0F0F0F0, Acc: sram.AccSet, Cycles: 1})
	// Every subarray should match column 0.
	for s := 0; s < chain.SubPerChain; s++ {
		if c.Chain(0).TagOf(s)&1 == 0 {
			t.Fatalf("subarray %d did not match its comparand bit", s)
		}
	}
	c.Execute(tt.MicroOp{Kind: tt.KSearchX, Row: 5, X: 0xF0F0F0F1, Acc: sram.AccSet, Cycles: 1})
	if c.Chain(0).TagOf(0)&1 != 0 {
		t.Fatal("subarray 0 should mismatch after flipping bit 0 of the comparand")
	}
}

func TestResetPreservesStats(t *testing.T) {
	c := New(1)
	c.WriteElement(1, 0, 42)
	ops, _ := tt.Generate(isa.OpVAND_VV, 1, 2, 3, 0)
	c.Run(ops)
	cyc := c.Stats.Cycles
	c.Reset()
	if c.ReadElement(1, 0) != 0 {
		t.Fatal("reset did not clear storage")
	}
	if c.Stats.Cycles != cyc {
		t.Fatal("reset should preserve statistics")
	}
}

// TestFirstSetTagChainBoundaries pins the element ordering of the
// priority encoder at chain boundaries. With N chains, element e lives
// at chain e%N column e/N — so with 4 chains, element 3 (chain 3,
// column 0) must beat element 4 (chain 0, column 1) even though chain
// 0 is scanned first.
func TestFirstSetTagChainBoundaries(t *testing.T) {
	c := New(4)
	// vfirst on an all-zero mask register: nothing set.
	seq, err := tt.GenerateSEW(isa.OpVFIRST_M, 0, 5, 0, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(seq)
	if got := c.FirstSetTag(); got != -1 {
		t.Fatalf("empty mask: vfirst = %d want -1", got)
	}

	// Element 3 = chain 3 col 0; element 4 = chain 0 col 1. The lower
	// element index wins although it lives in the last chain.
	c.WriteElement(5, 3, 1)
	c.WriteElement(5, 4, 1)
	c.Run(seq)
	if got := c.FirstSetTag(); got != 3 {
		t.Fatalf("vfirst = %d want 3 (chain-boundary ordering)", got)
	}

	// Masking element 3 out via vstart leaves element 4 as first.
	c.SetWindow(4, c.MaxVL())
	c.Run(seq)
	if got := c.FirstSetTag(); got != 4 {
		t.Fatalf("windowed vfirst = %d want 4", got)
	}

	// An element past vl is invisible even if its bit is set.
	c.SetWindow(0, 4)
	c.Run(seq)
	if got := c.FirstSetTag(); got != 3 {
		t.Fatalf("vl-clipped vfirst = %d want 3", got)
	}
}

// TestCpopChainBoundaries pins reduction behaviour across chain and
// window boundaries: the popcount must count exactly the elements in
// [vstart, vl), regardless of which chain or bitmap word they land in.
func TestCpopChainBoundaries(t *testing.T) {
	c := New(4)
	// Set the mask bit of every element; cpop then counts the window.
	for e := 0; e < c.MaxVL(); e++ {
		c.WriteElement(5, e, 1)
	}
	seq, err := tt.GenerateSEW(isa.OpVCPOP_M, 0, 5, 0, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ vstart, vl int }{
		{0, 128}, {0, 3}, {3, 5}, {4, 4}, {125, 128}, {1, 127},
	} {
		c.SetWindow(w.vstart, w.vl)
		c.ResetReduction()
		c.Run(seq)
		want := uint64(0)
		if w.vl > w.vstart {
			want = uint64(w.vl - w.vstart)
		}
		if got := c.ReductionResult(); got != want {
			t.Fatalf("window [%d,%d): cpop = %d want %d", w.vstart, w.vl, got, want)
		}
	}
}
