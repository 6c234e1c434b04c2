package csb

import (
	"math/rand"
	"testing"

	"cape/internal/isa"
	"cape/internal/sram"
	"cape/internal/tt"
)

// metaRows is the dirty-row mask of the microcode's metadata rows
// (carry, temporaries), which arithmetic sequences write.
const metaRows = (uint64(1)<<sram.MetaRows - 1) << sram.DataRows

// TestDirtyRowsTrackWriters pins the bit-slice engine's dirty-row set
// without any timing: a fresh engine has nothing to clear, a write of
// zeros into a clean row leaves it clean, and one vadd.vv dirties only
// its destination plus metadata rows — never its sources.
func TestDirtyRowsTrackWriters(t *testing.T) {
	c := New(4)
	bm := c.bits.bm
	if d := bm.DirtyRows(); d != 0 {
		t.Fatalf("fresh engine has dirty rows %#x", d)
	}
	c.WriteElement(5, 17, 0)
	if d := bm.DirtyRows(); d != 0 {
		t.Fatalf("writing zero dirtied rows %#x", d)
	}
	c.Reset()
	ops, err := tt.Generate(isa.OpVADD_VV, 3, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(ops)
	if d := bm.DirtyRows(); d&^metaRows != 1<<3 {
		t.Fatalf("dirty rows %#x after vadd.vv v3, v1, v2: want v3 plus metadata rows only", d)
	}
	// A sentinel set behind the tracker's back in an unmarked row must
	// survive: Reset clears the marked rows and nothing else.
	bm.Row(0, 20)[0] = 1
	c.Reset()
	if d := bm.DirtyRows(); d != 0 {
		t.Fatalf("Reset left dirty rows %#x", d)
	}
	if bm.Row(0, 20)[0] != 1 {
		t.Fatal("Reset cleared row 20, which nothing marked")
	}
	bm.Row(0, 20)[0] = 0
	c.WriteElement(9, 100, 0xdead)
	c.WriteRowWise(2, 7, 30, 1)
	if d := bm.DirtyRows(); d != 1<<9|1<<30 {
		t.Fatalf("dirty rows %#x after element and row-wise writes, want rows 9 and 30", d)
	}
}

// TestResetMatchesFreshEngine: after random element writes and a mix
// of microcode sequences under random windows, a reset bit-slice
// engine has the state digest of a freshly built one.
func TestResetMatchesFreshEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := []isa.Opcode{
		isa.OpVADD_VV, isa.OpVMUL_VV, isa.OpVMV_VX, isa.OpVMERGE_VVM,
		isa.OpVREDSUM_VS, isa.OpVMSEARCH_VX, isa.OpVHAMM_VX, isa.OpVSLL_VI,
	}
	for _, n := range []int{1, 3, 8} {
		c := New(n)
		want := New(n).StateDigest()
		for round := 0; round < 3; round++ {
			for i := 0; i < 40; i++ {
				c.WriteElement(rng.Intn(isa.NumVRegs), rng.Intn(c.MaxVL()), rng.Uint32())
			}
			for _, op := range ops {
				vl := 1 + rng.Intn(c.MaxVL())
				c.SetWindow(rng.Intn(vl+1), vl)
				seq, err := tt.Generate(op, rng.Intn(isa.NumVRegs), rng.Intn(isa.NumVRegs),
					rng.Intn(isa.NumVRegs), uint64(rng.Uint32()%32))
				if err != nil {
					t.Fatal(err)
				}
				c.Run(seq)
			}
			c.Reset()
			if got := c.StateDigest(); got != want {
				t.Fatalf("%d chains, round %d: reset digest %#x, fresh %#x", n, round, got, want)
			}
		}
	}
}
