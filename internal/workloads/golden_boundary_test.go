package workloads

import (
	"sync"
	"testing"

	"cape/internal/core"
	"cape/internal/isa"
)

// boundaryWindows is the vstart/vl set that exercises every masked
// head/tail shape of the word-parallel bit-slice engine at MaxVL 128
// (two 64-lane words): an untouched tail word (63), an exact word
// (64), a one-lane spill (65), a head-masked first word (1,64), the
// minimal window crossing the boundary (63,65), a masked tail (5,127),
// the second word alone (64,128) and the full range.
var boundaryWindows = [][2]int{
	{0, 63}, {0, 64}, {0, 65}, {1, 64}, {63, 65}, {5, 127}, {64, 128}, {0, 128},
}

// boundaryInst is one instruction replayed at every boundary window.
type boundaryInst struct {
	op           isa.Opcode
	vd, vs2, vs1 int
	x            uint64
}

// boundaryFamilies covers every microop family the truth-table lowerer
// emits: serial ripple arithmetic, scalar-operand forms, parallel
// logic, compare masks (vv and vx), min/max selects, shifts, moves and
// merges, the reduction tree, and the query microops (ternary search
// and Hamming distance).
func boundaryFamilies() []struct {
	name string
	sew  int
	prog []boundaryInst
} {
	return []struct {
		name string
		sew  int
		prog []boundaryInst
	}{
		{"boundary/arith.vv", 32, []boundaryInst{
			{op: isa.OpVADD_VV, vd: 3, vs2: 1, vs1: 2},
			{op: isa.OpVSUB_VV, vd: 4, vs2: 3, vs1: 1},
			{op: isa.OpVMUL_VV, vd: 5, vs2: 4, vs1: 2},
		}},
		{"boundary/arith.vx", 32, []boundaryInst{
			{op: isa.OpVADD_VX, vd: 3, vs2: 1, x: 0x1234},
			{op: isa.OpVSUB_VX, vd: 4, vs2: 3, x: 7},
			{op: isa.OpVRSUB_VX, vd: 5, vs2: 4, x: 0xFFFF},
		}},
		{"boundary/logic", 32, []boundaryInst{
			{op: isa.OpVAND_VV, vd: 3, vs2: 1, vs1: 2},
			{op: isa.OpVOR_VV, vd: 4, vs2: 1, vs1: 2},
			{op: isa.OpVXOR_VV, vd: 5, vs2: 3, vs1: 4},
		}},
		{"boundary/cmp.vv", 32, []boundaryInst{
			{op: isa.OpVMSEQ_VV, vd: 0, vs2: 1, vs1: 2},
			{op: isa.OpVCPOP_M, vs2: 0},
			{op: isa.OpVMSLT_VV, vd: 0, vs2: 1, vs1: 2},
			{op: isa.OpVFIRST_M, vs2: 0},
			{op: isa.OpVMSNE_VV, vd: 0, vs2: 1, vs1: 1},
			{op: isa.OpVCPOP_M, vs2: 0},
		}},
		{"boundary/cmp.vx", 32, []boundaryInst{
			{op: isa.OpVMSEQ_VX, vd: 0, vs2: 1, x: 0x55AA55AA},
			{op: isa.OpVCPOP_M, vs2: 0},
			{op: isa.OpVMSLT_VX, vd: 0, vs2: 1, x: 1 << 30},
			{op: isa.OpVFIRST_M, vs2: 0},
			{op: isa.OpVMSNE_VX, vd: 0, vs2: 2, x: 0},
			{op: isa.OpVCPOP_M, vs2: 0},
		}},
		{"boundary/minmax", 32, []boundaryInst{
			{op: isa.OpVMAX_VV, vd: 3, vs2: 1, vs1: 2},
			{op: isa.OpVMIN_VV, vd: 4, vs2: 1, vs1: 2},
		}},
		{"boundary/shift", 32, []boundaryInst{
			{op: isa.OpVSLL_VI, vd: 3, vs2: 1, x: 31},
			{op: isa.OpVSRL_VI, vd: 4, vs2: 1, x: 13},
			{op: isa.OpVSRL_VI, vd: 5, vs2: 3, x: 0},
		}},
		{"boundary/move", 32, []boundaryInst{
			{op: isa.OpVMV_VV, vd: 3, vs2: 1},
			{op: isa.OpVMV_VX, vd: 4, x: 0xCAFEBABE},
			{op: isa.OpVMERGE_VVM, vd: 5, vs2: 1, vs1: 2},
			{op: isa.OpVMV_XS, vs2: 3},
		}},
		{"boundary/reduce", 32, []boundaryInst{
			{op: isa.OpVREDSUM_VS, vd: 5, vs2: 1, vs1: 2},
			{op: isa.OpVMV_XS, vs2: 5},
		}},
		{"boundary/query", 32, []boundaryInst{
			{op: isa.OpVMSEARCH_VX, vd: 0, vs2: 1, x: 0x0000_37F0_0000_FFF0},
			{op: isa.OpVCPOP_M, vs2: 0},
			{op: isa.OpVFIRST_M, vs2: 0},
			{op: isa.OpVHAMM_VX, vd: 3, vs2: 1, x: 0xBEEF},
			{op: isa.OpVHAMM_VX, vd: 2, vs2: 2, x: 0x1234},
			{op: isa.OpVCPOP_M, vs2: 0},
		}},
		{"boundary/narrow8", 8, []boundaryInst{
			{op: isa.OpVADD_VV, vd: 3, vs2: 1, vs1: 2},
			{op: isa.OpVRSUB_VX, vd: 4, vs2: 3, x: 0xFF},
			{op: isa.OpVMSEARCH_VX, vd: 0, vs2: 1, x: 0xF0AA},
			{op: isa.OpVCPOP_M, vs2: 0},
			{op: isa.OpVREDSUM_VS, vd: 5, vs2: 4, vs1: 6},
		}},
	}
}

// TestGoldenBoundaryVectors locks the bit-level backend's output for
// every microop family at word-boundary vl/vstart windows — the lane
// geometry the uint64 bit-slice engine masks by hand. Each family
// seeds a deterministic register file, replays its instructions at
// every boundary window on one backend, and digests the final register
// file plus every scalar result; the family's microoperation mix
// (csb.Stats) is pinned in model.json. Regenerate intentional changes
// with `go test ./internal/workloads -run TestGoldenBoundaryVectors
// -update-golden`.
func TestGoldenBoundaryVectors(t *testing.T) {
	var want map[string]goldenDigest
	var wantModel map[string]modelEntry
	if !*updateGolden {
		want = loadGolden(t)
		wantModel = loadModel(t)
	}

	var mu sync.Mutex
	got := make(map[string]goldenDigest)
	gotModel := make(map[string]modelEntry)

	t.Run("families", func(t *testing.T) {
		for _, fam := range boundaryFamilies() {
			fam := fam
			t.Run(fam.name, func(t *testing.T) {
				t.Parallel()
				b := core.NewBitBackend(4) // MaxVL 128: boundary at lane 64
				mask := uint32(1)<<uint(fam.sew) - 1
				if fam.sew == 32 {
					mask = ^uint32(0)
				}
				lcg := uint32(0xB0D4)
				for v := 0; v < 8; v++ {
					for e := 0; e < b.MaxVL(); e++ {
						lcg = lcg*1664525 + 1013904223
						b.WriteElem(v, e, lcg&mask)
					}
				}
				var scalars []any
				for _, w := range boundaryWindows {
					b.SetWindow(w[0], w[1], fam.sew)
					for _, bi := range fam.prog {
						inst := isa.Inst{Op: bi.op, Vd: uint8(bi.vd), Vs2: uint8(bi.vs2), Vs1: uint8(bi.vs1)}
						if res, has := b.Exec(inst, bi.x); has {
							scalars = append(scalars, res)
						}
					}
				}
				d, err := digestQueryState(b, scalars)
				if err != nil {
					t.Fatal(err)
				}
				stats := b.CSB().Stats
				model := modelEntry{CSB: &stats}
				mu.Lock()
				got[fam.name] = d
				gotModel[fam.name] = model
				mu.Unlock()
				checkModel(t, wantModel, fam.name, model)
				if want != nil {
					g, ok := want[fam.name]
					if !ok {
						t.Fatalf("no golden entry for %q (run -update-golden)", fam.name)
					}
					if d != g {
						t.Fatalf("boundary behavior drifted from golden:\n got %+v\nwant %+v\n"+
							"(if intentional, regenerate with -update-golden)", d, g)
					}
				}
			})
		}
	})

	if *updateGolden && !t.Failed() {
		mergeGolden(t, got)
		mergeModel(t, gotModel)
	}
}
