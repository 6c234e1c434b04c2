package csb

import (
	"testing"

	"cape/internal/isa"
	"cape/internal/tt"
)

// FuzzBitSliceVsScalar is the differential wall pinning the word-
// parallel bit-slice engine (New) against the retired per-column
// reference engine (NewScalar). Every input decodes to a random
// microop-stream case — vector instructions lowered through
// tt.GenerateSEW, window (vstart/vl) changes, aliased registers — that
// runs on both engines at once:
//
//   - scalar: NewScalar, the per-chain/per-column loop the bit-slice
//     path replaced,
//   - bits: New, the uint64 bit-slice engine.
//
// After every instruction the full architectural digest (registers,
// tags, enables, window, reduction accumulator), the reduction result
// and the vfirst priority encoder must agree; at the end the execution
// statistics must be identical as well. The seed
// corpus pins the query microops (vmsearch.vx, vhamm.vx) and vl values
// straddling the 64-lane word boundary (63/64/65/127/128) with
// non-zero vstart, so plain `go test` replays the boundary cases that
// motivated the masked head/tail handling.
func FuzzBitSliceVsScalar(f *testing.F) {
	for _, seed := range bitsliceSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runBitsliceDifferential(t, data)
	})
}

// bitsliceOps is the instruction set the fuzzer lowers from. vmv.x.s is
// excluded: it has no microcode (the backend special-cases it).
var bitsliceOps = []isa.Opcode{
	isa.OpVADD_VV, isa.OpVSUB_VV, isa.OpVMUL_VV, isa.OpVAND_VV,
	isa.OpVOR_VV, isa.OpVXOR_VV, isa.OpVMSEQ_VV, isa.OpVMSLT_VV,
	isa.OpVMSNE_VV, isa.OpVMAX_VV, isa.OpVMIN_VV,
	isa.OpVADD_VX, isa.OpVSUB_VX, isa.OpVMSEQ_VX, isa.OpVMSLT_VX,
	isa.OpVMSNE_VX, isa.OpVRSUB_VX,
	isa.OpVMV_VV, isa.OpVSLL_VI, isa.OpVSRL_VI, isa.OpVMERGE_VVM,
	isa.OpVMV_VX, isa.OpVREDSUM_VS, isa.OpVCPOP_M, isa.OpVFIRST_M,
	isa.OpVMSEARCH_VX, isa.OpVHAMM_VX,
}

const (
	bitsliceChains  = 4 // MaxVL = 128: two bitmap words, boundary at 64
	bitsliceMaxVL   = bitsliceChains * 32
	bitsliceRegs    = 8
	bitsliceMaxInst = 24
)

// bitsliceWindowMarker encodes a vstart/vl change in the op byte.
var bitsliceWindowMarker = len(bitsliceOps)

func runBitsliceDifferential(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 5 {
		return
	}
	sew := []int{8, 16, 32}[int(data[0])%3]
	lcg := uint32(data[1]) | uint32(data[2])<<8 | uint32(data[3])<<16 | uint32(data[4])<<24
	mask := uint32(1)<<uint(sew) - 1
	if sew == 32 {
		mask = ^uint32(0)
	}

	scalar := NewScalar(bitsliceChains)
	bits := New(bitsliceChains)
	engines := []struct {
		name string
		c    *CSB
	}{{"scalar", scalar}, {"bits", bits}}

	// Identical masked initial register file on every engine.
	for v := 0; v < bitsliceRegs; v++ {
		for e := 0; e < bitsliceMaxVL; e++ {
			lcg = lcg*1664525 + 1013904223
			val := lcg & mask
			for _, en := range engines {
				en.c.WriteElement(v, e, val)
			}
		}
	}

	check := func(ri int, what string) {
		d0 := scalar.StateDigest()
		r0 := scalar.ReductionResult()
		f0 := scalar.FirstSetTag()
		for _, en := range engines[1:] {
			if d := en.c.StateDigest(); d != d0 {
				t.Fatalf("record %d (%s): %s digest %#x scalar %#x", ri, what, en.name, d, d0)
			}
			if r := en.c.ReductionResult(); r != r0 {
				t.Fatalf("record %d (%s): %s reduction %#x scalar %#x", ri, what, en.name, r, r0)
			}
			if fs := en.c.FirstSetTag(); fs != f0 {
				t.Fatalf("record %d (%s): %s vfirst %d scalar %d", ri, what, en.name, fs, f0)
			}
		}
	}

	i, ri := 5, 0
	for i < len(data) && ri < bitsliceMaxInst {
		sel := int(data[i]) % (bitsliceWindowMarker + 1)
		i++
		if sel == bitsliceWindowMarker {
			if i+2 > len(data) {
				break
			}
			vstart := int(data[i]) % (bitsliceMaxVL + 1)
			vl := int(data[i+1]) % (bitsliceMaxVL + 1)
			i += 2
			for _, en := range engines {
				en.c.SetWindow(vstart, vl)
			}
			check(ri, "window")
			ri++
			continue
		}
		if i+5 > len(data) {
			break
		}
		op := bitsliceOps[sel]
		vd := int(data[i]) % bitsliceRegs
		vs2 := int(data[i+1]) % bitsliceRegs
		vs1 := int(data[i+2]) % bitsliceRegs
		x := uint64(data[i+3]) | uint64(data[i+4])<<8
		switch op {
		case isa.OpVSLL_VI, isa.OpVSRL_VI:
			x %= 32
		case isa.OpVMSEARCH_VX:
			value := uint64(data[i+3]) * 0x01010101
			care := uint64(data[i+4]) * 0x01010101
			keep := uint64(1)<<uint(sew) - 1
			x = value&keep | (care&keep)<<uint(sew)
		}
		i += 5
		ops, err := tt.GenerateSEW(op, vd, vs2, vs1, x, sew)
		if err != nil {
			t.Fatalf("record %d: lower %v: %v", ri, op, err)
		}
		for _, en := range engines {
			en.c.ResetReduction()
			en.c.Run(ops)
		}
		check(ri, op.String())
		ri++
	}

	for _, en := range engines[1:] {
		if en.c.Stats != scalar.Stats {
			t.Fatalf("stats diverged:\nscalar %+v\n%s %+v", scalar.Stats, en.name, en.c.Stats)
		}
	}
}

// bitsliceCorpus assembles seed inputs in the decoder's byte encoding.
type bitsliceCorpus struct{ data []byte }

func newBitsliceCorpus(sewSel byte, seed uint32) *bitsliceCorpus {
	return &bitsliceCorpus{data: []byte{
		sewSel,
		byte(seed), byte(seed >> 8), byte(seed >> 16), byte(seed >> 24),
	}}
}

func (c *bitsliceCorpus) window(vstart, vl int) *bitsliceCorpus {
	c.data = append(c.data, byte(bitsliceWindowMarker), byte(vstart), byte(vl))
	return c
}

func (c *bitsliceCorpus) inst(op isa.Opcode, vd, vs2, vs1 int, x uint64) *bitsliceCorpus {
	idx := -1
	for i, o := range bitsliceOps {
		if o == op {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("corpus op not in bitsliceOps")
	}
	c.data = append(c.data, byte(idx), byte(vd), byte(vs2), byte(vs1),
		byte(x), byte(x>>8))
	return c
}

// bitsliceSeedCorpus pins the word-boundary windows and query microops
// on both engines.
func bitsliceSeedCorpus() [][]byte {
	var seeds [][]byte
	add := func(c *bitsliceCorpus) { seeds = append(seeds, c.data) }

	// vl straddling the 64-lane word boundary, arithmetic + reduce at
	// each: 63 (tail word untouched), 64 (exactly one word), 65 (one
	// masked lane in word 1), 127 (masked tail), 128 (full range).
	for _, vl := range []int{63, 64, 65, 127, 128} {
		add(newBitsliceCorpus(2, uint32(0xB17B0+vl)).
			window(0, vl).
			inst(isa.OpVADD_VV, 3, 1, 2, 0).
			inst(isa.OpVMUL_VV, 4, 3, 1, 0).
			inst(isa.OpVREDSUM_VS, 5, 4, 6, 0).
			inst(isa.OpVMSLT_VX, 0, 3, 0, 500).
			inst(isa.OpVCPOP_M, 0, 0, 0, 0).
			inst(isa.OpVFIRST_M, 0, 0, 0, 0))
	}

	// Non-zero vstart around the boundary: head-masked word 0, windows
	// entirely inside word 1, and a single-lane window crossing 64.
	add(newBitsliceCorpus(2, 0x51A57).
		window(1, 64).
		inst(isa.OpVSUB_VV, 3, 1, 2, 0).
		window(63, 65).
		inst(isa.OpVADD_VX, 3, 3, 0, 7).
		window(65, 127).
		inst(isa.OpVXOR_VV, 4, 3, 1, 0).
		window(64, 128).
		inst(isa.OpVMSNE_VV, 0, 4, 1, 0).
		inst(isa.OpVFIRST_M, 0, 0, 0, 0))

	// Query microops across the same boundary windows.
	add(newBitsliceCorpus(2, 0xCA4E).
		window(0, 63).
		inst(isa.OpVMSEARCH_VX, 0, 1, 0, 0x37FF).
		inst(isa.OpVCPOP_M, 0, 0, 0, 0).
		window(1, 65).
		inst(isa.OpVMSEARCH_VX, 0, 1, 0, 0x00AA). // low care: many matches
		inst(isa.OpVFIRST_M, 0, 0, 0, 0).
		window(63, 128).
		inst(isa.OpVHAMM_VX, 3, 1, 0, 0xBEEF).
		inst(isa.OpVHAMM_VX, 2, 2, 0, 0x1234). // in-place distance
		inst(isa.OpVMSLT_VX, 0, 3, 0, 9).
		inst(isa.OpVCPOP_M, 0, 0, 0, 0))

	// Narrow SEW at the boundary: 8-bit wraparound, 16-bit search.
	add(newBitsliceCorpus(0, 0xA5A5).
		window(0, 65).
		inst(isa.OpVADD_VV, 3, 1, 2, 0).
		inst(isa.OpVRSUB_VX, 5, 3, 0, 0xFF).
		inst(isa.OpVHAMM_VX, 4, 5, 0, 0x5A).
		inst(isa.OpVREDSUM_VS, 6, 4, 7, 0))
	add(newBitsliceCorpus(1, 0x7777).
		window(64, 127).
		inst(isa.OpVMSEARCH_VX, 0, 1, 0, 0xF0F0).
		inst(isa.OpVCPOP_M, 0, 0, 0, 0).
		window(127, 128).
		inst(isa.OpVMAX_VV, 4, 1, 2, 0).
		inst(isa.OpVMIN_VV, 5, 1, 2, 0))

	// Empty and inverted windows plus shifts, merges and aliasing.
	add(newBitsliceCorpus(2, 0x9999).
		window(64, 64).
		inst(isa.OpVADD_VV, 3, 1, 2, 0).
		window(100, 20).
		inst(isa.OpVCPOP_M, 0, 1, 0, 0).
		window(0, 128).
		inst(isa.OpVSLL_VI, 6, 1, 0, 31).
		inst(isa.OpVSRL_VI, 7, 6, 0, 13).
		inst(isa.OpVMERGE_VVM, 3, 1, 2, 0).
		inst(isa.OpVMUL_VV, 2, 2, 2, 0))

	return seeds
}
