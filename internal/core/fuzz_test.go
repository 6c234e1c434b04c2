package core

import (
	"testing"

	"cape/internal/isa"
	"cape/internal/obs"
	"cape/internal/ucode"
)

// FuzzBitVsFastBackend is the differential fuzzer between the golden
// ISA semantics and the microcode engine: every input decodes to a
// random vector instruction sequence — all fast-backend opcodes, .vx
// scalar forms, window (vstart/vl) changes, aliased registers — which
// runs on four backends at once:
//
//   - FastBackend (golden ISA semantics),
//   - a BitBackend lowering every instruction directly (no cache),
//   - a traced BitBackend with a recorder installed and a tiny event
//     buffer, so tracing (including span drops) is proven not to
//     perturb architectural state,
//   - a BitBackend lowering through a deliberately tiny (two template)
//     ucode cache, so constant eviction, rebuild and scalar rebinding
//     are proven to never change architectural state.
//
// After every instruction the destination register and any scalar
// result must agree bit for bit across all backends; at the end the
// whole register file, the bit-backend CSB state digests and the
// execution statistics must match. The seed corpus encodes the
// workloads' instruction mixes so `go test` replays them as regression
// tests even without -fuzz.
func FuzzBitVsFastBackend(f *testing.F) {
	for _, seed := range fuzzSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, data)
	})
}

// fuzzOps is every opcode the fast backend implements; the decoder
// indexes into it.
var fuzzOps = []isa.Opcode{
	isa.OpVADD_VV, isa.OpVSUB_VV, isa.OpVMUL_VV, isa.OpVAND_VV,
	isa.OpVOR_VV, isa.OpVXOR_VV, isa.OpVMSEQ_VV, isa.OpVMSLT_VV,
	isa.OpVMSNE_VV, isa.OpVMAX_VV, isa.OpVMIN_VV,
	isa.OpVADD_VX, isa.OpVSUB_VX, isa.OpVMSEQ_VX, isa.OpVMSLT_VX,
	isa.OpVMSNE_VX, isa.OpVRSUB_VX,
	isa.OpVMV_VV, isa.OpVSLL_VI, isa.OpVSRL_VI, isa.OpVMERGE_VVM,
	isa.OpVMV_VX, isa.OpVREDSUM_VS, isa.OpVMV_XS, isa.OpVCPOP_M,
	isa.OpVFIRST_M,
	isa.OpVMSEARCH_VX, isa.OpVHAMM_VX,
}

const (
	fuzzChains  = 4 // MaxVL = 128
	fuzzMaxVL   = fuzzChains * 32
	fuzzRegs    = 8  // low registers only, so aliasing is frequent
	fuzzMaxInst = 48 // sequence cap keeps one fuzz case fast
)

// windowMarker in the opcode byte encodes a vstart/vl change instead
// of an instruction.
var windowMarker = len(fuzzOps)

// fuzzCase is the decoded form of one fuzz input. The encoding is
// byte-oriented so the fuzzer can mutate it meaningfully:
//
//	data[0]    SEW selector (8, 16 or 32 bits; fixed for the whole
//	           case — the microcode invariant requires values stored at
//	           a narrower SEW to have zeroed upper slices, which a
//	           mid-sequence SEW switch would violate for both backends
//	           in different ways)
//	data[1:5]  LCG seed for the initial register file
//	then records:
//	  op byte == windowMarker: two bytes vstart%129, vl%129
//	  op byte <  windowMarker: vd, vs2, vs1 (each %8) and two bytes of
//	                           scalar operand x (shift counts %32)
type fuzzRecord struct {
	window bool
	vstart int
	vl     int

	op         isa.Opcode
	vd, vs2    int
	vs1        int
	x          uint64
	hasScalarX bool
}

func decodeFuzzCase(data []byte) (sew int, lcg uint32, recs []fuzzRecord) {
	if len(data) < 5 {
		return 0, 0, nil
	}
	sew = []int{8, 16, 32}[int(data[0])%3]
	lcg = uint32(data[1]) | uint32(data[2])<<8 | uint32(data[3])<<16 | uint32(data[4])<<24
	i := 5
	for i < len(data) && len(recs) < fuzzMaxInst {
		sel := int(data[i]) % (windowMarker + 1)
		i++
		if sel == windowMarker {
			if i+2 > len(data) {
				break
			}
			recs = append(recs, fuzzRecord{
				window: true,
				vstart: int(data[i]) % (fuzzMaxVL + 1),
				vl:     int(data[i+1]) % (fuzzMaxVL + 1),
			})
			i += 2
			continue
		}
		if i+5 > len(data) {
			break
		}
		r := fuzzRecord{
			op:  fuzzOps[sel],
			vd:  int(data[i]) % fuzzRegs,
			vs2: int(data[i+1]) % fuzzRegs,
			vs1: int(data[i+2]) % fuzzRegs,
			x:   uint64(data[i+3]) | uint64(data[i+4])<<8,
		}
		i += 5
		switch r.op {
		case isa.OpVSLL_VI, isa.OpVSRL_VI:
			r.x %= 32
		case isa.OpVADD_VX, isa.OpVSUB_VX, isa.OpVMSEQ_VX, isa.OpVMSLT_VX,
			isa.OpVMSNE_VX, isa.OpVRSUB_VX, isa.OpVMV_VX, isa.OpVHAMM_VX:
			r.hasScalarX = true
		case isa.OpVMSEARCH_VX:
			// Replicate the two operand bytes across the element width so
			// the packed (value, care) pair is non-trivial at every SEW.
			value := uint64(data[i-2]) * 0x01010101
			care := uint64(data[i-1]) * 0x01010101
			keep := uint64(1)<<uint(sew) - 1
			r.x = value&keep | (care&keep)<<uint(sew)
			r.hasScalarX = true
		}
		recs = append(recs, r)
	}
	return sew, lcg, recs
}

// runDifferential executes one decoded case on all four backends and
// fails on the first architectural divergence.
func runDifferential(t *testing.T, data []byte) {
	t.Helper()
	sew, lcg, recs := decodeFuzzCase(data)
	if len(recs) == 0 {
		return
	}
	mask := uint32(1)<<uint(sew) - 1
	if sew == 32 {
		mask = ^uint32(0)
	}

	fast := NewFastBackend(fuzzMaxVL)
	direct := NewBitBackend(fuzzChains)
	traced := NewBitBackend(fuzzChains)
	rec := obs.New(4)
	rec.SetMaxEvents(64) // force event drops mid-case
	traced.SetRecorder(rec)
	cached := NewBitBackend(fuzzChains)
	cached.SetUcodeCache(ucode.NewCache(2)) // forced eviction on every mix
	backends := []struct {
		name string
		b    Backend
	}{{"fast", fast}, {"direct", direct}, {"traced", traced}, {"cached", cached}}

	// Identical masked initial state: the bit-level model stores narrow
	// elements with zeroed upper slices, so unmasked seeds would differ
	// from the fast backend before the first instruction runs.
	for v := 0; v < fuzzRegs; v++ {
		for e := 0; e < fuzzMaxVL; e++ {
			lcg = lcg*1664525 + 1013904223
			val := lcg & mask
			for _, bk := range backends {
				bk.b.WriteElem(v, e, val)
			}
		}
	}
	vstart, vl := 0, fuzzMaxVL
	for _, bk := range backends {
		bk.b.SetWindow(vstart, vl, sew)
	}

	for ri, r := range recs {
		if r.window {
			vstart, vl = r.vstart, r.vl
			for _, bk := range backends {
				bk.b.SetWindow(vstart, vl, sew)
			}
			continue
		}
		inst := isa.Inst{Op: r.op, Vd: uint8(r.vd), Vs2: uint8(r.vs2), Vs1: uint8(r.vs1)}
		res := make([]int64, len(backends))
		has := make([]bool, len(backends))
		for bi, bk := range backends {
			res[bi], has[bi] = bk.b.Exec(inst, r.x)
		}
		for bi := 1; bi < len(backends); bi++ {
			if has[bi] != has[0] || res[bi] != res[0] {
				t.Fatalf("inst %d (%v vd=%d vs2=%d vs1=%d x=%#x sew=%d window=[%d,%d)): scalar result %s=%d,%v vs fast=%d,%v",
					ri, r.op, r.vd, r.vs2, r.vs1, r.x, sew, vstart, vl,
					backends[bi].name, res[bi], has[bi], res[0], has[0])
			}
		}
		for e := 0; e < fuzzMaxVL; e++ {
			want := fast.ReadElem(r.vd, e)
			for bi := 1; bi < len(backends); bi++ {
				if got := backends[bi].b.ReadElem(r.vd, e); got != want {
					t.Fatalf("inst %d (%v vd=%d vs2=%d vs1=%d x=%#x sew=%d window=[%d,%d)): v%d[%d] %s=%#x fast=%#x",
						ri, r.op, r.vd, r.vs2, r.vs1, r.x, sew, vstart, vl,
						r.vd, e, backends[bi].name, got, want)
				}
			}
		}
	}

	// Whole-register-file sweep plus the CSB-level invariants: tracing
	// and caching must leave literally identical chain state and stats.
	for v := 0; v < fuzzRegs; v++ {
		for e := 0; e < fuzzMaxVL; e++ {
			want := fast.ReadElem(v, e)
			for bi := 1; bi < len(backends); bi++ {
				if got := backends[bi].b.ReadElem(v, e); got != want {
					t.Fatalf("final state v%d[%d]: %s=%#x fast=%#x",
						v, e, backends[bi].name, got, want)
				}
			}
		}
	}
	sd := direct.CSB().StateDigest()
	for _, bb := range []*BitBackend{traced, cached} {
		if d := bb.CSB().StateDigest(); d != sd {
			t.Fatalf("CSB state digest: direct %#x other %#x", sd, d)
		}
		if ds, os := direct.CSB().Stats, bb.CSB().Stats; ds != os {
			t.Fatalf("CSB stats diverged:\ndirect %+v\nother  %+v", ds, os)
		}
	}
}

// corpusBuilder assembles seed inputs in the decoder's byte encoding.
type corpusBuilder struct{ data []byte }

func newCorpus(sewSel byte, seed uint32) *corpusBuilder {
	return &corpusBuilder{data: []byte{
		sewSel,
		byte(seed), byte(seed >> 8), byte(seed >> 16), byte(seed >> 24),
	}}
}

func (c *corpusBuilder) window(vstart, vl int) *corpusBuilder {
	c.data = append(c.data, byte(windowMarker), byte(vstart), byte(vl))
	return c
}

func (c *corpusBuilder) inst(op isa.Opcode, vd, vs2, vs1 int, x uint64) *corpusBuilder {
	idx := -1
	for i, o := range fuzzOps {
		if o == op {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("corpus op not in fuzzOps")
	}
	c.data = append(c.data, byte(idx), byte(vd), byte(vs2), byte(vs1),
		byte(x), byte(x>>8))
	return c
}

// fuzzSeedCorpus encodes instruction mixes shaped like the built-in
// workloads, so the interesting interactions (reduction after
// arithmetic, masks feeding merges, narrow SEW, register aliasing) are
// exercised by plain `go test` runs as well as by the fuzzer.
func fuzzSeedCorpus() [][]byte {
	var seeds [][]byte
	add := func(c *corpusBuilder) { seeds = append(seeds, c.data) }

	// saxpy: y = a*x + y, with a splat and a partial window.
	add(newCorpus(2, 0x1234).
		inst(isa.OpVMV_VX, 3, 0, 0, 7).
		inst(isa.OpVMUL_VV, 4, 1, 3, 0).
		inst(isa.OpVADD_VV, 2, 4, 2, 0).
		window(0, 100).
		inst(isa.OpVMUL_VV, 4, 1, 3, 0).
		inst(isa.OpVADD_VV, 2, 4, 2, 0))

	// kmeans distance step: diff, square, accumulate, reduce to scalar.
	add(newCorpus(2, 0xBEEF).
		inst(isa.OpVSUB_VV, 3, 1, 2, 0).
		inst(isa.OpVMUL_VV, 3, 3, 3, 0).
		inst(isa.OpVADD_VV, 4, 4, 3, 0).
		inst(isa.OpVREDSUM_VS, 5, 4, 6, 0).
		inst(isa.OpVMV_XS, 0, 5, 0, 0))

	// string/word search: compare against a scalar, count and locate.
	add(newCorpus(2, 0xCAFE).
		inst(isa.OpVMSEQ_VX, 0, 1, 0, 42).
		inst(isa.OpVCPOP_M, 0, 0, 0, 0).
		inst(isa.OpVFIRST_M, 0, 0, 0, 0).
		window(5, 77).
		inst(isa.OpVMSLT_VX, 0, 2, 0, 9000).
		inst(isa.OpVCPOP_M, 0, 0, 0, 0).
		inst(isa.OpVFIRST_M, 0, 0, 0, 0))

	// mask pipeline: compare, merge under v0, min/max.
	add(newCorpus(2, 0x5150).
		inst(isa.OpVMSNE_VV, 0, 1, 2, 0).
		inst(isa.OpVMERGE_VVM, 3, 1, 2, 0).
		inst(isa.OpVMAX_VV, 4, 3, 1, 0).
		inst(isa.OpVMIN_VV, 5, 3, 2, 0))

	// logic and shifts, including shift-by-zero and by 31.
	add(newCorpus(2, 0x0F0F).
		inst(isa.OpVAND_VV, 3, 1, 2, 0).
		inst(isa.OpVOR_VV, 4, 1, 2, 0).
		inst(isa.OpVXOR_VV, 5, 3, 4, 0).
		inst(isa.OpVSLL_VI, 6, 5, 0, 31).
		inst(isa.OpVSRL_VI, 7, 5, 0, 0).
		inst(isa.OpVSRL_VI, 1, 6, 0, 13))

	// narrow SEW (8-bit) arithmetic with wraparound and reduction.
	add(newCorpus(0, 0xA5A5).
		inst(isa.OpVADD_VV, 3, 1, 2, 0).
		inst(isa.OpVMUL_VV, 4, 3, 3, 0).
		inst(isa.OpVRSUB_VX, 5, 4, 0, 0xFF).
		inst(isa.OpVREDSUM_VS, 6, 5, 7, 0))

	// 16-bit with window churn around chain boundaries (4 chains: the
	// elements 0..3 straddle all chains, 124..127 are the last column).
	add(newCorpus(1, 0x7777).
		window(0, 3).
		inst(isa.OpVADD_VX, 3, 1, 0, 1000).
		window(125, 128).
		inst(isa.OpVSUB_VV, 3, 3, 2, 0).
		window(0, 128).
		inst(isa.OpVMSLT_VV, 0, 3, 1, 0).
		inst(isa.OpVFIRST_M, 0, 0, 0, 0))

	// aggressive aliasing: vd == vs2 == vs1 for every op class.
	add(newCorpus(2, 0x3333).
		inst(isa.OpVADD_VV, 2, 2, 2, 0).
		inst(isa.OpVMUL_VV, 2, 2, 2, 0).
		inst(isa.OpVSUB_VV, 2, 2, 2, 0).
		inst(isa.OpVXOR_VV, 2, 2, 2, 0).
		inst(isa.OpVMSEQ_VV, 0, 0, 0, 0).
		inst(isa.OpVMV_VV, 2, 2, 0, 0))

	// query-engine shapes: ternary CAM search feeding count/locate, and
	// Hamming distance (including in-place) feeding a threshold select.
	add(newCorpus(2, 0x6B6B).
		inst(isa.OpVMSEARCH_VX, 0, 1, 0, 0x37FF). // value 0x37…, care 0xFF…
		inst(isa.OpVCPOP_M, 0, 0, 0, 0).
		inst(isa.OpVFIRST_M, 0, 0, 0, 0).
		inst(isa.OpVHAMM_VX, 3, 1, 0, 0xBEEF).
		inst(isa.OpVHAMM_VX, 2, 2, 0, 0x1234). // in-place distance
		inst(isa.OpVMSLT_VX, 0, 3, 0, 5).
		inst(isa.OpVCPOP_M, 0, 0, 0, 0))
	add(newCorpus(0, 0x2E2E). // 8-bit keys: full (value, care) coverage
					inst(isa.OpVMSEARCH_VX, 0, 1, 0, 0x0FAA).
					inst(isa.OpVFIRST_M, 0, 0, 0, 0).
					window(16, 96).
					inst(isa.OpVMSEARCH_VX, 0, 1, 0, 0x0000). // all-don't-care key
					inst(isa.OpVCPOP_M, 0, 0, 0, 0))

	// Word-boundary windows for the bit-slice engine: the uint64 path
	// processes 64 lanes per word, so vl values of 63/64/65/127/128 hit
	// an untouched tail word, an exact word, a one-lane spill, a masked
	// tail and the full range. Each gets arithmetic, a reduction and the
	// query microops so every masked head/tail variant is replayed.
	for _, vl := range []int{63, 64, 65, 127, 128} {
		add(newCorpus(2, uint32(0xB17B0+vl)).
			window(0, vl).
			inst(isa.OpVADD_VV, 3, 1, 2, 0).
			inst(isa.OpVMUL_VV, 4, 3, 1, 0).
			inst(isa.OpVREDSUM_VS, 5, 4, 6, 0).
			inst(isa.OpVMSEARCH_VX, 0, 1, 0, 0x42FF).
			inst(isa.OpVCPOP_M, 0, 0, 0, 0).
			inst(isa.OpVHAMM_VX, 6, 1, 0, 0xBEEF).
			inst(isa.OpVFIRST_M, 0, 0, 0, 0))
	}

	// Non-zero vstart around the 64-lane boundary: head-masked first
	// word, a window living entirely in the second word, and the
	// minimal two-lane window crossing the boundary.
	add(newCorpus(2, 0x51A57).
		window(1, 64).
		inst(isa.OpVSUB_VV, 3, 1, 2, 0).
		inst(isa.OpVMSEARCH_VX, 0, 3, 0, 0x10F0).
		inst(isa.OpVCPOP_M, 0, 0, 0, 0).
		window(63, 65).
		inst(isa.OpVADD_VX, 3, 3, 0, 7).
		inst(isa.OpVHAMM_VX, 4, 3, 0, 0x1234).
		window(65, 127).
		inst(isa.OpVXOR_VV, 4, 3, 1, 0).
		inst(isa.OpVFIRST_M, 0, 0, 0, 0))

	// empty and degenerate windows.
	add(newCorpus(2, 0x9999).
		window(64, 64).
		inst(isa.OpVADD_VV, 3, 1, 2, 0).
		window(100, 20).
		inst(isa.OpVMUL_VV, 4, 1, 2, 0).
		inst(isa.OpVCPOP_M, 0, 1, 0, 0).
		window(0, 128).
		inst(isa.OpVADD_VV, 3, 1, 2, 0))

	return seeds
}
