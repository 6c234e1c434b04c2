package core

import (
	"fmt"
	"math/bits"

	"cape/internal/csb"
	"cape/internal/isa"
	"cape/internal/obs"
	"cape/internal/telemetry"
	"cape/internal/ucode"
)

// Backend is the functional model of the Compute-Storage Block used by
// the Machine. Two implementations exist:
//
//   - BitBackend executes real associative microcode on the bit-level
//     chain/subarray model — the faithful simulator;
//   - FastBackend applies the golden ISA semantics directly — used for
//     system-scale workloads where simulating every search/update of
//     tens of thousands of subarrays would dominate wall-clock time.
//
// Cross-validation tests run identical programs on both and require
// bit-identical architectural state. Timing and energy are computed by
// the Machine from the instruction stream and are backend-independent.
type Backend interface {
	// MaxVL returns the hardware lane count.
	MaxVL() int
	// SetWindow installs the active element window and element width.
	SetWindow(vstart, vl, sew int)
	// Exec executes one vector ALU/reduction instruction functionally.
	// x is the scalar operand of .vx forms. Reductions and vmv.x.s
	// return a scalar result.
	Exec(inst isa.Inst, x uint64) (result int64, hasResult bool)
	// ReadElem/WriteElem are the VMU element access path.
	ReadElem(v, e int) uint32
	WriteElem(v, e int, val uint32)
	// Reset clears all architectural vector state and restores the
	// full window (machine pooling).
	Reset()
}

// FastBackend holds architectural vector state as plain slices.
type FastBackend struct {
	reg [isa.NumVRegs][]uint32
	// dirty has bit v set once register v may hold a nonzero element;
	// Reset clears only those registers.
	dirty  uint32
	window isa.Window
}

// NewFastBackend builds a fast functional backend with maxVL lanes.
func NewFastBackend(maxVL int) *FastBackend {
	b := &FastBackend{}
	for v := range b.reg {
		b.reg[v] = make([]uint32, maxVL)
	}
	b.window = isa.Window{Start: 0, VL: maxVL}
	return b
}

// MaxVL returns the lane count.
func (b *FastBackend) MaxVL() int { return len(b.reg[0]) }

// SetWindow installs the active window and element width.
func (b *FastBackend) SetWindow(vstart, vl, sew int) {
	b.window = isa.Window{Start: vstart, VL: vl, SEW: sew}
}

// Reset zeroes every register written since the last Reset, in place,
// and restores the full window.
func (b *FastBackend) Reset() {
	for d := b.dirty; d != 0; d &= d - 1 {
		clear(b.reg[bits.TrailingZeros32(d)])
	}
	b.dirty = 0
	b.window = isa.Window{Start: 0, VL: b.MaxVL()}
}

// ReadElem returns element e of register v.
func (b *FastBackend) ReadElem(v, e int) uint32 { return b.reg[v][e] }

// WriteElem stores element e of register v.
func (b *FastBackend) WriteElem(v, e int, val uint32) {
	b.dirty |= 1 << uint(v)
	b.reg[v][e] = val
}

// Exec applies golden semantics.
func (b *FastBackend) Exec(inst isa.Inst, x uint64) (int64, bool) {
	w := b.window
	vd, vs2, vs1 := int(inst.Vd), int(inst.Vs2), int(inst.Vs1)
	switch inst.Op {
	case isa.OpVADD_VV, isa.OpVSUB_VV, isa.OpVMUL_VV, isa.OpVAND_VV,
		isa.OpVOR_VV, isa.OpVXOR_VV, isa.OpVMSEQ_VV, isa.OpVMSLT_VV,
		isa.OpVMSNE_VV, isa.OpVMAX_VV, isa.OpVMIN_VV:
		isa.GoldenVV(inst.Op, b.reg[vd], b.reg[vs2], b.reg[vs1], w)
	case isa.OpVADD_VX, isa.OpVSUB_VX, isa.OpVMSEQ_VX, isa.OpVMSLT_VX,
		isa.OpVMSNE_VX, isa.OpVRSUB_VX, isa.OpVHAMM_VX:
		isa.GoldenVX(inst.Op, b.reg[vd], b.reg[vs2], uint32(x), w)
	case isa.OpVMSEARCH_VX:
		// x carries the packed (value, care) pair: no 32-bit truncation.
		isa.GoldenMaskedSearch(b.reg[vd], b.reg[vs2], x, w)
	case isa.OpVMV_VV:
		isa.GoldenCopy(b.reg[vd], b.reg[vs2], w)
	case isa.OpVSLL_VI, isa.OpVSRL_VI:
		isa.GoldenShift(inst.Op, b.reg[vd], b.reg[vs2], uint(x), w)
	case isa.OpVMERGE_VVM:
		isa.GoldenMerge(b.reg[vd], b.reg[vs2], b.reg[vs1], b.reg[0], w)
	case isa.OpVMV_VX:
		isa.GoldenSplat(b.reg[vd], uint32(x), w)
	case isa.OpVREDSUM_VS:
		sum := isa.GoldenRedsum(b.reg[vs2], b.reg[vs1], w)
		b.reg[vd][0] = sum
	case isa.OpVMV_XS:
		v := b.reg[vs2][0] & w.Mask()
		k := 32 - uint(w.Bits())
		return int64(int32(v<<k) >> k), true
	case isa.OpVCPOP_M:
		return isa.GoldenCpop(b.reg[vs2], w), true
	case isa.OpVFIRST_M:
		return isa.GoldenFirst(b.reg[vs2], w), true
	default:
		panic(fmt.Sprintf("core: fast backend cannot execute %v", inst.Op))
	}
	// Every case that reaches here wrote vd; the scalar-result ones
	// returned above without touching the register file.
	b.dirty |= 1 << uint(vd)
	return 0, false
}

// BitBackend executes associative microcode on the bit-level CSB.
type BitBackend struct {
	csb *csb.CSB
	sew int
	// ucache is the microcode template cache used when Exec lowers for
	// itself (standalone backends, tests). The Machine path lowers once
	// in issueALU and calls ExecSeq instead.
	ucache *ucode.Cache
}

// NewBitBackend builds a bit-level backend with the given chain count.
func NewBitBackend(chains int) *BitBackend {
	return &BitBackend{csb: csb.New(chains), sew: 32}
}

// CSB exposes the underlying block (memory-only mode, tests).
func (b *BitBackend) CSB() *csb.CSB { return b.csb }

// SetRecorder installs (or, with nil, removes) the observability
// recorder on the underlying CSB.
func (b *BitBackend) SetRecorder(r *obs.Recorder) { b.csb.SetRecorder(r) }

// SetPMU installs (or, with nil, removes) the always-on perf counters
// on the underlying CSB.
func (b *BitBackend) SetPMU(p *telemetry.PMU) { b.csb.SetPMU(p) }

// SetUcodeCache installs (or, with nil, removes) the microcode
// template cache Exec lowers through. Templates are immutable, so the
// cache may be shared with other backends and machines.
func (b *BitBackend) SetUcodeCache(c *ucode.Cache) { b.ucache = c }

// UcodeCache returns the installed template cache (nil = uncached).
func (b *BitBackend) UcodeCache() *ucode.Cache { return b.ucache }

// MaxVL returns the lane count.
func (b *BitBackend) MaxVL() int { return b.csb.MaxVL() }

// SetWindow installs the active window and element width.
func (b *BitBackend) SetWindow(vstart, vl, sew int) {
	b.csb.SetWindow(vstart, vl)
	if sew == 0 {
		sew = 32
	}
	b.sew = sew
}

// Reset clears every chain and restores the full window.
func (b *BitBackend) Reset() {
	b.csb.Reset()
	b.sew = 32
}

// ReadElem returns element e of register v.
func (b *BitBackend) ReadElem(v, e int) uint32 { return b.csb.ReadElement(v, e) }

// WriteElem stores element e of register v.
func (b *BitBackend) WriteElem(v, e int, val uint32) { b.csb.WriteElement(v, e, val) }

// Exec lowers the instruction through the template cache and runs its
// microcode.
func (b *BitBackend) Exec(inst isa.Inst, x uint64) (int64, bool) {
	if inst.Op == isa.OpVMV_XS {
		w := isa.Window{SEW: b.sew}
		v := b.csb.ReadElement(int(inst.Vs2), 0) & w.Mask()
		k := 32 - uint(w.Bits())
		return int64(int32(v<<k) >> k), true
	}
	seq, err := ucode.Lower(b.ucache, inst.Op, int(inst.Vd), int(inst.Vs2), int(inst.Vs1), x, b.sew)
	if err != nil {
		panic(fmt.Sprintf("core: bit backend: %v", err))
	}
	return b.ExecSeq(inst, seq)
}

// ExecSeq runs an already-lowered sequence for inst. The Machine
// lowers once per instruction (execution, trace mix and energy share
// one Seq) and executes through here; inst must not be vmv.x.s, which
// has no microcode.
func (b *BitBackend) ExecSeq(inst isa.Inst, seq ucode.Seq) (int64, bool) {
	w := isa.Window{SEW: b.sew}
	b.csb.ResetReduction()
	b.csb.Run(seq.Ops())
	switch inst.Op {
	case isa.OpVREDSUM_VS:
		vd, vs1 := int(inst.Vd), int(inst.Vs1)
		sum := (uint32(b.csb.ReductionResult()) + b.csb.ReadElement(vs1, 0)) & w.Mask()
		b.csb.WriteElement(vd, 0, sum)
		return 0, false
	case isa.OpVCPOP_M:
		return int64(b.csb.ReductionResult()), true
	case isa.OpVFIRST_M:
		return b.csb.FirstSetTag(), true
	}
	return 0, false
}
