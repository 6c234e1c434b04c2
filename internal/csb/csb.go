// Package csb models CAPE's Compute-Storage Block: the full array of
// chains, the element interleave used by the Vector Memory Unit, the
// active window (vl/vstart), the global reduction tree, and the
// execution of broadcast microoperation commands (paper §III–§V).
package csb

import (
	"fmt"
	"math/bits"

	"cape/internal/chain"
	"cape/internal/fault"
	"cape/internal/isa"
	"cape/internal/obs"
	"cape/internal/sram"
	"cape/internal/telemetry"
	"cape/internal/tt"
)

// CSB is the functional model of the compute-storage block.
//
// Concurrency: a CSB is driven by one goroutine at a time (the machine
// issues vector instructions strictly in order), and every command runs
// to completion on that goroutine. Host-side parallelism lives above
// the CSB, in independent machines.
type CSB struct {
	// n is the chain count. Exactly one of bits/chains is populated:
	// New builds the word-parallel bit-slice engine (bits != nil);
	// NewScalar builds the retired per-chain reference engine (chains
	// != nil), kept for differential testing. Both expose identical
	// architectural behaviour, Stats and StateDigest values.
	n      int
	bits   *bitState
	chains []*chain.Chain
	vl     int
	vstart int

	// redAcc is the global reduction accumulator (popcount tree +
	// shifter + adder + scalar register of §IV-E).
	redAcc uint64

	// rec, when non-nil, receives one host-time span per sampled
	// microcode run. The nil case must stay as cheap as the untraced
	// simulator: Run pays one nil check for it.
	rec *obs.Recorder

	// finj and stuckAtRun form the armed per-attempt fault plan (see
	// fault.go); runIdx counts Run calls since arming. Like tracing, the
	// disarmed hot path pays one nil check in Run.
	finj       *fault.Injector
	stuckAtRun int64
	runIdx     int64

	// pmu, when non-nil, receives one CSBDelta per microcode run —
	// always-on perf counters shared across a pool shard's machines.
	// Like tracing and fault injection, the disarmed hot path pays one
	// nil check in Run.
	pmu *telemetry.PMU

	// Stats accumulates the microoperation mix executed so far.
	Stats Stats
}

// Stats counts executed microoperations, split the way the energy
// model needs them (Table II distinguishes bit-serial and bit-parallel
// flavours).
type Stats struct {
	SearchSerial   uint64
	SearchParallel uint64
	UpdateSerial   uint64
	UpdateProp     uint64
	UpdateParallel uint64
	Reduce         uint64
	Enable         uint64
	ElemReads      uint64
	ElemWrites     uint64
	Cycles         uint64
	// Match0Bits/Match1Bits count the comparand bits searches drive
	// against stored 0s and 1s — the match-line activity proxy the CAM
	// energy model keys on. Derived from the op encoding alone (see
	// matchBits), so both engines agree exactly.
	Match0Bits uint64
	Match1Bits uint64
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.SearchSerial += o.SearchSerial
	s.SearchParallel += o.SearchParallel
	s.UpdateSerial += o.UpdateSerial
	s.UpdateProp += o.UpdateProp
	s.UpdateParallel += o.UpdateParallel
	s.Reduce += o.Reduce
	s.Enable += o.Enable
	s.ElemReads += o.ElemReads
	s.ElemWrites += o.ElemWrites
	s.Cycles += o.Cycles
	s.Match0Bits += o.Match0Bits
	s.Match1Bits += o.Match1Bits
}

// matchBits counts the comparand bits one search microop drives
// against stored 0s (m0) and stored 1s (m1), per chain. KSearch drives
// the key's cared rows once; KSearchAll drives them in every subarray;
// KSearchX drives exactly one row bit per subarray, with polarity
// taken from the scalar operand. Non-search kinds drive nothing.
func matchBits(op *tt.MicroOp) (m0, m1 uint64) {
	switch op.Kind {
	case tt.KSearch:
		m1 = uint64(bits.OnesCount64(op.Key.Care & op.Key.Value))
		m0 = uint64(bits.OnesCount64(op.Key.Care &^ op.Key.Value))
	case tt.KSearchAll:
		m1 = uint64(bits.OnesCount64(op.Key.Care&op.Key.Value)) * chain.SubPerChain
		m0 = uint64(bits.OnesCount64(op.Key.Care&^op.Key.Value)) * chain.SubPerChain
	case tt.KSearchX:
		m1 = uint64(bits.OnesCount64(op.X & (1<<chain.SubPerChain - 1)))
		m0 = chain.SubPerChain - m1
	}
	return m0, m1
}

// New builds a CSB with numChains chains on the word-parallel
// bit-slice engine (see bitslice.go). CAPE32k uses 1,024 chains,
// CAPE131k uses 4,096 (paper §VI).
func New(numChains int) *CSB {
	if numChains <= 0 {
		panic("csb: chain count must be positive")
	}
	c := &CSB{
		n:          numChains,
		bits:       newBitState(numChains),
		stuckAtRun: -1,
	}
	c.SetWindow(0, c.MaxVL())
	return c
}

// NewScalar builds a CSB on the retired per-chain scalar engine: one
// chain.Chain per chain, every microoperation evaluated one uint32 of
// columns at a time. It is kept as the independent reference
// implementation that the differential suites (FuzzBitSliceVsScalar,
// the bitslice benchmark) pin the word-parallel engine against; new
// production code should use New.
func NewScalar(numChains int) *CSB {
	if numChains <= 0 {
		panic("csb: chain count must be positive")
	}
	c := &CSB{
		n:          numChains,
		chains:     make([]*chain.Chain, numChains),
		stuckAtRun: -1,
	}
	for i := range c.chains {
		c.chains[i] = chain.New()
	}
	c.SetWindow(0, c.MaxVL())
	return c
}

// NumChains returns the chain count.
func (c *CSB) NumChains() int { return c.n }

// MaxVL is the hardware vector-length limit: one element per column per
// chain.
func (c *CSB) MaxVL() int { return c.n * chain.ColsPerChain }

// Chain returns chain k. On the scalar engine this is the live chain;
// on the bit-slice engine it is a freshly materialized read-only
// snapshot (tests and diagnostics only — writes to it are not seen by
// the engine; the row-wise memory modes go through ReadRowWise /
// WriteRowWise instead).
func (c *CSB) Chain(k int) *chain.Chain {
	if c.bits != nil {
		if k < 0 || k >= c.n {
			panic(fmt.Sprintf("csb: chain %d out of range [0,%d)", k, c.n))
		}
		return c.bits.bm.UnpackChain(k)
	}
	return c.chains[k]
}

// ReadRowWise reads the 32-bit word of (chain ch, subarray sub, row) in
// the row-granularity view used by memory-only mode (bit c = column c).
func (c *CSB) ReadRowWise(ch, sub, row int) uint32 {
	if c.bits != nil {
		return c.bits.bm.ReadRowWise(ch, sub, row)
	}
	return c.chains[ch].ReadRowWise(sub, row)
}

// WriteRowWise writes the 32-bit word of (chain ch, subarray sub, row)
// in the row-granularity view used by memory-only mode.
func (c *CSB) WriteRowWise(ch, sub, row int, v uint32) {
	if c.bits != nil {
		c.bits.bm.WriteRowWise(ch, sub, row, v)
		return
	}
	c.chains[ch].WriteRowWise(sub, row, v)
}

// MatchRow returns the per-element match mask of a bit-parallel
// comparand-distributed search (the vmseq.vx circuit path): bit e of
// the result is set when the bit-sliced element e of register row
// equals key. It is purely combinational — the memory-mode probe whose
// result goes straight to the match bus — and leaves tags untouched.
// The window is not applied; callers filter candidates themselves.
func (c *CSB) MatchRow(row int, key uint32) sram.Bitmap {
	out := sram.NewBitmap(c.MaxVL())
	if c.bits != nil {
		bm := c.bits.bm
		for w := range out {
			m := ^uint64(0)
			for s := 0; s < chain.SubPerChain; s++ {
				r := bm.Row(s, row)[w]
				if key&(1<<uint(s)) != 0 {
					m &= r
				} else {
					m &^= r
				}
			}
			out[w] = m
		}
		// Keep tail lanes clean so callers can iterate set bits blindly.
		tail := c.MaxVL() % sram.BitmapWordBits
		if tail != 0 {
			out[len(out)-1] &= ^uint64(0) >> uint(sram.BitmapWordBits-tail)
		}
		return out
	}
	for k, ch := range c.chains {
		m := uint32(sram.AllCols)
		for s := 0; s < chain.SubPerChain; s++ {
			r := ch.Sub(s).ReadRow(row)
			if key&(1<<uint(s)) != 0 {
				m &= r
			} else {
				m &^= r
			}
		}
		for m != 0 {
			col := bits.TrailingZeros32(m)
			m &= m - 1
			out.Set(c.ElementIndex(k, col))
		}
	}
	return out
}

// Window returns the current active element window.
func (c *CSB) Window() isa.Window { return isa.Window{Start: c.vstart, VL: c.vl} }

// chainOf maps element index e to its chain and column. Adjacent
// elements live in different chains so that one memory sub-request can
// be consumed by many chains in a single cycle (paper §V-E).
func (c *CSB) chainOf(e int) (chainIdx, col int) {
	return e % c.n, e / c.n
}

// ElementIndex is the inverse mapping (chain, column) -> element. On
// the bit-slice engine this is also the lane index: lane col*N + k of
// every bitmap is element col*N + k.
func (c *CSB) ElementIndex(chainIdx, col int) int {
	return col*c.n + chainIdx
}

// SetWindow installs vstart/vl and recomputes each chain's
// active-column mask (paper §V-F: "each chain controller locally
// computes a mask given its chain ID, the vstart value, the vl value").
func (c *CSB) SetWindow(vstart, vl int) {
	if vl < 0 || vl > c.MaxVL() {
		panic(fmt.Sprintf("csb: vl %d out of range [0,%d]", vl, c.MaxVL()))
	}
	if vstart < 0 {
		panic("csb: negative vstart")
	}
	c.vstart = vstart
	c.vl = vl
	if c.bits != nil {
		// Lane index == element index, so the window is one contiguous
		// lane range with masked head/tail words.
		sram.WindowInto(c.bits.bm.Active, c.MaxVL(), vstart, vl)
		return
	}
	n := c.n
	for k, ch := range c.chains {
		var m uint32
		for col := 0; col < chain.ColsPerChain; col++ {
			e := col*n + k
			if e >= vstart && e < vl {
				m |= 1 << uint(col)
			}
		}
		ch.SetActiveMask(m)
	}
}

// ActiveChains counts chains with at least one active column; fully
// masked chains power-gate their peripherals (paper §V-F).
func (c *CSB) ActiveChains() int {
	if c.bits != nil {
		// The window [vstart, vl) covers min(vl-vstart, n) distinct
		// chain residues e % n.
		if c.vl <= c.vstart {
			return 0
		}
		if span := c.vl - c.vstart; span < c.n {
			return span
		}
		return c.n
	}
	n := 0
	for _, ch := range c.chains {
		if ch.ActiveMask() != 0 {
			n++
		}
	}
	return n
}

// ReadElement returns element e of vector register v.
func (c *CSB) ReadElement(v, e int) uint32 {
	c.Stats.ElemReads++
	if c.bits != nil {
		var val uint32
		bm := c.bits.bm
		for s := 0; s < chain.SubPerChain; s++ {
			if bm.Row(s, v).Get(e) {
				val |= 1 << uint(s)
			}
		}
		return val
	}
	k, col := c.chainOf(e)
	return c.chains[k].ReadElement(v, col)
}

// WriteElement stores element e of vector register v (the VMU store
// path; it ignores the active window — the VMU applies its own
// masking).
func (c *CSB) WriteElement(v, e int, val uint32) {
	c.Stats.ElemWrites++
	if c.bits != nil {
		bm := c.bits.bm
		for s := 0; s < chain.SubPerChain; s++ {
			bm.Row(s, v).SetTo(e, val&(1<<uint(s)) != 0)
		}
		if val != 0 {
			bm.MarkRow(v)
		}
		return
	}
	k, col := c.chainOf(e)
	c.chains[k].WriteElement(v, col, val)
}

// ResetReduction clears the global reduction accumulator.
func (c *CSB) ResetReduction() { c.redAcc = 0 }

// ReductionResult returns the accumulator contents.
func (c *CSB) ReductionResult() uint64 { return c.redAcc }

// SetRecorder installs (or, with nil, removes) the observability
// recorder. Timeline spans are only emitted from Run; single-command
// Execute calls stay untraced.
func (c *CSB) SetRecorder(r *obs.Recorder) { c.rec = r }

// Execute broadcasts one microoperation command to every chain and
// updates the statistics. It is the functional equivalent of the chain
// controllers driving their subarrays for one (or, for combines,
// several) CSB cycles.
func (c *CSB) Execute(op tt.MicroOp) { c.executeSerial(&op) }

// executeSerial applies one command to every chain and accounts for it.
func (c *CSB) executeSerial(op *tt.MicroOp) {
	var sum uint64
	if c.bits != nil {
		sum = c.executeBitsRange(op, 0, c.bits.words)
	} else {
		sum = c.executeRange(op, 0, c.n)
	}
	c.account(op, sum)
}

// units returns the unit count one command sweeps: bitmap words for
// the bit-slice engine, chains for the scalar one.
func (c *CSB) units() int {
	if c.bits != nil {
		return c.bits.words
	}
	return c.n
}

// executeRange applies the chain-local work of one command to chains
// [lo, hi). It never touches CSB-level state (Stats, redAcc): a chain's
// subarrays, tag bits and enable latch are private to it, and the
// dedicated neighbour-propagation paths (SrcPrevTag/SrcNextTag) connect
// subarrays *within* a chain — chain ends see all-zero, never another
// chain's tags. The only cross-chain structures in the design are the
// global reduction tree (handled here by returning a popcount for the
// caller to fold) and the vfirst priority encoder (FirstSetTag).
// Unknown command kinds are rejected by account, on the caller.
func (c *CSB) executeRange(op *tt.MicroOp, lo, hi int) uint64 {
	chains := c.chains[lo:hi]
	switch op.Kind {
	case tt.KSearch:
		for _, ch := range chains {
			ch.Search(op.Sub, op.Key, op.Acc)
		}
	case tt.KSearchAll:
		for _, ch := range chains {
			ch.SearchAll(op.Key, op.Acc)
		}
	case tt.KSearchX:
		for _, ch := range chains {
			for s := 0; s < chain.SubPerChain; s++ {
				k := sram.Key{}
				if op.X&(1<<uint(s)) != 0 {
					k = k.Match1(op.Row)
				} else {
					k = k.Match0(op.Row)
				}
				ch.Search(s, k, op.Acc)
			}
		}
	case tt.KUpdate:
		if op.Sub == chain.SubPerChain {
			// Dropped carry-out of the last subarray: the cycle is
			// spent, nothing is written.
			break
		}
		for _, ch := range chains {
			ch.Update(op.Sub, op.Row, op.Value, op.Sel)
		}
	case tt.KUpdateAll:
		for _, ch := range chains {
			ch.UpdateAll(op.Row, op.Value, op.Sel)
		}
	case tt.KUpdateX:
		for _, ch := range chains {
			for s := 0; s < chain.SubPerChain; s++ {
				ch.Update(s, op.Row, op.X&(1<<uint(s)) != 0,
					chain.Selector{Src: chain.SrcAllCols})
			}
		}
	case tt.KEnable:
		for _, ch := range chains {
			src := ch.TagOf(op.Sub)
			if op.EnInvert {
				src = ^src
			}
			ch.SetEnable(op.EnOp, src)
		}
	case tt.KEnableCombine:
		for _, ch := range chains {
			var acc uint32
			if op.Combine == tt.CombineAnd {
				acc = sram.AllCols
			}
			for s := 0; s < chain.SubPerChain; s++ {
				if op.Combine == tt.CombineAnd {
					acc &= ch.TagOf(s)
				} else {
					acc |= ch.TagOf(s)
				}
			}
			if op.CombineInvert {
				acc = ^acc
			}
			ch.SetEnable(chain.EnLoad, acc)
		}
	case tt.KReduce:
		var sum uint64
		for _, ch := range chains {
			sum += uint64(ch.PopCountTag(op.Sub))
		}
		return sum
	}
	return 0
}

// account updates the statistics for one executed command and, for
// reductions, folds the popcount sum into the accumulator.
func (c *CSB) account(op *tt.MicroOp, redSum uint64) {
	switch op.Kind {
	case tt.KSearch:
		c.Stats.SearchSerial++
	case tt.KSearchAll, tt.KSearchX:
		c.Stats.SearchParallel++
	case tt.KUpdate:
		if op.Sub == chain.SubPerChain || op.Sel.Src == chain.SrcPrevTag {
			c.Stats.UpdateProp++
		} else {
			c.Stats.UpdateSerial++
		}
	case tt.KUpdateAll, tt.KUpdateX:
		c.Stats.UpdateParallel++
	case tt.KEnable, tt.KEnableCombine:
		c.Stats.Enable++
	case tt.KReduce:
		c.redAcc = c.redAcc<<1 + redSum
		c.Stats.Reduce++
	default:
		panic(fmt.Sprintf("csb: unknown microop kind %v", op.Kind))
	}
	c.Stats.Cycles += uint64(op.Cycles)
	m0, m1 := matchBits(op)
	c.Stats.Match0Bits += m0
	c.Stats.Match1Bits += m1
}

// Run executes a microcode sequence and returns its cycle cost: one
// serial loop over the commands, wrapped by three optional hooks — the
// armed fault plan's tick, a host-time span when the recorder samples
// this run, and one PMU flush of the run's Stats delta. Each disarmed
// hook costs a nil check.
func (c *CSB) Run(ops []tt.MicroOp) int {
	if c.finj != nil {
		c.faultTick()
	}
	var before Stats
	if c.pmu != nil {
		before = c.Stats
	}
	sampled := c.rec != nil && c.rec.Sample()
	var t0 int64
	if sampled {
		t0 = c.rec.SinceNS()
	}
	for i := range ops {
		c.executeSerial(&ops[i])
	}
	if sampled {
		c.rec.HostSpan("csb.run", obs.StageCSB, t0, c.rec.SinceNS()-t0, "microops", int64(len(ops)))
	}
	if c.pmu != nil {
		c.pmuFlush(&before, len(ops))
	}
	return tt.Cost(ops)
}

// SetPMU wires (or, with nil, unwires) the always-on perf counters.
// The PMU is typically shared by every machine of a pool shard.
func (c *CSB) SetPMU(p *telemetry.PMU) { c.pmu = p }

// pmuFlush turns the Stats movement of one microcode run into a
// CSBDelta: a handful of uncontended atomic adds per run, not per
// microop, which is what keeps always-on counters inside the CI
// overhead budget. before is the Stats snapshot taken at run entry.
func (c *CSB) pmuFlush(before *Stats, nops int) {
	s := &c.Stats
	d := telemetry.CSBDelta{
		SearchSerial:   s.SearchSerial - before.SearchSerial,
		SearchParallel: s.SearchParallel - before.SearchParallel,
		UpdateSerial:   s.UpdateSerial - before.UpdateSerial,
		UpdateProp:     s.UpdateProp - before.UpdateProp,
		UpdateParallel: s.UpdateParallel - before.UpdateParallel,
		Reduce:         s.Reduce - before.Reduce,
		Enable:         s.Enable - before.Enable,
		Cycles:         s.Cycles - before.Cycles,
		Match0Bits:     s.Match0Bits - before.Match0Bits,
		Match1Bits:     s.Match1Bits - before.Match1Bits,
		Words:          uint64(c.units()) * uint64(nops),
	}
	if lanes := c.vl - c.vstart; lanes > 0 {
		d.Lanes = uint64(lanes) * uint64(nops)
	}
	c.pmu.AddCSBRun(&d)
}

// FirstSetTag scans subarray-0 tag bits in element order and returns
// the lowest active element index whose tag is set, or -1 — the
// priority encoder behind vfirst.m.
//
// Element order audit: element e lives at chain e % N, column e / N
// (chainOf), so for a fixed chain the element index col*N + k is
// strictly increasing in the column number — TrailingZeros32 over one
// chain's tags therefore yields that chain's lowest element, and the
// cross-chain minimum of those candidates is the global first.
func (c *CSB) FirstSetTag() int64 {
	if c.bits != nil {
		// Lane order is element order, so the first set bit of
		// tag[0] & active is the answer directly.
		tag := c.bits.bm.Tags[0]
		act := c.bits.bm.Active
		for w := range tag {
			if v := tag[w] & act[w]; v != 0 {
				return int64(w*sram.BitmapWordBits + bits.TrailingZeros64(v))
			}
		}
		return -1
	}
	best := int64(-1)
	for k, ch := range c.chains {
		tags := ch.TagOf(0) & ch.ActiveMask()
		if tags == 0 {
			continue
		}
		col := bits.TrailingZeros32(tags)
		e := int64(c.ElementIndex(k, col))
		if best < 0 || e < best {
			best = e
		}
	}
	return best
}

// StateDigest returns an FNV-1a hash over the complete architectural
// state of the CSB: window, reduction accumulator, and every chain's
// enable latch, active mask, tag bits and subarray contents. Two CSBs
// that executed the same commands — on either engine — must report
// identical digests; the differential suites key on this.
func (c *CSB) StateDigest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(c.n))
	mix(uint64(c.vstart))
	mix(uint64(c.vl))
	mix(c.redAcc)
	for k := 0; k < c.n; k++ {
		var ch *chain.Chain
		if c.bits != nil {
			// Gather the chain's lanes back into scalar form so both
			// engines hash byte-identical material.
			ch = c.bits.bm.UnpackChain(k)
		} else {
			ch = c.chains[k]
		}
		mix(uint64(ch.Enable()))
		mix(uint64(ch.ActiveMask()))
		for s := 0; s < chain.SubPerChain; s++ {
			mix(uint64(ch.TagOf(s)))
			rows := ch.Sub(s).Snapshot()
			for _, r := range rows {
				mix(uint64(r))
			}
		}
	}
	return h
}

// Reset clears every chain and the reduction accumulator, and restores
// the full window. Statistics are preserved. The bit-slice engine
// clears only the rows written since the last Reset (see
// chain.Bitmaps.Reset); the scalar reference clears everything.
func (c *CSB) Reset() {
	if c.bits != nil {
		c.bits.bm.Reset()
	} else {
		for _, ch := range c.chains {
			ch.Reset()
		}
	}
	c.redAcc = 0
	c.SetWindow(0, c.MaxVL())
}
