// Package chain models one CAPE chain: 32 compute-capable SRAM
// subarrays plus the peripheral logic that stitches them together
// (paper §IV-B, §IV-D, Fig. 5 and Fig. 8).
//
// Data layout. A chain stores 32 vector elements (one per column) of
// all 32 architectural vector registers. Each 32-bit element is
// bit-sliced across the chain's subarrays: subarray s holds bit s of
// every element. Row r of every subarray belongs to vector register
// v<r>. This layout gives arithmetic microcode operand locality: the
// bits of va, vb, vd and the running carry for bit position s all live
// in subarray s.
//
// Peripherals modelled here:
//
//   - per-subarray tag bits (owned by sram.Subarray);
//   - inter-subarray tag propagation, which lets the tag bits of
//     subarray s select the update columns of subarray s+1 — the
//     carry-propagation path of Fig. 5 (right);
//   - a per-column enable latch, loadable from any subarray's tag bits
//     and combinable with later tags; this models the chain's tag bus
//     and implements predication (vector masks) and the active window;
//   - the intra-chain reduction popcount (paper §IV-E, Fig. 6).
package chain

import (
	"fmt"
	"math/bits"

	"cape/internal/sram"
)

// SubPerChain is the number of subarrays in one chain; it equals the
// element width in bits, because elements are bit-sliced one bit per
// subarray.
const SubPerChain = 32

// ElemBits is the architectural element width in bits.
const ElemBits = SubPerChain

// ColsPerChain is the number of vector elements stored per chain.
const ColsPerChain = sram.Cols

// TagSource selects which tag bank drives a column-select or an
// enable-latch load.
type TagSource uint8

const (
	// SrcOwnTag uses the tag bits of the subarray being updated.
	SrcOwnTag TagSource = iota
	// SrcPrevTag uses the tag bits of subarray s-1 (the dedicated
	// neighbour propagation path of Fig. 5; subarray 0 sees all-zero).
	SrcPrevTag
	// SrcNextTag uses the tag bits of subarray s+1 (the mirror
	// neighbour path, used by right shifts; the last subarray sees
	// all-zero). An inferred mechanism — see DESIGN.md.
	SrcNextTag
	// SrcSubTag uses the tag bits of one fixed subarray, broadcast on
	// the chain tag bus.
	SrcSubTag
	// SrcAllCols ignores tags and selects every column.
	SrcAllCols
	// SrcEnable uses the enable latch contents directly.
	SrcEnable
)

// Selector describes how the column-select signal of an update is
// generated (paper: updates "re-use the outcome of searches (stored in
// the tag bits) to conditionally update columns").
type Selector struct {
	Src TagSource
	// Sub is the fixed subarray index when Src == SrcSubTag.
	Sub int
	// Invert complements the tag source before gating (update the
	// non-matching columns).
	Invert bool
	// GateEnable further ANDs the select with the enable latch
	// (predicated execution under a vector mask).
	GateEnable bool
	// GateInvert, together with GateEnable, gates with the complement
	// of the enable latch instead (the "else" side of vmerge).
	GateInvert bool
}

// EnableOp is the boolean update applied to the enable latch when it is
// loaded from a tag source.
type EnableOp uint8

const (
	EnLoad   EnableOp = iota // enable = src
	EnAnd                    // enable &= src
	EnOr                     // enable |= src
	EnAndNot                 // enable &^= src
	EnSetAll                 // enable = all columns (src ignored)
)

// Chain is the functional model of one CAPE chain.
//
// Independence: a Chain is not safe for concurrent use, but distinct
// Chains are fully independent — all state (subarrays, tags, enable
// latch, active mask) is private, and the inter-subarray
// tag-propagation paths (Selector SrcPrevTag/SrcNextTag) connect
// subarrays within this chain only; the first and last subarray see
// all-zero neighbours, never another chain's tags.
type Chain struct {
	subs [SubPerChain]sram.Subarray
	// enable is the per-column enable latch.
	enable uint32
	// active is the active-window mask derived from vl/vstart for this
	// chain (paper §V-F). Updates and reductions never touch or count
	// columns outside it.
	active uint32
}

// New returns a chain with every column active.
func New() *Chain {
	return &Chain{active: sram.AllCols, enable: sram.AllCols}
}

// Reset clears all storage, tags and latches, and re-activates every
// column.
func (c *Chain) Reset() {
	for i := range c.subs {
		c.subs[i].Reset()
	}
	c.enable = sram.AllCols
	c.active = sram.AllCols
}

// Sub returns the s-th subarray.
func (c *Chain) Sub(s int) *sram.Subarray {
	return &c.subs[s]
}

// SetActiveMask installs the active-window column mask (bit col set =
// element at col participates in vector instructions).
func (c *Chain) SetActiveMask(m uint32) { c.active = m }

// ActiveMask returns the current active-window column mask.
func (c *Chain) ActiveMask() uint32 { return c.active }

// Enable returns the enable latch contents.
func (c *Chain) Enable() uint32 { return c.enable }

// SetEnable applies op to the enable latch with src as operand.
func (c *Chain) SetEnable(op EnableOp, src uint32) {
	switch op {
	case EnLoad:
		c.enable = src
	case EnAnd:
		c.enable &= src
	case EnOr:
		c.enable |= src
	case EnAndNot:
		c.enable &^= src
	case EnSetAll:
		c.enable = sram.AllCols
	default:
		panic(fmt.Sprintf("chain: unknown enable op %d", op))
	}
}

// TagOf returns the tag bits of subarray s; out-of-range indices yield
// the all-zero chain-boundary tag (what the propagation paths see past
// either end of the chain).
func (c *Chain) TagOf(s int) uint32 {
	if s < 0 || s >= SubPerChain {
		return 0
	}
	return c.subs[s].Tag()
}

// SelectMask resolves a Selector into a concrete column mask for an
// update targeting subarray s. The active-window mask always gates the
// result: masked-off columns are never written.
func (c *Chain) SelectMask(sel Selector, s int) uint32 {
	var m uint32
	switch sel.Src {
	case SrcOwnTag:
		m = c.subs[s].Tag()
	case SrcPrevTag:
		m = c.TagOf(s - 1)
	case SrcNextTag:
		m = c.TagOf(s + 1)
	case SrcSubTag:
		m = c.subs[sel.Sub].Tag()
	case SrcAllCols:
		m = sram.AllCols
	case SrcEnable:
		m = c.enable
	default:
		panic(fmt.Sprintf("chain: unknown tag source %d", sel.Src))
	}
	if sel.Invert {
		m = ^m
	}
	if sel.GateEnable {
		if sel.GateInvert {
			m &= ^c.enable
		} else {
			m &= c.enable
		}
	}
	return m & c.active
}

// Search runs a search in subarray s and returns the raw match mask.
func (c *Chain) Search(s int, k sram.Key, mode sram.AccMode) uint32 {
	return c.subs[s].Search(k, mode)
}

// SearchAll runs the same search in every subarray simultaneously (a
// bit-parallel search, used by the logic instructions).
func (c *Chain) SearchAll(k sram.Key, mode sram.AccMode) {
	for s := range c.subs {
		c.subs[s].Search(k, mode)
	}
}

// Update performs a bulk update of one row in subarray s under sel.
func (c *Chain) Update(s, row int, value bool, sel Selector) {
	c.subs[s].Update(row, value, c.SelectMask(sel, s))
}

// UpdateAll performs the same single-row update in every subarray (a
// bit-parallel update: clearing or setting a whole register in one
// cycle).
func (c *Chain) UpdateAll(row int, value bool, sel Selector) {
	for s := range c.subs {
		c.subs[s].Update(row, value, c.SelectMask(sel, s))
	}
}

// PopCountTag returns the number of set tag bits of subarray s within
// the active window — the input of the chain's reduction logic.
func (c *Chain) PopCountTag(s int) int {
	return bits.OnesCount32(c.subs[s].Tag() & c.active)
}

// ReadElement gathers the 32 bit slices of the element stored at column
// col of register row reg.
func (c *Chain) ReadElement(reg, col int) uint32 {
	var v uint32
	for s := 0; s < SubPerChain; s++ {
		if c.subs[s].ReadBit(reg, col) {
			v |= 1 << uint(s)
		}
	}
	return v
}

// WriteElement scatters a 32-bit value across the chain's subarrays at
// column col of register row reg (the VMU load path).
func (c *Chain) WriteElement(reg, col int, v uint32) {
	for s := 0; s < SubPerChain; s++ {
		c.subs[s].WriteBit(reg, col, v&(1<<uint(s)) != 0)
	}
}

// ReadRowWise and WriteRowWise expose the row-granularity access used
// by memory-only mode (§VII), where data is NOT bit-sliced: subarray s,
// row r is an independent 32-bit word.
func (c *Chain) ReadRowWise(s, row int) uint32 {
	return c.subs[s].ReadRow(row)
}

func (c *Chain) WriteRowWise(s, row int, data uint32) {
	c.subs[s].WriteRow(row, data, sram.AllCols)
}
