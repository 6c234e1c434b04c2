// Transposed (word-parallel) image of a chain array.
//
// The scalar model gives each chain its own 36x32-bit subarrays; the
// word-parallel CSB engine stores the same state rotated 90 degrees:
// one sram.Bitmap per (subarray, row) holding that bit position for
// every chain at once, one lane per (chain, column). Lanes follow the
// VMU element interleave — lane col*N + k is chain k, column col, i.e.
// element index col*N + k — so the vl/vstart window is one contiguous
// lane range and every chain-local microoperation becomes a loop over
// 64-lane words.
//
// The neighbour tag-propagation paths (SrcPrevTag/SrcNextTag) connect
// *subarrays*, which here are whole bitmaps at identical lane
// positions; no operation ever moves data between lanes, which is what
// makes the transposed execution embarrassingly word-parallel.
package chain

import (
	"fmt"
	"math/bits"

	"cape/internal/sram"
)

// Bitmaps is the complete transposed state of n chains: every subarray
// row, every tag bank, the enable latches and the active-window masks,
// each as one lane-per-(chain,column) bitmap.
type Bitmaps struct {
	// N is the chain count; Lanes() = N * ColsPerChain lanes per bitmap.
	N int

	// Rows[s*sram.Rows+r] is row r of subarray s across all chains.
	Rows []sram.Bitmap
	// Tags[s] is the tag bank of subarray s across all chains.
	Tags []sram.Bitmap
	// Enable is the per-column enable latch across all chains.
	Enable sram.Bitmap
	// Active is the active-window mask across all chains.
	Active sram.Bitmap

	// dirty has bit r set once row r of some subarray may hold a set
	// lane. Invariant: every unmarked row is all zero in every
	// subarray, so Reset clears only the marked ones. Every writer that
	// can set a bit calls MarkRow; writes that can only clear bits
	// need not.
	dirty uint64
}

// NewBitmaps allocates the transposed state for n chains in the reset
// configuration: storage and tags all-zero, enable and active all-set
// (every column enabled and active, matching chain.New).
func NewBitmaps(n int) *Bitmaps {
	if n <= 0 {
		panic("chain: bitmap chain count must be positive")
	}
	b := &Bitmaps{N: n}
	words := sram.BitmapWords(b.Lanes())
	nRows := SubPerChain * sram.Rows
	back := make([]uint64, (nRows+SubPerChain)*words)
	b.Rows = make([]sram.Bitmap, nRows)
	for i := range b.Rows {
		b.Rows[i] = sram.Bitmap(back[i*words : (i+1)*words : (i+1)*words])
	}
	b.Tags = make([]sram.Bitmap, SubPerChain)
	for s := range b.Tags {
		off := (nRows + s) * words
		b.Tags[s] = sram.Bitmap(back[off : off+words : off+words])
	}
	b.Enable = sram.NewBitmap(b.Lanes())
	b.Enable.Fill(true)
	b.Active = sram.NewBitmap(b.Lanes())
	b.Active.Fill(true)
	return b
}

// Lanes returns the lane count: one per (chain, column) = MaxVL.
func (b *Bitmaps) Lanes() int { return b.N * ColsPerChain }

// Words returns the uint64 count of each bitmap.
func (b *Bitmaps) Words() int { return sram.BitmapWords(b.Lanes()) }

// Lane maps (chain k, column col) to its lane index, which equals the
// VMU element index.
func (b *Bitmaps) Lane(k, col int) int { return col*b.N + k }

// Row returns the bitmap of row r in subarray s, with the same bounds
// panics as the scalar subarray model.
func (b *Bitmaps) Row(s, r int) sram.Bitmap {
	if s < 0 || s >= SubPerChain {
		panic(fmt.Sprintf("chain: subarray %d out of range [0,%d)", s, SubPerChain))
	}
	if r < 0 || r >= sram.Rows {
		panic(fmt.Sprintf("sram: row %d out of range [0,%d)", r, sram.Rows))
	}
	return b.Rows[s*sram.Rows+r]
}

// MarkRow records that row r of some subarray may have a lane set, so
// the next Reset clears it.
func (b *Bitmaps) MarkRow(r int) { b.dirty |= 1 << uint(r) }

// DirtyRows returns the rows Reset will clear: bit r set means row r
// may hold a set lane in some subarray.
func (b *Bitmaps) DirtyRows() uint64 { return b.dirty }

// Reset restores the freshly-built state: marked rows and every tag
// bank cleared, enable and active all-set. Rows never marked since the
// last Reset are already zero and are left alone.
func (b *Bitmaps) Reset() {
	for d := b.dirty; d != 0; d &= d - 1 {
		r := bits.TrailingZeros64(d)
		for s := 0; s < SubPerChain; s++ {
			clear(b.Rows[s*sram.Rows+r])
		}
	}
	b.dirty = 0
	for s := range b.Tags {
		clear(b.Tags[s])
	}
	b.Enable.Fill(true)
	b.Active.Fill(true)
}

// gather32 collects the 32 column bits of chain k from bm.
func (b *Bitmaps) gather32(bm sram.Bitmap, k int) uint32 {
	var v uint32
	for col := 0; col < ColsPerChain; col++ {
		if bm.Get(col*b.N + k) {
			v |= 1 << uint(col)
		}
	}
	return v
}

// scatter32 stores the 32 column bits of chain k into bm.
func (b *Bitmaps) scatter32(bm sram.Bitmap, k int, v uint32) {
	for col := 0; col < ColsPerChain; col++ {
		bm.SetTo(col*b.N+k, v&(1<<uint(col)) != 0)
	}
}

// PackChain transposes the full state of scalar chain ch into chain
// k's lanes: every subarray row and tag bank, the enable latch and the
// active mask.
func (b *Bitmaps) PackChain(k int, ch *Chain) {
	for s := 0; s < SubPerChain; s++ {
		sub := ch.Sub(s)
		for r := 0; r < sram.Rows; r++ {
			v := sub.ReadRow(r)
			if v != 0 {
				b.MarkRow(r)
			}
			b.scatter32(b.Rows[s*sram.Rows+r], k, v)
		}
		b.scatter32(b.Tags[s], k, sub.Tag())
	}
	b.scatter32(b.Enable, k, ch.Enable())
	b.scatter32(b.Active, k, ch.ActiveMask())
}

// UnpackChain gathers chain k's lanes back into a freshly-built scalar
// Chain — the exact inverse of PackChain.
func (b *Bitmaps) UnpackChain(k int) *Chain {
	ch := New()
	for s := 0; s < SubPerChain; s++ {
		sub := ch.Sub(s)
		for r := 0; r < sram.Rows; r++ {
			sub.WriteRow(r, b.gather32(b.Rows[s*sram.Rows+r], k), sram.AllCols)
		}
		sub.SetTag(b.gather32(b.Tags[s], k))
	}
	ch.SetEnable(EnLoad, b.gather32(b.Enable, k))
	ch.SetActiveMask(b.gather32(b.Active, k))
	return ch
}

// ReadRowWise gathers chain k's 32-bit word of (subarray s, row r) —
// the row-granularity view used by memory-only mode, where bit c is
// column c.
func (b *Bitmaps) ReadRowWise(k, s, r int) uint32 {
	return b.gather32(b.Row(s, r), k)
}

// WriteRowWise scatters a 32-bit word into chain k's lanes of
// (subarray s, row r).
func (b *Bitmaps) WriteRowWise(k, s, r int, v uint32) {
	row := b.Row(s, r)
	if v != 0 {
		b.MarkRow(r)
	}
	b.scatter32(row, k, v)
}
