// Word-parallel (bit-slice) execution engine for the CSB.
//
// The scalar engine walks every chain per microoperation and evaluates
// one uint32 of columns at a time; this engine stores the same state
// transposed (chain.Bitmaps): one sram.Bitmap per subarray row / tag
// bank / latch, one lane per (chain, column) in element-index order.
// One uint64 bitwise op then evaluates 64 chains-columns at once, and
// the vl/vstart window is a contiguous lane range whose partial head
// and tail words are handled by the precomputed active mask.
//
// Every microoperation is lane-local: searches AND row bitmaps,
// updates write masked row words, and the neighbour tag-propagation
// paths (SrcPrevTag/SrcNextTag) connect *subarrays* — whole bitmaps at
// identical lane positions — so no data ever crosses lanes. The two
// cross-lane structures, the reduction tree and the vfirst priority
// encoder, fold popcounts and scan for the lowest set lane exactly as
// the scalar engine does across chains.
//
// Invariant: row bitmaps never carry bits at lanes >= MaxVL (updates
// mask with the active window, whose tail is zero, and the element /
// row-wise write paths address lanes < MaxVL only). Tag and enable
// bitmaps may hold tail garbage from complemented matches; every
// architectural consumer — updates, reductions, vfirst, digests —
// masks with the active window or gathers lanes < MaxVL, so the
// garbage never becomes observable.
package csb

import (
	"fmt"
	"math/bits"

	"cape/internal/chain"
	"cape/internal/sram"
	"cape/internal/tt"
)

// bitState is the transposed chain-array state plus the constant
// bitmaps the selector logic needs.
type bitState struct {
	bm    *chain.Bitmaps
	words int
	// zeros/ones stand in for the all-zero boundary tag and the
	// SrcAllCols select in the word loops.
	zeros sram.Bitmap
	ones  sram.Bitmap
}

func newBitState(numChains int) *bitState {
	bm := chain.NewBitmaps(numChains)
	bs := &bitState{bm: bm, words: bm.Words()}
	bs.zeros = make(sram.Bitmap, bs.words)
	bs.ones = make(sram.Bitmap, bs.words)
	bs.ones.Fill(true)
	return bs
}

// tagOrZero is the bitmap analogue of Chain.TagOf: out-of-range
// subarray indices yield the all-zero chain-boundary tag.
func (bs *bitState) tagOrZero(s int) sram.Bitmap {
	if s < 0 || s >= chain.SubPerChain {
		return bs.zeros
	}
	return bs.bm.Tags[s]
}

// searchKey is a search key decomposed for the word loop: up to four
// row bitmap indices with their match polarity.
type searchKey struct {
	rows [sram.MaxSearchRows]int
	inv  [sram.MaxSearchRows]bool
	n    int
}

// decomposeKey validates k (panicking like the scalar subarray on
// microcode bugs) and splits it into row/polarity pairs.
func decomposeKey(k sram.Key) searchKey {
	if err := k.Validate(); err != nil {
		panic(err)
	}
	var d searchKey
	care := k.Care
	for care != 0 {
		r := bits.TrailingZeros64(care)
		care &= care - 1
		d.rows[d.n] = r
		d.inv[d.n] = k.Value&(1<<uint(r)) == 0
		d.n++
	}
	return d
}

// searchSub runs one decomposed search in subarray s over words
// [wlo, whi): match = AND over cared rows (complemented for match-0),
// folded into the tag bank under mode. The match-0 complement is
// folded in as an XOR constant and the accumulation switch is hoisted
// out of the word loop, so each specialization is a branch-free sweep;
// the one- and two-row cases (nearly all arithmetic microcode) get
// dedicated loops.
func (bs *bitState) searchSub(s int, d searchKey, mode sram.AccMode, wlo, whi int) {
	tag := bs.bm.Tags[s]
	var r [sram.MaxSearchRows]sram.Bitmap
	var x [sram.MaxSearchRows]uint64
	for i := 0; i < d.n; i++ {
		r[i] = bs.bm.Row(s, d.rows[i])
		if d.inv[i] {
			x[i] = ^uint64(0)
		}
	}
	switch d.n {
	case 1:
		accSweep1(tag, r[0], x[0], mode, wlo, whi)
	case 2:
		r0, r1, x0, x1 := r[0], r[1], x[0], x[1]
		switch mode {
		case sram.AccSet:
			for w := wlo; w < whi; w++ {
				tag[w] = (r0[w] ^ x0) & (r1[w] ^ x1)
			}
		case sram.AccOr:
			for w := wlo; w < whi; w++ {
				tag[w] |= (r0[w] ^ x0) & (r1[w] ^ x1)
			}
		case sram.AccXor:
			for w := wlo; w < whi; w++ {
				tag[w] ^= (r0[w] ^ x0) & (r1[w] ^ x1)
			}
		case sram.AccAnd:
			for w := wlo; w < whi; w++ {
				tag[w] &= (r0[w] ^ x0) & (r1[w] ^ x1)
			}
		case sram.AccAndNot:
			for w := wlo; w < whi; w++ {
				tag[w] &^= (r0[w] ^ x0) & (r1[w] ^ x1)
			}
		default:
			panic(fmt.Sprintf("sram: unknown accumulation mode %d", mode))
		}
	default:
		n := d.n
		switch mode {
		case sram.AccSet:
			for w := wlo; w < whi; w++ {
				m := ^uint64(0)
				for i := 0; i < n; i++ {
					m &= r[i][w] ^ x[i]
				}
				tag[w] = m
			}
		case sram.AccOr:
			for w := wlo; w < whi; w++ {
				m := ^uint64(0)
				for i := 0; i < n; i++ {
					m &= r[i][w] ^ x[i]
				}
				tag[w] |= m
			}
		case sram.AccXor:
			for w := wlo; w < whi; w++ {
				m := ^uint64(0)
				for i := 0; i < n; i++ {
					m &= r[i][w] ^ x[i]
				}
				tag[w] ^= m
			}
		case sram.AccAnd:
			for w := wlo; w < whi; w++ {
				m := ^uint64(0)
				for i := 0; i < n; i++ {
					m &= r[i][w] ^ x[i]
				}
				tag[w] &= m
			}
		case sram.AccAndNot:
			for w := wlo; w < whi; w++ {
				m := ^uint64(0)
				for i := 0; i < n; i++ {
					m &= r[i][w] ^ x[i]
				}
				tag[w] &^= m
			}
		default:
			panic(fmt.Sprintf("sram: unknown accumulation mode %d", mode))
		}
	}
}

// accSweep1 folds a single (possibly complemented) row into tag under
// mode: tag[w] <op>= row[w] ^ x, with the mode switch hoisted out of
// the word loop. A zero-row search (empty key) matches every column:
// callers pass bs.ones with x = 0.
func accSweep1(tag, row sram.Bitmap, x uint64, mode sram.AccMode, wlo, whi int) {
	switch mode {
	case sram.AccSet:
		for w := wlo; w < whi; w++ {
			tag[w] = row[w] ^ x
		}
	case sram.AccOr:
		for w := wlo; w < whi; w++ {
			tag[w] |= row[w] ^ x
		}
	case sram.AccXor:
		for w := wlo; w < whi; w++ {
			tag[w] ^= row[w] ^ x
		}
	case sram.AccAnd:
		for w := wlo; w < whi; w++ {
			tag[w] &= row[w] ^ x
		}
	case sram.AccAndNot:
		for w := wlo; w < whi; w++ {
			tag[w] &^= row[w] ^ x
		}
	default:
		panic(fmt.Sprintf("sram: unknown accumulation mode %d", mode))
	}
}

// searchRowBit is the KSearchX inner step: match row against a single
// comparand bit (the scalar-distributed search of vmseq.vx).
func (bs *bitState) searchRowBit(s, row int, one bool, mode sram.AccMode, wlo, whi int) {
	var x uint64
	if !one {
		x = ^uint64(0)
	}
	accSweep1(bs.bm.Tags[s], bs.bm.Row(s, row), x, mode, wlo, whi)
}

// selSrc resolves a selector's tag source to its bitmap, mirroring
// Chain.SelectMask's switch (including its panics).
func (bs *bitState) selSrc(sel chain.Selector, s int) sram.Bitmap {
	switch sel.Src {
	case chain.SrcOwnTag:
		return bs.bm.Tags[s]
	case chain.SrcPrevTag:
		return bs.tagOrZero(s - 1)
	case chain.SrcNextTag:
		return bs.tagOrZero(s + 1)
	case chain.SrcSubTag:
		return bs.bm.Tags[sel.Sub]
	case chain.SrcAllCols:
		return bs.ones
	case chain.SrcEnable:
		return bs.bm.Enable
	default:
		panic(fmt.Sprintf("chain: unknown tag source %d", sel.Src))
	}
}

// updateRow performs one bulk update of (subarray s, row) under sel
// over words [wlo, whi). The active mask gates last, exactly like
// Chain.SelectMask. Only a write of 1s can dirty a row for Reset.
func (bs *bitState) updateRow(s, row int, value bool, sel chain.Selector, wlo, whi int) {
	r := bs.bm.Row(s, row)
	if value {
		bs.bm.MarkRow(row)
	}
	src := bs.selSrc(sel, s)
	act := bs.bm.Active
	// Hoist every selector decision out of the word loop: inversions
	// become XOR constants, the enable gate picks one of two branch-free
	// sweeps.
	var xinv uint64
	if sel.Invert {
		xinv = ^uint64(0)
	}
	if sel.GateEnable {
		en := bs.bm.Enable
		var gx uint64
		if sel.GateInvert {
			gx = ^uint64(0)
		}
		if value {
			for w := wlo; w < whi; w++ {
				r[w] |= (src[w] ^ xinv) & (en[w] ^ gx) & act[w]
			}
		} else {
			for w := wlo; w < whi; w++ {
				r[w] &^= (src[w] ^ xinv) & (en[w] ^ gx) & act[w]
			}
		}
		return
	}
	if value {
		for w := wlo; w < whi; w++ {
			r[w] |= (src[w] ^ xinv) & act[w]
		}
	} else {
		for w := wlo; w < whi; w++ {
			r[w] &^= (src[w] ^ xinv) & act[w]
		}
	}
}

// updateSplat is the KUpdateX inner loop: subarray s writes bit s of x
// into row across every active lane (SrcAllCols select, like the
// scalar executor's hardcoded selector).
func (bs *bitState) updateSplat(x uint64, row int, wlo, whi int) {
	act := bs.bm.Active
	for s := 0; s < chain.SubPerChain; s++ {
		r := bs.bm.Row(s, row)
		if x&(1<<uint(s)) != 0 {
			for w := wlo; w < whi; w++ {
				r[w] |= act[w]
			}
		} else {
			for w := wlo; w < whi; w++ {
				r[w] &^= act[w]
			}
		}
	}
	if uint32(x) != 0 {
		bs.bm.MarkRow(row)
	}
}

// enableFrom applies one enable-latch op with src as operand,
// mirroring Chain.SetEnable.
func (bs *bitState) enableFrom(op chain.EnableOp, invert bool, src sram.Bitmap, wlo, whi int) {
	en := bs.bm.Enable
	var x uint64
	if invert {
		x = ^uint64(0)
	}
	switch op {
	case chain.EnLoad:
		for w := wlo; w < whi; w++ {
			en[w] = src[w] ^ x
		}
	case chain.EnAnd:
		for w := wlo; w < whi; w++ {
			en[w] &= src[w] ^ x
		}
	case chain.EnOr:
		for w := wlo; w < whi; w++ {
			en[w] |= src[w] ^ x
		}
	case chain.EnAndNot:
		for w := wlo; w < whi; w++ {
			en[w] &^= src[w] ^ x
		}
	case chain.EnSetAll:
		for w := wlo; w < whi; w++ {
			en[w] = ^uint64(0)
		}
	default:
		panic(fmt.Sprintf("chain: unknown enable op %d", op))
	}
}

// enableCombine loads the enable latch with the AND/OR of every
// subarray's tag bank (KEnableCombine).
func (bs *bitState) enableCombine(and, invert bool, wlo, whi int) {
	en := bs.bm.Enable
	tags := bs.bm.Tags
	for w := wlo; w < whi; w++ {
		var a uint64
		if and {
			a = ^uint64(0)
			for s := 0; s < chain.SubPerChain; s++ {
				a &= tags[s][w]
			}
		} else {
			for s := 0; s < chain.SubPerChain; s++ {
				a |= tags[s][w]
			}
		}
		if invert {
			a = ^a
		}
		en[w] = a
	}
}

// reduceSum returns the active-masked tag popcount of subarray s over
// words [wlo, whi) — this range's share of the global reduction tree.
func (bs *bitState) reduceSum(s, wlo, whi int) uint64 {
	tag := bs.bm.Tags[s]
	act := bs.bm.Active
	var sum uint64
	for w := wlo; w < whi; w++ {
		sum += uint64(bits.OnesCount64(tag[w] & act[w]))
	}
	return sum
}

// executeBitsRange applies the lane-local work of one command to words
// [wlo, whi) — the word-parallel twin of executeRange, with the same
// contract: no CSB-level state is touched, KReduce returns the popcount
// for the caller to fold, unknown kinds are rejected by account on the
// caller.
func (c *CSB) executeBitsRange(op *tt.MicroOp, wlo, whi int) uint64 {
	bs := c.bits
	switch op.Kind {
	case tt.KSearch:
		bs.searchSub(op.Sub, decomposeKey(op.Key), op.Acc, wlo, whi)
	case tt.KSearchAll:
		d := decomposeKey(op.Key)
		for s := 0; s < chain.SubPerChain; s++ {
			bs.searchSub(s, d, op.Acc, wlo, whi)
		}
	case tt.KSearchX:
		for s := 0; s < chain.SubPerChain; s++ {
			bs.searchRowBit(s, op.Row, op.X&(1<<uint(s)) != 0, op.Acc, wlo, whi)
		}
	case tt.KUpdate:
		if op.Sub == chain.SubPerChain {
			// Dropped carry-out of the last subarray: the cycle is
			// spent, nothing is written.
			break
		}
		bs.updateRow(op.Sub, op.Row, op.Value, op.Sel, wlo, whi)
	case tt.KUpdateAll:
		for s := 0; s < chain.SubPerChain; s++ {
			bs.updateRow(s, op.Row, op.Value, op.Sel, wlo, whi)
		}
	case tt.KUpdateX:
		bs.updateSplat(op.X, op.Row, wlo, whi)
	case tt.KEnable:
		bs.enableFrom(op.EnOp, op.EnInvert, bs.tagOrZero(op.Sub), wlo, whi)
	case tt.KEnableCombine:
		bs.enableCombine(op.Combine == tt.CombineAnd, op.CombineInvert, wlo, whi)
	case tt.KReduce:
		return bs.reduceSum(op.Sub, wlo, whi)
	}
	return 0
}
