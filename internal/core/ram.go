package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// PageBytes is the page size of fault injection and of Reset's dirty
// tracking.
const PageBytes = 4096

// RAM is the flat little-endian main memory backing both CAPE and the
// baseline models. Functionally it is a plain byte array; timing is
// owned by the HBM model.
//
// Pages can be marked not-present to exercise the paper's §V-C vector
// page-fault handling: "load/store operations can be restarted at the
// index where a page fault occurred" via the vstart CSR. The Machine
// detects the fault mid-transfer, charges the page-in penalty, and
// restarts the instruction at the faulting element.
//
// Every mutator marks the pages it writes, and Reset zeroes only
// those: a pooled machine whose job touched a few kilobytes of a
// 160 MiB memory clears a few kilobytes. Pages never written are never
// touched, so the OS never backs them either.
type RAM struct {
	data []byte
	// dirty has bit p%64 of word p/64 set once page p may hold a
	// nonzero byte. Invariant: every unmarked page is all zero.
	dirty []uint64
	// notPresent marks faulting pages by page index.
	notPresent map[uint64]bool
}

// NewRAM allocates size bytes of zeroed memory.
func NewRAM(size int) *RAM {
	pages := (size + PageBytes - 1) / PageBytes
	return &RAM{data: make([]byte, size), dirty: make([]uint64, (pages+63)/64)}
}

// MarkNotPresent injects a page fault on the page containing addr; the
// first vector access to it faults once, then the page is "paged in".
func (r *RAM) MarkNotPresent(addr uint64) {
	if r.notPresent == nil {
		r.notPresent = make(map[uint64]bool)
	}
	r.notPresent[addr/PageBytes] = true
}

// faultAndPageIn reports whether addr faults, clearing the fault (the
// OS pages it in).
func (r *RAM) faultAndPageIn(addr uint64) bool {
	if r.notPresent == nil {
		return false
	}
	page := addr / PageBytes
	if r.notPresent[page] {
		delete(r.notPresent, page)
		return true
	}
	return false
}

// Size returns the capacity in bytes.
func (r *RAM) Size() int { return len(r.data) }

// Bytes exposes the backing array for whole-memory inspection (golden
// checksums, dumps). Callers must treat it as read-only: a write
// through it bypasses the dirty tracking, and Reset would not clear it.
func (r *RAM) Bytes() []byte { return r.data }

// Reset zeroes every page written since the last Reset and clears
// injected page faults, without reallocating the backing array
// (machine pooling reuses it). Each clear covers one run of dirty
// pages within one 64-page tracking word, at most 256 KiB, so a large
// dirty region is cleared in bounded, preemptible steps.
func (r *RAM) Reset() {
	for w, word := range r.dirty {
		for word != 0 {
			lo := bits.TrailingZeros64(word)
			end := lo + bits.TrailingZeros64(^(word >> uint(lo)))
			first := (w*64 + lo) * PageBytes
			clear(r.data[first:min((w*64+end)*PageBytes, len(r.data))])
			// Bits below lo are already zero; drop the run just cleared.
			word &= ^uint64(0) << uint(end)
		}
		r.dirty[w] = 0
	}
	r.notPresent = nil
}

// check panics unless [addr, addr+n) lies inside memory. It is written
// so that no sum can wrap around 2^64.
func (r *RAM) check(addr uint64, n int) {
	size := uint64(len(r.data))
	if uint64(n) > size || addr > size-uint64(n) {
		panic(fmt.Sprintf("ram: access at %#x+%d exceeds size %#x", addr, n, len(r.data)))
	}
}

// mark records that the checked, non-empty range [addr, addr+n) is
// about to be written. A store inside one page sets one bit; a range
// marks each page it spans.
func (r *RAM) mark(addr uint64, n int) {
	p, last := addr/PageBytes, (addr+uint64(n)-1)/PageBytes
	r.dirty[p/64] |= 1 << (p % 64)
	for p < last {
		p++
		r.dirty[p/64] |= 1 << (p % 64)
	}
}

// Load32 reads a little-endian 32-bit word.
func (r *RAM) Load32(addr uint64) uint32 {
	r.check(addr, 4)
	return binary.LittleEndian.Uint32(r.data[addr:])
}

// Store32 writes a little-endian 32-bit word.
func (r *RAM) Store32(addr uint64, v uint32) {
	r.check(addr, 4)
	r.mark(addr, 4)
	binary.LittleEndian.PutUint32(r.data[addr:], v)
}

// Load16 reads a little-endian 16-bit halfword.
func (r *RAM) Load16(addr uint64) uint16 {
	r.check(addr, 2)
	return binary.LittleEndian.Uint16(r.data[addr:])
}

// Store16 writes a little-endian 16-bit halfword.
func (r *RAM) Store16(addr uint64, v uint16) {
	r.check(addr, 2)
	r.mark(addr, 2)
	binary.LittleEndian.PutUint16(r.data[addr:], v)
}

// LoadByte reads one byte.
func (r *RAM) LoadByte(addr uint64) byte {
	r.check(addr, 1)
	return r.data[addr]
}

// StoreByte writes one byte.
func (r *RAM) StoreByte(addr uint64, v byte) {
	r.check(addr, 1)
	r.mark(addr, 1)
	r.data[addr] = v
}

// WriteWords bulk-stores 32-bit words starting at addr (test and
// workload setup helper), checking and marking the range once.
func (r *RAM) WriteWords(addr uint64, words []uint32) {
	r.check(addr, 4*len(words))
	if len(words) == 0 {
		return
	}
	r.mark(addr, 4*len(words))
	dst := r.data[addr : addr+uint64(4*len(words))]
	for i, w := range words {
		binary.LittleEndian.PutUint32(dst[4*i:], w)
	}
}

// ReadWords bulk-loads n 32-bit words starting at addr.
func (r *RAM) ReadWords(addr uint64, n int) []uint32 {
	r.check(addr, 4*n)
	out := make([]uint32, n)
	src := r.data[addr : addr+uint64(4*n)]
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(src[4*i:])
	}
	return out
}

// WriteBytes bulk-stores raw bytes, checking and marking the range
// once.
func (r *RAM) WriteBytes(addr uint64, b []byte) {
	r.check(addr, len(b))
	if len(b) == 0 {
		return
	}
	r.mark(addr, len(b))
	copy(r.data[addr:], b)
}
