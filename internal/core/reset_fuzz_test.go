package core

import (
	"bytes"
	"testing"

	"cape/internal/isa"
)

// resetFuzzRAM is the fuzzed machines' memory size. It is not a page
// multiple, so the last page is partial and stores that end exactly at
// the last byte exercise Reset's clamp.
const resetFuzzRAM = 4*PageBytes + 1234

// FuzzResetMatchesFresh drives a pooled machine through random writes
// to every tracked structure — scalar sb/sw through the CP, sh and
// WriteWords/WriteBytes through the RAM API, vse8/16/32 and vle under
// random vl/vstart, and vector ALU writes — resets it, and requires
// the result to be indistinguishable from a freshly built machine:
//
//   - every byte of main memory is zero and no page is left marked;
//   - the backend equals a fresh one: the CSB state digest on the
//     bit-level backend, every register element on the fast one;
//   - a fixed probe program then produces the fresh machine's Result,
//     its dump and its whole memory image.
//
// Addresses favour page-straddling ranges and the last bytes of RAM.
//
// Encoding: data[0] selects the backend (bit 0); data[1] the chain
// count (255 = 1,024 chains, the CAPE32k shape; otherwise 1–4); then
// 6-byte records [kind, a, b, c, d, e] decoded by resetFuzzProgram.
func FuzzResetMatchesFresh(f *testing.F) {
	everyKind := []byte{
		5, 0x78, 0x56, 0x34, 0x12, 31, // vmv.v.x v31
		5, 0xff, 0xff, 0xff, 0xff, 9, // vmv.v.x v9
		5, 0x01, 0x80, 0x00, 0x00, 5, // vmv.v.x v5
		6, 4, 31, 9, 0, 0, // vadd.vv v4, v31, v9
		3, 2, 5, 100, 3, 0, // vse32 v5 straddling a page
		3, 1, 9, 60, 1, 1, // vse16 v9 at the end of RAM
		3, 0, 31, 90, 40, 6, // vse8 v31 with a vstart
		3, 2, 4, 127, 0, 2, // vse32 v4
		4, 2, 7, 6, 2, 0, // vle32 v7 straddling a page
		0, 0, 1, 0x11, 0x22, 0x33, // sw straddling a page
		0, 1, 0, 0x44, 0x55, 0x66, // sw at the end of RAM
		1, 1, 2, 0x77, 0, 0, // sb at the last byte
		2, 0, 3, 0x12, 0x34, 0, // sh straddling a page
		7, 0, 2, 40, 0, 0, // WriteWords straddling a page
		8, 1, 0, 17, 0, 0, // WriteBytes at the end of RAM
	}
	for _, head := range [][]byte{
		{0, 3}, // fast backend, 4 chains
		{1, 3}, // bit-level backend, 4 chains
		{1, 0}, // bit-level backend, 1 chain (MaxVL 32)
		{0, 255},
		{1, 255}, // CAPE32k bit-level: full-size bitmaps
	} {
		f.Add(append(append([]byte{}, head...), everyKind...))
	}
	// One record alone, so no other write marks its pages.
	for _, rec := range [][]byte{
		{0, 12, 1, 1, 2, 3},      // sw ending exactly at a page boundary
		{1, 0, 2, 0x77, 0, 0},    // sb at the last byte of a page
		{1, 2, 9, 0x70, 0, 0},    // sb anywhere
		{2, 4, 2, 0x12, 0x34, 0}, // sh straddling a page
		{2, 2, 7, 0x12, 0x34, 0}, // sh anywhere
	} {
		f.Add(append([]byte{0, 3}, rec...))
	}
	f.Add([]byte{1, 2})                         // no writes at all
	f.Add([]byte{0, 1, 7, 3, 255, 0, 0, 0})     // WriteWords ending at the last word
	f.Add([]byte{1, 2, 5, 3, 1, 2, 3, 17})      // a lone splat
	f.Add([]byte{0, 2, 3, 0, 2, 31, 255, 2, 9}) // trailing partial record
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		kind := BackendKind(data[0] & 1)
		chains := 1 + int(data[1])%4
		if data[1] == 255 {
			chains = 1024
		}
		newMachine := func() *Machine {
			cfg := CAPE32k()
			cfg.Chains = chains
			cfg.Backend = kind
			cfg.RAMBytes = resetFuzzRAM
			return New(cfg)
		}
		m := newMachine()
		prog := resetFuzzProgram(m, data[2:])
		if _, err := m.Run(prog); err != nil {
			t.Fatal(err)
		}
		m.Reset()

		for i, b := range m.RAM().Bytes() {
			if b != 0 {
				t.Fatalf("byte %#x is %#x after Reset", i, b)
			}
		}
		if p := dirtyPages(m.RAM()); len(p) != 0 {
			t.Fatalf("Reset left dirty pages %v", p)
		}
		fresh := newMachine()
		switch b := m.Backend().(type) {
		case *BitBackend:
			if got, want := b.CSB().StateDigest(), fresh.Backend().(*BitBackend).CSB().StateDigest(); got != want {
				t.Fatalf("CSB digest %#x after Reset, fresh %#x", got, want)
			}
		case *FastBackend:
			for v := range b.reg {
				for e, x := range b.reg[v] {
					if x != 0 {
						t.Fatalf("v%d[%d] = %#x after Reset", v, e, x)
					}
				}
			}
		}

		gotRes, gotDump := runProbe(t, m)
		wantRes, wantDump := runProbe(t, fresh)
		if gotRes != wantRes {
			t.Fatalf("probe after Reset: %+v, fresh %+v", gotRes, wantRes)
		}
		for i := range wantDump {
			if gotDump[i] != wantDump[i] {
				t.Fatalf("probe dump word %d: %#x, fresh %#x", i, gotDump[i], wantDump[i])
			}
		}
		if !bytes.Equal(m.RAM().Bytes(), fresh.RAM().Bytes()) {
			t.Fatal("memory image after the probe differs from a fresh machine's")
		}
	})
}

// resetFuzzAddr picks the start of an n-byte range inside RAM: sel%4
// == 0 straddles a page boundary or ends exactly at one, 1 ends within
// the last four bytes of RAM, anything else is spread over the whole
// memory.
func resetFuzzAddr(sel, off byte, n int) uint64 {
	size := resetFuzzRAM
	switch sel % 4 {
	case 0:
		boundary := (1 + int(off)%(size/PageBytes)) * PageBytes
		if a := boundary - 1 - int(sel>>2)%n; a >= 0 && a+n <= size {
			return uint64(a)
		}
		return uint64(size - n)
	case 1:
		a := size - n - int(sel>>2)%4
		if a < 0 {
			a = 0
		}
		return uint64(a)
	}
	return uint64((int(sel)<<8 | int(off)) * 7 % (size - n + 1))
}

// resetFuzzProgram applies the RAM-API records of recs to m directly
// and returns a program carrying the CP and vector records. Records:
//
//	0 sw, 1 sb: value b..e at resetFuzzAddr(a, b)
//	2 sh (RAM API): value c,d at resetFuzzAddr(a, b)
//	3 vse, 4 vle: width a%3 (8/16/32 bits), register b, vl from c,
//	  vstart from d, address from e
//	5 vmv.v.x: vd e%32 = value a,b,c,d
//	6 vadd.vv: vd a%32, vs2 b%32, vs1 c%32
//	7 WriteWords: 1 + c%64 words at resetFuzzAddr(a, b)
//	8 WriteBytes: 1 + c bytes at resetFuzzAddr(a, b)
//
// Vector records run under their own vsetvli (and vstart for memory
// records); the machine's RAM is small enough that most random ranges
// overlap earlier ones.
func resetFuzzProgram(m *Machine, recs []byte) *isa.Program {
	b := isa.NewBuilder("reset-fuzz")
	maxVL := m.MaxVL()
	lcg := uint32(1)
	next := func() uint32 { lcg = lcg*1664525 + 1013904223; return lcg }
	for ; len(recs) >= 6; recs = recs[6:] {
		r := recs[:6]
		val := int64(int32(uint32(r[2]) | uint32(r[3])<<8 | uint32(r[4])<<16 | uint32(r[5])<<24))
		switch r[0] % 9 {
		case 0:
			b.Li(5, int64(resetFuzzAddr(r[1], r[2], 4))).Li(6, val).Sw(6, 0, 5)
		case 1:
			b.Li(5, int64(resetFuzzAddr(r[1], r[2], 1))).Li(6, val|1).Sb(6, 0, 5)
		case 2:
			m.RAM().Store16(resetFuzzAddr(r[1], r[2], 2), uint16(r[3])<<8|uint16(r[4])|1)
		case 3, 4:
			sz := []int{1, 2, 4}[int(r[1])%3]
			vl := 1 + int(r[3])%maxVL
			if vl*sz > resetFuzzRAM {
				vl = resetFuzzRAM / sz
			}
			vstart := int(r[4]) % (vl + 1)
			addr := resetFuzzAddr(r[5], r[3], vl*sz)
			b.Li(1, int64(vl)).VsetvliSEW(2, 1, 8*sz).
				Li(3, int64(vstart)).CsrwVstart(3).
				Li(10, int64(addr))
			v := int(r[2]) % isa.NumVRegs
			load := r[0]%9 == 4
			switch {
			case sz == 4 && load:
				b.Vle32(v, 10)
			case sz == 4:
				b.Vse32(v, 10)
			case sz == 2 && load:
				b.Vle16(v, 10)
			case sz == 2:
				b.Vse16(v, 10)
			case load:
				b.Vle8(v, 10)
			default:
				b.Vse8(v, 10)
			}
		case 5:
			b.Li(1, int64(maxVL)).Vsetvli(2, 1).
				Li(4, int64(int32(uint32(r[1])|uint32(r[2])<<8|uint32(r[3])<<16|uint32(r[4])<<24))).
				VmvVX(int(r[5])%isa.NumVRegs, 4)
		case 6:
			b.Li(1, int64(maxVL)).Vsetvli(2, 1).
				VaddVV(int(r[1])%isa.NumVRegs, int(r[2])%isa.NumVRegs, int(r[3])%isa.NumVRegs)
		case 7:
			words := make([]uint32, 1+int(r[3])%64)
			for i := range words {
				words[i] = next() | 1
			}
			m.RAM().WriteWords(resetFuzzAddr(r[1], r[2], 4*len(words)), words)
		case 8:
			bs := make([]byte, 1+int(r[3]))
			for i := range bs {
				bs[i] = byte(next()) | 1
			}
			m.RAM().WriteBytes(resetFuzzAddr(r[1], r[2], len(bs)), bs)
		}
	}
	return b.Halt().MustBuild()
}
