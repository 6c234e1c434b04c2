// Package ucode is the compile-once microcode layer between the
// truth-table lowerer (internal/tt) and everything that consumes
// lowered sequences (the bit-level backend, the trace microop mix, the
// energy model, the VCU bus encoder). The paper's VCU stores microcode
// as static tables indexed per instruction (§V-D, Fig. 7); this
// package gives the simulator the same shape by splitting lowering
// into two stages:
//
//   - a template stage, keyed by (op, vd, vs2, vs1, sew): the full
//     microcode structure, generated once via tt.GenerateSEW and kept
//     immutable, together with its microop mix, cycle cost and lazily
//     pre-encoded VCU command words;
//   - a binding stage that patches the per-call scalar x into the
//     template's x-slots (the X field of splat KUpdateX rows and
//     .vx KSearchX keys) on a shallow copy.
//
// Templates are discovered by probing: the instruction is lowered with
// two sentinel scalars and the sequences compared element-wise.
// Positions that differ only in the X field of a scalar-carrying
// microop are x-slots; any other difference means the scalar shapes
// the microcode itself (the immediate shifts, where x selects which
// bit-copy rows are emitted) and the masked scalar joins the cache key
// instead.
//
// Templates are immutable after construction and the cache takes a
// single short lock per lookup, so one cache is safely shared by every
// machine in a pooled server shard. ucode.Lower with a nil *Cache is
// the uncached path: a single direct tt.GenerateSEW call with no
// probing, used where compile-once would not pay (one-shot tools) and
// held to within 3% of direct lowering by a CI guard.
package ucode

import (
	"sync"

	"cape/internal/isa"
	"cape/internal/tt"
	"cape/internal/vcu"
)

// Key identifies one microcode template. XKey is zero except for
// structural ops (immediate shifts), where the masked scalar changes
// the generated sequence and must distinguish templates.
type Key struct {
	Op           isa.Opcode
	Vd, Vs2, Vs1 uint8
	SEW          uint8
	XKey         uint64
}

// template is one immutable compiled sequence. ops holds the scalar
// slots with X = 0 (the first probe value); xSlots lists the indices
// to patch at bind time. words is the pre-encoded VCU command stream,
// built on first use.
type template struct {
	ops    []tt.MicroOp
	xSlots []int32
	mix    tt.Mix
	cost   int

	wordsOnce sync.Once
	words     []vcu.CommandWord
	wordsErr  error
}

// Seq is one lowered instruction: an immutable-by-convention microop
// slice plus the template bookkeeping that makes Mix/Cost/Words free
// on cache hits. The zero Seq is empty. Callers must not mutate Ops():
// for templates without x-slots the slice is shared with the cache.
type Seq struct {
	ops  []tt.MicroOp
	tmpl *template
	hit  bool
}

// Ops returns the bound microop sequence. Treat it as read-only.
func (s Seq) Ops() []tt.MicroOp { return s.ops }

// Len returns the microop count.
func (s Seq) Len() int { return len(s.ops) }

// CacheHit reports whether the sequence came from a cached template.
func (s Seq) CacheHit() bool { return s.hit }

// Mix returns the microoperation mix. The mix is binding-invariant
// (kinds never depend on x), so cached templates serve it without
// rescanning the sequence.
func (s Seq) Mix() tt.Mix {
	if s.tmpl != nil {
		return s.tmpl.mix
	}
	return tt.MixOf(s.ops)
}

// Cost returns the sequence's VCU cycle cost, also binding-invariant.
func (s Seq) Cost() int {
	if s.tmpl != nil {
		return s.tmpl.cost
	}
	return tt.Cost(s.ops)
}

// Words returns the 143-bit VCU command words for the sequence. The
// template's stream is encoded once and reused; only x-slot positions
// are re-encoded per binding, so on the hot path the global-bus
// encoding is compile-once like the microcode itself.
func (s Seq) Words() ([]vcu.CommandWord, error) {
	t := s.tmpl
	if t == nil {
		return encodeAll(s.ops)
	}
	t.wordsOnce.Do(func() {
		t.words, t.wordsErr = encodeAll(t.ops)
	})
	if t.wordsErr != nil {
		return nil, t.wordsErr
	}
	if len(t.xSlots) == 0 {
		return t.words, nil
	}
	out := make([]vcu.CommandWord, len(t.words))
	copy(out, t.words)
	for _, i := range t.xSlots {
		w, err := vcu.Encode(s.ops[i])
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

func encodeAll(ops []tt.MicroOp) ([]vcu.CommandWord, error) {
	words := make([]vcu.CommandWord, len(ops))
	for i := range ops {
		w, err := vcu.Encode(ops[i])
		if err != nil {
			return nil, err
		}
		words[i] = w
	}
	return words, nil
}

// maskX reduces x to the bits the generator keeps, mirroring
// tt.GenerateSEW so equal-after-masking scalars share one binding.
// The reduction is op-aware: vmsearch.vx keeps 2×SEW bits for its
// packed (value, care) pair.
func maskX(op isa.Opcode, x uint64, sew int) uint64 {
	if sew > 0 && sew < 64 {
		x = tt.MaskScalar(op, x, sew)
	}
	return x
}

// Lower lowers one vector instruction to microcode through cache c. A
// nil cache is the uncached path: one direct tt.GenerateSEW call. This
// is the single production entry point for lowering; core, emu and the
// VCU encoding all go through it.
func Lower(c *Cache, op isa.Opcode, vd, vs2, vs1 int, x uint64, sew int) (Seq, error) {
	if c == nil {
		ops, err := tt.GenerateSEW(op, vd, vs2, vs1, x, sew)
		if err != nil {
			return Seq{}, err
		}
		return Seq{ops: ops}, nil
	}
	return c.lower(op, vd, vs2, vs1, x, sew)
}

// probe scalars for x-slot discovery: all-zeros and all-ones differ in
// every kept bit at every SEW, so any scalar-dependent field differs
// between the two lowerings.
const (
	probeLo = uint64(0)
	probeHi = ^uint64(0)
)

// buildTemplate lowers the instruction with both probe scalars and
// classifies it. For bindable ops it returns the template (ops carry
// X = probeLo at the x-slots) and structural == false; for structural
// ops it lowers once more with the real masked scalar and returns
// that sequence as an x-specific template.
func buildTemplate(op isa.Opcode, vd, vs2, vs1 int, maskedX uint64, sew int) (*template, bool, error) {
	lo, err := tt.GenerateSEW(op, vd, vs2, vs1, probeLo, sew)
	if err != nil {
		return nil, false, err
	}
	hi, err := tt.GenerateSEW(op, vd, vs2, vs1, probeHi, sew)
	if err != nil {
		return nil, false, err
	}
	structural := len(lo) != len(hi)
	var xSlots []int32
	if !structural {
		for i := range lo {
			if lo[i] == hi[i] {
				continue
			}
			a, b := lo[i], hi[i]
			a.X, b.X = 0, 0
			if a == b && (lo[i].Kind == tt.KSearchX || lo[i].Kind == tt.KUpdateX) {
				xSlots = append(xSlots, int32(i))
				continue
			}
			// The scalar changed something other than an X operand:
			// the microcode shape itself depends on x.
			structural = true
			break
		}
	}
	if structural {
		ops, err := tt.GenerateSEW(op, vd, vs2, vs1, maskedX, sew)
		if err != nil {
			return nil, false, err
		}
		return &template{ops: ops, mix: tt.MixOf(ops), cost: tt.Cost(ops)}, true, nil
	}
	return &template{ops: lo, xSlots: xSlots, mix: tt.MixOf(lo), cost: tt.Cost(lo)}, false, nil
}

// bind produces the Seq for one scalar value. Templates without
// x-slots are served zero-copy; otherwise the slice is copied and the
// scalar patched in.
func (t *template) bind(maskedX uint64, hit bool) Seq {
	if len(t.xSlots) == 0 || maskedX == probeLo {
		return Seq{ops: t.ops, tmpl: t, hit: hit}
	}
	ops := make([]tt.MicroOp, len(t.ops))
	copy(ops, t.ops)
	for _, i := range t.xSlots {
		ops[i].X = maskedX
	}
	return Seq{ops: ops, tmpl: t, hit: hit}
}
