package workloads

import (
	"os"
	"path/filepath"
	"testing"

	"cape/internal/asm"
	"cape/internal/core"
	"cape/internal/isa"
)

// The shipped saxpy examples hard-code these parameters (see
// examples/asm/saxpy.s): out[i] = 3*X[i] + Y[i] over 4096 words.
const (
	saxpyElems = 4096
	saxpyXBase = 0x100000
	saxpyYBase = 0x200000
	saxpyOut   = 0x300000
	saxpyScale = 3
)

func assembleExample(t *testing.T, name string) *isa.Program {
	t.Helper()
	path := filepath.Join("..", "..", "examples", "asm", name)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading example: %v", err)
	}
	prog, err := asm.Assemble(name, string(src))
	if err != nil {
		t.Fatalf("assembling %s: %v", name, err)
	}
	return prog
}

// saxpyMachine builds a machine big enough for the examples' fixed
// 0x300000 output base but with few enough chains that the bit-level
// backend strip-mines 4096 elements in test-friendly time.
func saxpyMachine(kind core.BackendKind) *core.Machine {
	cfg := core.CAPE32k()
	cfg.Chains = 8         // MAXVL 256 → 16 strips
	cfg.RAMBytes = 1 << 22 // covers out base + 4096 words
	cfg.Backend = kind
	return core.New(cfg)
}

// seedSaxpyInputs fills X and Y with a deterministic LCG pattern so
// the digests cover real carries, not zeros.
func seedSaxpyInputs(m *core.Machine) (x, y []uint32) {
	x = make([]uint32, saxpyElems)
	y = make([]uint32, saxpyElems)
	s := uint32(0x2545f491)
	for i := range x {
		s = s*1664525 + 1013904223
		x[i] = s
		s = s*1664525 + 1013904223
		y[i] = s
	}
	m.RAM().WriteWords(saxpyXBase, x)
	m.RAM().WriteWords(saxpyYBase, y)
	return x, y
}

// TestGoldenDSLKernel pins the .kernel DSL example's complete output
// state on BOTH backends and requires the two to be bit-identical to
// each other — the DSL lowering must not behave differently under the
// golden-semantics model and the real microcode model. It also checks
// the DSL program writes the same output memory as the hand-scheduled
// examples/asm/saxpy.s it replaces. The DSL runs' modeled outputs —
// the core.Result on both backends, plus the microoperation mix on the
// bit-level one — are pinned in model.json. Regenerate the pinned
// digests with `go test ./internal/workloads -run TestGoldenDSLKernel
// -update-golden`.
func TestGoldenDSLKernel(t *testing.T) {
	var want map[string]goldenDigest
	var wantModel map[string]modelEntry
	if !*updateGolden {
		want = loadGolden(t)
		wantModel = loadModel(t)
	}

	kernelProg := assembleExample(t, "saxpy_kernel.s")
	classicProg := assembleExample(t, "saxpy.s")

	got := make(map[string]goldenDigest)
	gotModel := make(map[string]modelEntry)
	backends := []struct {
		name string
		kind core.BackendKind
	}{
		{"fast", core.BackendFast},
		{"bitlevel", core.BackendBitLevel},
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			m := saxpyMachine(bk.kind)
			x, y := seedSaxpyInputs(m)
			res, err := m.Run(kernelProg)
			if err != nil {
				t.Fatalf("running DSL kernel: %v", err)
			}
			model := modelEntry{Result: &res}
			if bb, ok := m.Backend().(*core.BitBackend); ok {
				stats := bb.CSB().Stats
				model.CSB = &stats
			}
			gotModel["asm/saxpy_kernel:"+bk.name] = model
			checkModel(t, wantModel, "asm/saxpy_kernel:"+bk.name, model)
			out := m.RAM().ReadWords(saxpyOut, saxpyElems)
			for i := range out {
				if exp := saxpyScale*x[i] + y[i]; out[i] != exp {
					t.Fatalf("out[%d] = %#x, want %#x (3*%#x + %#x)", i, out[i], exp, x[i], y[i])
				}
			}

			// The hand-written loop must produce the same memory.
			mc := saxpyMachine(bk.kind)
			seedSaxpyInputs(mc)
			if _, err := mc.Run(classicProg); err != nil {
				t.Fatalf("running hand-written saxpy: %v", err)
			}
			cout := mc.RAM().ReadWords(saxpyOut, saxpyElems)
			for i := range cout {
				if out[i] != cout[i] {
					t.Fatalf("DSL and hand-written saxpy diverge at out[%d]: %#x vs %#x",
						i, out[i], cout[i])
				}
			}

			d := digestMachine(m)
			got["asm/saxpy_kernel:"+bk.name] = d
			if want != nil {
				g, ok := want["asm/saxpy_kernel:"+bk.name]
				if !ok {
					t.Fatalf("no golden entry for asm/saxpy_kernel:%s (run -update-golden)", bk.name)
				}
				if d != g {
					t.Fatalf("output drifted from golden:\n got %+v\nwant %+v\n"+
						"(if intentional, regenerate with -update-golden)", d, g)
				}
			}
		})
	}

	// Bit-identical across backends: same program, same inputs, same
	// complete architectural state.
	df, okF := got["asm/saxpy_kernel:fast"]
	db, okB := got["asm/saxpy_kernel:bitlevel"]
	if okF && okB && df != db {
		t.Fatalf("backends disagree on DSL kernel state: fast %+v, bitlevel %+v", df, db)
	}

	if *updateGolden && !t.Failed() {
		mergeGolden(t, got)
		mergeModel(t, gotModel)
	}
}
