package workloads

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"cape/internal/core"
	"cape/internal/csb"
	"cape/internal/isa"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden.json and testdata/model.json from the current implementation")

// goldenDigest pins one workload's complete output state.
type goldenDigest struct {
	// Vec is an FNV-1a hash over all 32 vector registers × MaxVL
	// elements, read through the backend after the run.
	Vec string `json:"vec"`
	// RAM is a CRC-32C over the machine's entire main memory.
	RAM string `json:"ram"`
}

const goldenPath = "testdata/golden.json"

// modelEntry pins one run's modeled outputs: what the paper's figures
// are computed from, as opposed to the data the run produced (which
// golden.json pins). Result is the machine's exact accounting (time,
// energy, lane ops, memory bytes, instruction and page-fault counts,
// control-processor stats); CSB is the microoperation mix of a
// bit-level run.
type modelEntry struct {
	Result *core.Result `json:"result,omitempty"`
	CSB    *csb.Stats   `json:"csb,omitempty"`
}

const modelPath = "testdata/model.json"

// digestMachine hashes the machine's final architectural state.
func digestMachine(m *core.Machine) goldenDigest {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= uint64(v) & 0xff
			h *= prime64
			v >>= 8
		}
	}
	b := m.Backend()
	for v := 0; v < isa.NumVRegs; v++ {
		for e := 0; e < b.MaxVL(); e++ {
			mix(b.ReadElem(v, e))
		}
	}
	crc := crc32.Checksum(m.RAM().Bytes(), crc32.MakeTable(crc32.Castagnoli))
	return goldenDigest{
		Vec: fmt.Sprintf("%016x", h),
		RAM: fmt.Sprintf("%08x", crc),
	}
}

func loadGolden(t *testing.T) map[string]goldenDigest {
	t.Helper()
	return loadJSON[goldenDigest](t, goldenPath)
}

func loadModel(t *testing.T) map[string]modelEntry {
	t.Helper()
	return loadJSON[modelEntry](t, modelPath)
}

func loadJSON[T any](t *testing.T, path string) map[string]T {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden vectors (run with -update-golden to create): %v", err)
	}
	var want map[string]T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	return want
}

// checkModel compares one run's modeled outputs with its pinned entry.
// want is nil when regenerating.
func checkModel(t *testing.T, want map[string]modelEntry, name string, got modelEntry) {
	t.Helper()
	if want == nil {
		return
	}
	g, ok := want[name]
	if !ok {
		t.Fatalf("no model entry for %q (run -update-golden)", name)
	}
	if !reflect.DeepEqual(got, g) {
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(g)
		t.Fatalf("modeled outputs of %s drifted from %s:\n got %s\nwant %s\n"+
			"(if intentional, regenerate with -update-golden)", name, modelPath, gj, wj)
	}
}

// TestGoldenVectors locks every built-in kernel's full output state —
// vector registers and RAM — to checksums in testdata/golden.json, and
// its modeled outputs (the exact core.Result) to testdata/model.json,
// at both paper configurations on the fast backend. A backend or
// engine change that alters any workload's results or accounting fails
// here by name instead of silently shifting behaviour; intentional
// changes regenerate with `go test ./internal/workloads -run
// TestGoldenVectors -update-golden`. CAPE32k subtests and digests keep
// their original bare-name keys; CAPE131k ones are prefixed.
func TestGoldenVectors(t *testing.T) {
	var want map[string]goldenDigest
	var wantModel map[string]modelEntry
	if !*updateGolden {
		want = loadGolden(t)
		wantModel = loadModel(t)
	}

	var mu sync.Mutex
	got := make(map[string]goldenDigest)
	gotModel := make(map[string]modelEntry)

	// The enclosing Run returns only after all parallel subtests
	// finish, so the -update-golden write below sees every digest.
	t.Run("workloads", func(t *testing.T) {
		for _, cfg := range []core.Config{core.CAPE32k(), core.CAPE131k()} {
			for _, w := range append(Phoenix(), Micro()...) {
				cfg, w := cfg, w
				digestKey := w.Name
				if cfg.Name != core.CAPE32k().Name {
					digestKey = cfg.Name + "/" + w.Name
				}
				modelKey := cfg.Name + "/" + w.Name
				t.Run(digestKey, func(t *testing.T) {
					t.Parallel()
					m := NewMachine(cfg)
					prog, err := w.BuildCAPE(m)
					if err != nil {
						t.Fatalf("build: %v", err)
					}
					res, err := m.Run(prog)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if err := w.Check(m); err != nil {
						t.Fatalf("check: %v", err)
					}
					d := digestMachine(m)
					mu.Lock()
					got[digestKey] = d
					gotModel[modelKey] = modelEntry{Result: &res}
					mu.Unlock()
					checkModel(t, wantModel, modelKey, modelEntry{Result: &res})
					if want != nil {
						g, ok := want[digestKey]
						if !ok {
							t.Fatalf("no golden entry for %q (run -update-golden)", digestKey)
						}
						if d != g {
							t.Fatalf("output drifted from golden:\n got %+v\nwant %+v\n"+
								"(if intentional, regenerate with -update-golden)", d, g)
						}
					}
				})
			}
		}
	})

	if *updateGolden && !t.Failed() {
		mergeGolden(t, got)
		mergeModel(t, gotModel)
	}
}

// mergeGolden folds this test's digests into golden.json without
// disturbing entries owned by other golden tests (read-modify-write,
// so workload and query vectors can regenerate independently).
func mergeGolden(t *testing.T, got map[string]goldenDigest) {
	t.Helper()
	mergeJSON(t, goldenPath, got)
}

// mergeModel is mergeGolden for model.json.
func mergeModel(t *testing.T, got map[string]modelEntry) {
	t.Helper()
	mergeJSON(t, modelPath, got)
}

func mergeJSON[T any](t *testing.T, path string, got map[string]T) {
	t.Helper()
	goldenMu.Lock()
	defer goldenMu.Unlock()
	merged := map[string]T{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &merged); err != nil {
			t.Fatalf("parsing existing %s: %v", path, err)
		}
	}
	for n, d := range got {
		merged[n] = d
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	t.Logf("merged %d entries into %s: %v", len(got), path, names)
}

// goldenMu serializes golden.json and model.json read-modify-write
// across tests.
var goldenMu sync.Mutex
