package core

import (
	"encoding/json"
	"testing"

	"cape/internal/isa"
	"cape/internal/obs"
)

// traceProg is a kernel exercising every attribution class: a scalar
// loop with loads/stores and branches around vector loads, an add, a
// reduction (scalar-consumer stall), and a store.
func traceProg() *isa.Program {
	return isa.NewBuilder("traceprog").
		Li(1, 100).
		Vsetvli(2, 1).
		Li(10, 0x1000).
		Li(11, 0x2000).
		Li(12, 0x3000).
		Li(5, 0).
		Li(6, 8).
		Label("loop").
		Lw(7, 0, 10).
		Addi(7, 7, 1).
		Sw(7, 0, 12).
		Addi(5, 5, 1).
		Blt(5, 6, "loop").
		Vle32(1, 10).
		Vle32(2, 11).
		VaddVV(3, 1, 2).
		VredsumVS(4, 3, 1).
		VmvXS(9, 4).
		Vse32(3, 12).
		Halt().
		MustBuild()
}

func runTraced(t *testing.T, kind BackendKind) (*Machine, Result) {
	t.Helper()
	cfg := CAPE32k()
	cfg.Chains = 4
	cfg.Backend = kind
	cfg.RAMBytes = 1 << 20
	cfg.Trace = true
	m := New(cfg)
	for i := 0; i < 100; i++ {
		m.RAM().Store32(uint64(0x1000+4*i), uint32(i*3))
		m.RAM().Store32(uint64(0x2000+4*i), uint32(1000-i))
	}
	res, err := m.Run(traceProg())
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// TestTraceProfileTotalMatchesCycles is the exactness acceptance check:
// the attribution table must sum to the machine's aggregate cycle count
// exactly, on every backend.
func TestTraceProfileTotalMatchesCycles(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind BackendKind
	}{
		{"fast", BackendFast},
		{"bit-serial", BackendBitLevel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, res := runTraced(t, tc.kind)
			p := m.Recorder().Profile()
			if got, want := p.TotalCycles(), res.CP.Cycles; got != want {
				t.Fatalf("profile total %d != machine cycles %d\n%s", got, want, p.Table())
			}
			if p.TotalCycles() == 0 {
				t.Fatal("empty profile")
			}
			// Every class the kernel exercises must be populated.
			for _, cl := range []obs.Class{
				obs.ClassScalarALU, obs.ClassScalarMem, obs.ClassBranch,
				obs.ClassVectorCfg, obs.ClassSystem,
			} {
				if p.Attr[obs.StageCP][cl].Count == 0 {
					t.Errorf("no CP attribution for class %v", cl)
				}
			}
			if p.Attr[obs.StageVMU][obs.ClassVectorMem].Cycles == 0 {
				t.Error("no VMU attribution for vector memory")
			}
			if p.Occ[obs.StageVMU][obs.ClassVectorMem].Cycles == 0 {
				t.Error("no VMU occupancy")
			}
			if p.Occ[obs.StageVCU][obs.ClassVectorALU].Count == 0 {
				t.Error("no VCU occupancy for vector ALU")
			}
			if tc.kind == BackendBitLevel && p.MicroOps == 0 {
				t.Error("no microop mix on the bit backend")
			}
			if tbl := p.Table(); len(tbl) == 0 {
				t.Error("empty table rendering")
			}
		})
	}
}

// TestTraceChromeExport checks the timeline is a loadable trace_event
// document with spans in both clock domains (bit backend).
func TestTraceChromeExport(t *testing.T) {
	m, _ := runTraced(t, BackendBitLevel)
	rec := m.Recorder()
	if len(rec.Events()) == 0 {
		t.Fatal("no timeline events")
	}
	raw := rec.ChromeTrace()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var sim, host, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			if e.Pid == 1 {
				sim++
			} else {
				host++
			}
		}
	}
	if meta == 0 || sim == 0 || host == 0 {
		t.Fatalf("want metadata, sim and host events; got meta=%d sim=%d host=%d", meta, sim, host)
	}
}

// TestTraceDoesNotPerturbExecution runs the same kernel with and
// without a recorder and requires identical architectural and timing
// results.
func TestTraceDoesNotPerturbExecution(t *testing.T) {
	for _, kind := range []BackendKind{BackendFast, BackendBitLevel} {
		cfg := CAPE32k()
		cfg.Chains = 4
		cfg.Backend = kind
		cfg.RAMBytes = 1 << 20
		run := func(trace bool) (Result, []uint32) {
			c := cfg
			c.Trace = trace
			m := New(c)
			for i := 0; i < 100; i++ {
				m.RAM().Store32(uint64(0x1000+4*i), uint32(i*3))
				m.RAM().Store32(uint64(0x2000+4*i), uint32(1000-i))
			}
			res, err := m.Run(traceProg())
			if err != nil {
				t.Fatal(err)
			}
			return res, m.RAM().ReadWords(0x3000, 100)
		}
		plain, outPlain := run(false)
		traced, outTraced := run(true)
		if plain != traced {
			t.Fatalf("backend %d: results diverge: %+v vs %+v", kind, plain, traced)
		}
		for i := range outPlain {
			if outPlain[i] != outTraced[i] {
				t.Fatalf("backend %d: memory diverges at %d", kind, i)
			}
		}
	}
}

// TestTraceReset checks pooled reuse: Reset clears the profile in
// place (the same recorder stays installed in CP/VCU/CSB) and a rerun
// is exact again.
func TestTraceReset(t *testing.T) {
	m, _ := runTraced(t, BackendBitLevel)
	rec := m.Recorder()
	m.Reset()
	if got := rec.Profile().TotalCycles(); got != 0 {
		t.Fatalf("profile survives Reset: %d cycles", got)
	}
	if n := len(rec.Events()); n != 0 {
		t.Fatalf("timeline survives Reset: %d events", n)
	}
	for i := 0; i < 100; i++ {
		m.RAM().Store32(uint64(0x1000+4*i), uint32(i*3))
		m.RAM().Store32(uint64(0x2000+4*i), uint32(1000-i))
	}
	res, err := m.Run(traceProg())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Profile().TotalCycles(), res.CP.Cycles; got != want {
		t.Fatalf("post-Reset profile total %d != cycles %d", got, want)
	}
}

// TestSetRecorderPerJob mirrors the server's pooled-machine flow: an
// untraced machine gets a recorder for one job and loses it after.
func TestSetRecorderPerJob(t *testing.T) {
	m := small(BackendBitLevel)
	rec := obs.New(1)
	m.SetRecorder(rec)
	res, err := m.Run(traceProg())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Profile().TotalCycles(), res.CP.Cycles; got != want {
		t.Fatalf("profile total %d != cycles %d", got, want)
	}
	m.SetRecorder(nil)
	if m.Recorder() != nil {
		t.Fatal("recorder not removed")
	}
	m.Reset()
	if rec.Profile().TotalCycles() == 0 { // detached: must keep its data
		t.Fatal("detached recorder was reset with the machine")
	}
}
