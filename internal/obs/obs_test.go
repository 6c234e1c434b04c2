package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"cape/internal/isa"
	"cape/internal/tt"
)

// TestNilRecorderSafe drives every method through a nil receiver; any
// panic fails the test.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder enabled")
	}
	if r.SampleEvery() != 0 {
		t.Fatal("nil SampleEvery")
	}
	r.SetMaxEvents(10)
	r.Reset()
	r.AddInst(StageCP, ClassScalarALU, 1)
	r.AddCycles(StageCSB, ClassVectorALU, 1)
	r.AddWall(StageVMU, ClassVectorMem, 1)
	r.AddOcc(StageVCU, ClassVectorALU, 1)
	r.AddMix(tt.Mix{}, 3)
	if r.Sample() {
		t.Fatal("nil recorder sampled")
	}
	if r.SinceNS() != 0 {
		t.Fatal("nil SinceNS")
	}
	r.SimSpanCycles("x", StageCP, 0, 1, "", 0)
	r.SimSpanPS("x", StageVMU, 0, 1, "", 0)
	r.HostSpan("x", StageCSB, 0, 1, "", 0)
	if r.Profile() != nil || r.Events() != nil || r.DroppedEvents() != 0 {
		t.Fatal("nil accessors must return zero values")
	}
	if b := r.ChromeTrace(); b != nil {
		t.Fatal("nil ChromeTrace must be nil")
	}
}

// TestNilRecorderZeroAlloc: the disabled path must not allocate.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.AddInst(StageCP, ClassScalarALU, 1)
		r.AddCycles(StageCSB, ClassVectorALU, 2)
		r.AddOcc(StageVCU, ClassVectorALU, 3)
		r.Sample()
		r.SimSpanCycles("x", StageCP, 0, 1, "", 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates: %v allocs/op", allocs)
	}
}

// TestClassMirrorsISA pins the cast-compatibility contract with
// isa.Class.
func TestClassMirrorsISA(t *testing.T) {
	pairs := []struct {
		isa isa.Class
		obs Class
	}{
		{isa.ClassScalarALU, ClassScalarALU},
		{isa.ClassScalarMem, ClassScalarMem},
		{isa.ClassBranch, ClassBranch},
		{isa.ClassVectorCfg, ClassVectorCfg},
		{isa.ClassVectorMem, ClassVectorMem},
		{isa.ClassVectorALU, ClassVectorALU},
		{isa.ClassVectorRed, ClassVectorRed},
		{isa.ClassSystem, ClassSystem},
	}
	for _, p := range pairs {
		if FromISA(p.isa) != p.obs {
			t.Fatalf("FromISA(%d) = %v, want %v", p.isa, FromISA(p.isa), p.obs)
		}
	}
	// The query classes extend the profile beyond the isa mirror; only
	// the isa-backed prefix must cast cleanly.
	if len(pairs) != int(ClassQuerySearch) {
		t.Fatalf("class mapping table covers %d of %d isa-backed classes", len(pairs), ClassQuerySearch)
	}
	if NumClasses != int(ClassQueryReduce)+1 {
		t.Fatalf("NumClasses %d does not cover the query classes", NumClasses)
	}
}

func TestStageOfClass(t *testing.T) {
	if StageOfClass(ClassVectorALU) != StageCSB || StageOfClass(ClassVectorRed) != StageCSB {
		t.Fatal("vector ALU/red must map to CSB")
	}
	if StageOfClass(ClassVectorMem) != StageVMU {
		t.Fatal("vector mem must map to VMU")
	}
	if StageOfClass(ClassScalarALU) != StageCP {
		t.Fatal("scalar must map to CP")
	}
}

func TestSampling(t *testing.T) {
	r := New(3)
	got := 0
	for i := 0; i < 9; i++ {
		if r.Sample() {
			got++
		}
	}
	if got != 3 {
		t.Fatalf("sample(3) over 9: %d hits", got)
	}
	if New(0).SampleEvery() != 1 {
		t.Fatal("sampleEvery must clamp to 1")
	}
}

func TestEventCapAndDrops(t *testing.T) {
	r := New(1)
	r.SetMaxEvents(4)
	for i := 0; i < 10; i++ {
		r.SimSpanCycles("s", StageCP, int64(i), 1, "", 0)
	}
	if len(r.Events()) != 4 {
		t.Fatalf("events: %d", len(r.Events()))
	}
	if r.DroppedEvents() != 6 {
		t.Fatalf("dropped: %d", r.DroppedEvents())
	}
	// The drop count surfaces in the Chrome export.
	if !strings.Contains(string(r.ChromeTrace()), "dropped_events") {
		t.Fatal("dropped_events missing from trace")
	}
}

func TestProfileTableAndEntries(t *testing.T) {
	r := New(1)
	r.AddInst(StageCP, ClassScalarALU, 10)
	r.AddInst(StageCSB, ClassVectorALU, 30)
	r.AddWall(StageCSB, ClassVectorALU, 500)
	r.AddOcc(StageVCU, ClassVectorALU, 7)
	r.AddMix(tt.Mix{SearchSerial: 2, Reduce: 1}, 3)
	p := r.Profile()
	if p.TotalCycles() != 40 {
		t.Fatalf("total: %d", p.TotalCycles())
	}
	attr := p.AttrEntries()
	if len(attr) != 2 || attr[0].Stage != "cp" || attr[1].Stage != "csb" {
		t.Fatalf("attr entries: %+v", attr)
	}
	occ := p.OccEntries()
	if len(occ) != 1 || occ[0].Stage != "vcu" || occ[0].Cycles != 7 {
		t.Fatalf("occ entries: %+v", occ)
	}
	tbl := p.Table()
	for _, want := range []string{"scalar-alu", "vector-alu", "40", "100.0%", "microops 3"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
	// Entries must round-trip through JSON with stable field names.
	b, err := json.Marshal(attr[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"stage"`, `"class"`, `"cycles"`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("entry JSON missing %s: %s", want, b)
		}
	}
}

func TestChromeTraceClockDomains(t *testing.T) {
	r := New(1)
	// 2,700,000 ps -> 2.7 µs on the sim pid; 5,000 ns -> 5 µs on host.
	r.SimSpanPS("sim", StageVMU, 2_700_000, 1_000_000, "bytes", 64)
	r.HostSpan("host", StageCSB, 5_000, 1_000, "chains", 8)
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(r.ChromeTrace(), &doc); err != nil {
		t.Fatal(err)
	}
	var simOK, hostOK bool
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "sim":
			simOK = e.Pid == 1 && e.TS == 2.7 && e.Dur == 1.0 && e.Args["bytes"] == float64(64)
		case "host":
			hostOK = e.Pid == 2 && e.Tid == 0 && e.TS == 5.0 && e.Dur == 1.0
		}
	}
	if !simOK || !hostOK {
		t.Fatalf("clock domain conversion wrong: %+v", doc.TraceEvents)
	}
}

func TestReset(t *testing.T) {
	r := New(2)
	r.AddInst(StageCP, ClassScalarALU, 5)
	r.SimSpanCycles("s", StageCP, 0, 1, "", 0)
	r.Sample()
	r.Reset()
	if r.Profile().TotalCycles() != 0 || len(r.Events()) != 0 || r.DroppedEvents() != 0 {
		t.Fatal("Reset must clear data")
	}
	if r.SampleEvery() != 2 {
		t.Fatal("Reset must keep configuration")
	}
	// Sampling phase restarts too: with sampleEvery=2 the second event
	// after Reset is the first sampled one.
	if r.Sample() {
		t.Fatal("phase not reset")
	}
	if !r.Sample() {
		t.Fatal("second post-Reset event must sample")
	}
}
