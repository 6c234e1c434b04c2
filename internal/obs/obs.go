// Package obs is the execution tracing and cycle-attribution
// profiling spine of the simulator: a per-job Recorder threaded
// through the Control Processor, the Vector Control Unit, the
// Compute-Storage Block and the Vector Memory Unit.
//
// It produces two complementary views of a run:
//
//   - a cycle-attribution profile: every cycle of the CP clock is
//     charged to exactly one (stage, instruction class) bucket, so the
//     profile total matches the machine's aggregate cycle count
//     exactly (the paper's §VI per-kernel breakdowns); a second
//     occupancy table records unit busy cycles that may overlap the
//     CP timeline (VMU transfer time vs. CSB compute time), plus the
//     microoperation mix of every expanded vector instruction;
//   - an optional event timeline: instruction spans in simulated time
//     and CSB microcode-run spans in host time, exportable as Chrome
//     trace_event JSON for chrome://tracing / Perfetto.
//
// A nil *Recorder is the disabled tracer: every method is nil-safe,
// allocation-free and a single predictable branch, so the hot
// interpreter and chain loops pay nothing when tracing is off. An
// enabled Recorder is driven by one goroutine: the one running the
// machine it is installed on.
package obs

import (
	"time"

	"cape/internal/isa"
	"cape/internal/timing"
	"cape/internal/tt"
)

// Stage identifies the pipeline unit a cycle or event is attributed
// to (paper Fig. 2).
type Stage uint8

const (
	// StageCP is the Control Processor's scalar pipeline: issue slots,
	// branch penalties, and scalar cache-miss stalls.
	StageCP Stage = iota
	// StageVCU is the Vector Control Unit: microcode expansion and
	// global command distribution.
	StageVCU
	// StageCSB is the Compute-Storage Block: associative search/update
	// execution and the reduction tree.
	StageCSB
	// StageVMU is the Vector Memory Unit: HBM transfers feeding the
	// CSB.
	StageVMU

	// NumStages is the number of distinct stages.
	NumStages = 4
)

func (s Stage) String() string {
	switch s {
	case StageCP:
		return "cp"
	case StageVCU:
		return "vcu"
	case StageCSB:
		return "csb"
	case StageVMU:
		return "vmu"
	}
	return "stage?"
}

// Class is the instruction-class dimension of the profile. The values
// mirror isa.Class one for one (FromISA is a cast) so conversion on
// the interpreter hot path is free.
type Class uint8

const (
	ClassScalarALU Class = iota
	ClassScalarMem
	ClassBranch
	ClassVectorCfg
	ClassVectorMem
	ClassVectorALU
	ClassVectorRed
	ClassSystem

	// ClassQuerySearch and ClassQueryReduce extend the profile beyond
	// the isa.Class mirror for the query engine (internal/query): the
	// engine re-attributes its vector work so traces separate
	// associative search time from reduction/drain time.
	ClassQuerySearch
	ClassQueryReduce

	// NumClasses is the number of distinct classes.
	NumClasses = 10
)

func (c Class) String() string {
	switch c {
	case ClassScalarALU:
		return "scalar-alu"
	case ClassScalarMem:
		return "scalar-mem"
	case ClassBranch:
		return "branch"
	case ClassVectorCfg:
		return "vector-cfg"
	case ClassVectorMem:
		return "vector-mem"
	case ClassVectorALU:
		return "vector-alu"
	case ClassVectorRed:
		return "vector-red"
	case ClassSystem:
		return "system"
	case ClassQuerySearch:
		return "query-search"
	case ClassQueryReduce:
		return "query-reduce"
	}
	return "class?"
}

// FromISA converts an isa.Class to the profile dimension.
func FromISA(c isa.Class) Class { return Class(c) }

// StageOfClass returns the stage whose busy time a vector instruction
// of the given class occupies: ALU and reduction work runs on the
// CSB, memory transfers on the VMU, everything else on the CP.
func StageOfClass(c Class) Stage {
	switch c {
	case ClassVectorALU, ClassVectorRed, ClassQuerySearch, ClassQueryReduce:
		return StageCSB
	case ClassVectorMem:
		return StageVMU
	}
	return StageCP
}

// Span is one timeline event. Sim-time spans (Host == false) are in
// picoseconds of modeled machine time; host spans are in nanoseconds
// since the recorder started. Arg/Val carry one optional argument
// shown in the trace viewer.
type Span struct {
	Name  string
	Stage Stage
	Host  bool
	Start int64
	Dur   int64
	Arg   string
	Val   int64
}

// DefaultMaxEvents bounds a recorder's timeline buffer (~256k spans);
// further spans are counted as dropped instead of growing without
// bound.
const DefaultMaxEvents = 1 << 18

// Recorder collects one job's profile and timeline. The nil Recorder
// is the disabled tracer: all methods no-op.
type Recorder struct {
	start       time.Time
	sampleEvery uint64
	seen        uint64
	maxEvents   int

	prof    Profile
	events  []Span
	dropped uint64
}

// New builds an enabled recorder. sampleEvery selects every Nth
// instruction-level timeline event (<= 1 records all); the cycle
// profile is always exact regardless of sampling.
func New(sampleEvery int) *Recorder {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Recorder{
		start:       time.Now(),
		sampleEvery: uint64(sampleEvery),
		maxEvents:   DefaultMaxEvents,
	}
}

// SetMaxEvents replaces the timeline buffer bound (<= 0 keeps the
// current bound).
func (r *Recorder) SetMaxEvents(n int) {
	if r != nil && n > 0 {
		r.maxEvents = n
	}
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// SampleEvery returns the event sampling period (0 when disabled).
func (r *Recorder) SampleEvery() int {
	if r == nil {
		return 0
	}
	return int(r.sampleEvery)
}

// Reset clears all recorded data, keeping the configuration. The
// host-time epoch restarts so pooled machines reuse one recorder.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.start = time.Now()
	r.seen = 0
	r.prof = Profile{}
	r.events = r.events[:0]
	r.dropped = 0
}

// AddInst charges cycles to (stage, class) and counts one
// instruction.
func (r *Recorder) AddInst(st Stage, cl Class, cycles int64) {
	if r == nil {
		return
	}
	b := &r.prof.Attr[st][cl]
	b.Count++
	b.Cycles += cycles
}

// AddCycles charges cycles to (stage, class) without counting an
// instruction (stall tails, drains).
func (r *Recorder) AddCycles(st Stage, cl Class, cycles int64) {
	if r == nil {
		return
	}
	r.prof.Attr[st][cl].Cycles += cycles
}

// AddWall charges host nanoseconds to the attribution bucket.
func (r *Recorder) AddWall(st Stage, cl Class, ns int64) {
	if r == nil {
		return
	}
	r.prof.Attr[st][cl].WallNS += ns
}

// AddOcc charges unit-occupancy cycles (busy time that may overlap
// the CP timeline) and counts one occupancy event.
func (r *Recorder) AddOcc(st Stage, cl Class, cycles int64) {
	if r == nil {
		return
	}
	b := &r.prof.Occ[st][cl]
	b.Count++
	b.Cycles += cycles
}

// AddMix accumulates the microoperation mix of one expanded vector
// instruction (nops microops total).
func (r *Recorder) AddMix(m tt.Mix, nops int) {
	if r == nil {
		return
	}
	p := &r.prof
	p.Mix.SearchSerial += m.SearchSerial
	p.Mix.SearchParallel += m.SearchParallel
	p.Mix.UpdateSerial += m.UpdateSerial
	p.Mix.UpdateProp += m.UpdateProp
	p.Mix.UpdateParallel += m.UpdateParallel
	p.Mix.Reduce += m.Reduce
	p.Mix.Enable += m.Enable
	p.MicroOps += uint64(nops)
	p.Expansions++
}

// AddUcodeLookup counts one microcode template-cache lookup made while
// lowering a vector instruction.
func (r *Recorder) AddUcodeLookup(hit bool) {
	if r == nil {
		return
	}
	if hit {
		r.prof.UcodeHits++
	} else {
		r.prof.UcodeMisses++
	}
}

// Sample reports whether the next instruction-level event should be
// recorded, advancing the sampling phase. Nil recorders never sample.
func (r *Recorder) Sample() bool {
	if r == nil {
		return false
	}
	r.seen++
	return r.seen%r.sampleEvery == 0
}

// SinceNS returns host nanoseconds since the recorder started.
func (r *Recorder) SinceNS() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.start).Nanoseconds()
}

func (r *Recorder) addSpan(s Span) {
	if len(r.events) >= r.maxEvents {
		r.dropped++
		return
	}
	r.events = append(r.events, s)
}

// SimSpanCycles records a simulated-time span given in CP cycles.
func (r *Recorder) SimSpanCycles(name string, st Stage, startCycle, cycles int64, arg string, val int64) {
	if r == nil {
		return
	}
	r.addSpan(Span{
		Name:  name,
		Stage: st,
		Start: int64(float64(startCycle) * timing.CAPECyclePS),
		Dur:   int64(float64(cycles) * timing.CAPECyclePS),
		Arg:   arg,
		Val:   val,
	})
}

// SimSpanPS records a simulated-time span given in picoseconds (the
// VMU's native unit).
func (r *Recorder) SimSpanPS(name string, st Stage, startPS, durPS int64, arg string, val int64) {
	if r == nil {
		return
	}
	r.addSpan(Span{Name: name, Stage: st, Start: startPS, Dur: durPS, Arg: arg, Val: val})
}

// HostSpan records a host-time span (nanoseconds since the recorder
// started, see SinceNS).
func (r *Recorder) HostSpan(name string, st Stage, startNS, durNS int64, arg string, val int64) {
	if r == nil {
		return
	}
	r.addSpan(Span{Name: name, Stage: st, Host: true, Start: startNS, Dur: durNS, Arg: arg, Val: val})
}

// Profile returns the accumulated profile (nil when disabled).
func (r *Recorder) Profile() *Profile {
	if r == nil {
		return nil
	}
	return &r.prof
}

// Events returns the recorded timeline in record order.
func (r *Recorder) Events() []Span {
	if r == nil {
		return nil
	}
	return r.events
}

// DroppedEvents counts spans discarded after the buffer filled.
func (r *Recorder) DroppedEvents() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}
