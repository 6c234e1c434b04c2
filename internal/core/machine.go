// Package core assembles the CAPE system of paper Fig. 2: the Control
// Processor, the Vector Control Unit, the Vector Memory Unit, and the
// Compute-Storage Block, around a shared HBM main memory. This is the
// paper's primary contribution as a runnable machine.
package core

import (
	"context"
	"fmt"
	"time"

	"cape/internal/cache"
	"cape/internal/cp"
	"cape/internal/energy"
	"cape/internal/fault"
	"cape/internal/hbm"
	"cape/internal/isa"
	"cape/internal/obs"
	"cape/internal/telemetry"
	"cape/internal/timing"
	"cape/internal/ucode"
	"cape/internal/vcu"
	"cape/internal/vmu"
)

// BackendKind selects the functional CSB model.
type BackendKind uint8

const (
	// BackendFast applies golden semantics (system-scale runs).
	BackendFast BackendKind = iota
	// BackendBitLevel executes real microcode on the subarray model.
	BackendBitLevel
)

// Config describes one CAPE configuration.
type Config struct {
	Name    string
	Chains  int
	Backend BackendKind
	HBM     hbm.Config
	CP      cp.Config
	// RAMBytes sizes main memory for the run.
	RAMBytes int
	// UcodeCacheSize bounds the microcode template cache in templates:
	// 0 selects ucode.DefaultCacheSize, negative disables caching so
	// every instruction lowers directly.
	UcodeCacheSize int
	// UcodeCache, when non-nil, is a shared template cache installed
	// instead of building a private one; UcodeCacheSize is then
	// ignored. Templates are immutable, so the server pool hands one
	// cache to every machine of a shard.
	UcodeCache *ucode.Cache
	// Faults configures deterministic fault injection (stuck tag bits,
	// late/dropped HBM transfers, budget storms).
	// The zero value disables it, costing one nil check per microcode
	// run and per VMU transfer.
	Faults fault.Config
	// FaultInjector, when non-nil, is a shared parent injector the
	// machine derives its stream from instead of building one from
	// Faults; the server pool hands one parent to every machine of a
	// shard so /metrics sees one counter family.
	FaultInjector *fault.Injector
	// PMU, when non-nil, is a shared always-on perf-counter block the
	// machine bumps from the hot path (microcode runs, ucode lookups,
	// HBM transfers, vector issue). Nil builds a private one, so
	// Machine.PMU never returns nil; the server pool hands one PMU to
	// every machine of a shard, mirroring UcodeCache/FaultInjector.
	PMU *telemetry.PMU
	// Trace installs an execution recorder at construction, so every
	// Run is profiled (cycle attribution) and traced (timeline events).
	// Per-job tracing on pooled machines should instead install a
	// recorder with SetRecorder around each run; keeping the flag out of
	// pool shard keys is the server's concern.
	Trace bool
	// TraceSample records every Nth instruction-level timeline event
	// (<= 1 records all). The cycle profile is always exact.
	TraceSample int
}

// CAPE32k is the paper's smaller configuration: 1,024 chains = 32,768
// lanes, area-equivalent to one baseline tile.
func CAPE32k() Config {
	return Config{
		Name:     "CAPE32k",
		Chains:   1024,
		Backend:  BackendFast,
		HBM:      hbm.Default(),
		CP:       cp.DefaultConfig(),
		RAMBytes: 256 << 20,
	}
}

// CAPE131k is the larger configuration: 4,096 chains = 131,072 lanes,
// area-equivalent to two baseline tiles.
func CAPE131k() Config {
	c := CAPE32k()
	c.Name = "CAPE131k"
	c.Chains = 4096
	return c
}

// Result summarises one program run.
type Result struct {
	CP cp.Stats
	// TimePS is total wall time in picoseconds.
	TimePS int64
	// EnergyPJ is the CSB dynamic energy estimate.
	EnergyPJ float64
	// LaneOps counts executed vector element operations (roofline
	// numerator).
	LaneOps uint64
	// MemBytes counts main-memory traffic from vector transfers
	// (roofline denominator).
	MemBytes uint64
	// VectorALUInsts / VectorMemInsts break down the offloaded work.
	VectorALUInsts uint64
	VectorMemInsts uint64
	// PageFaults counts vector-memory page faults handled via the
	// vstart restart mechanism (paper §V-C).
	PageFaults uint64
}

// Seconds returns the wall time in seconds.
func (r Result) Seconds() float64 { return float64(r.TimePS) * 1e-12 }

// Machine is a full CAPE system instance. It implements cp.VectorUnit.
type Machine struct {
	cfg     Config
	backend Backend
	vcu     *vcu.VCU
	vmu     *vmu.VMU
	hbm     *hbm.HBM
	ram     *RAM
	proc    *cp.CP
	caches  *cache.Hierarchy

	vstart, vl, sew int

	// ucache caches compiled microcode templates across instructions
	// and runs (nil = lower directly every time). Reset keeps it:
	// templates depend only on the instruction encoding, never on
	// machine state.
	ucache *ucode.Cache

	// rec is the installed observability recorder (nil = tracing off).
	rec *obs.Recorder

	// finj is the machine's fault-injection stream (nil = injection
	// off). Each RunContext plans one attempt from it; the stream
	// advances across attempts, so retries see fresh draws.
	finj *fault.Injector

	// pmu is the always-on perf-counter block (never nil; shared across
	// a pool shard's machines when Config.PMU is set). Reset keeps it:
	// the counters are shard-cumulative, like the ucode cache.
	pmu *telemetry.PMU

	energyPJ   float64
	laneOps    uint64
	memBytes   uint64
	aluInsts   uint64
	memInsts   uint64
	pageFaults uint64
}

// New builds a machine from a configuration.
func New(cfg Config) *Machine {
	if cfg.RAMBytes <= 0 {
		cfg.RAMBytes = 64 << 20
	}
	m := &Machine{cfg: cfg}
	if m.pmu = cfg.PMU; m.pmu == nil {
		m.pmu = &telemetry.PMU{}
	}
	switch {
	case cfg.UcodeCache != nil:
		m.ucache = cfg.UcodeCache
	case cfg.UcodeCacheSize >= 0:
		m.ucache = ucode.NewCache(cfg.UcodeCacheSize)
	}
	switch {
	case cfg.FaultInjector != nil:
		m.finj = cfg.FaultInjector.Child()
	case cfg.Faults.Enabled():
		m.finj = fault.New(cfg.Faults).Child()
	}
	switch cfg.Backend {
	case BackendBitLevel:
		bb := NewBitBackend(cfg.Chains)
		bb.SetUcodeCache(m.ucache)
		bb.SetPMU(m.pmu)
		m.backend = bb
	default:
		m.backend = NewFastBackend(cfg.Chains * 32)
	}
	m.hbm = hbm.New(cfg.HBM)
	m.vcu = vcu.New(cfg.Chains)
	m.vmu = vmu.New(m.hbm, cfg.Chains)
	m.vmu.SetFaultInjector(m.finj)
	m.ram = NewRAM(cfg.RAMBytes)
	m.caches = cache.NewHierarchy(memLatencyCycles(cfg.HBM), cache.CPL1D, cache.CPL2)
	m.proc = cp.New(cfg.CP, m, m.ram, m.caches)
	m.vl = m.backend.MaxVL()
	m.sew = 32
	if cfg.Trace {
		m.SetRecorder(obs.New(cfg.TraceSample))
	}
	return m
}

// SetRecorder installs (or, with nil, removes) an execution recorder,
// threading it through the CP, the VCU and — on the bit-level backend
// — the CSB. Safe to call between runs; the server installs a fresh
// recorder per traced job and removes it afterwards so pooled machines
// stay shareable.
func (m *Machine) SetRecorder(r *obs.Recorder) {
	m.rec = r
	m.proc.SetRecorder(r)
	m.vcu.SetRecorder(r)
	if bb, ok := m.backend.(*BitBackend); ok {
		bb.SetRecorder(r)
	}
}

// Recorder returns the installed recorder (nil when tracing is off).
func (m *Machine) Recorder() *obs.Recorder { return m.rec }

// UcodeCache returns the machine's microcode template cache (nil when
// caching is disabled).
func (m *Machine) UcodeCache() *ucode.Cache { return m.ucache }

// FaultInjector returns the machine's fault-injection stream (nil when
// injection is off).
func (m *Machine) FaultInjector() *fault.Injector { return m.finj }

// PMU returns the machine's always-on perf counters (never nil; shared
// across a pool shard when Config.PMU was set). Reset does not clear
// it — the counters are cumulative, like hardware PMU registers.
func (m *Machine) PMU() *telemetry.PMU { return m.pmu }

// armFaults plans one attempt from the machine's injection stream and
// arms the CSB/CP hooks with it, returning the disarm/restore
// function. The VMU's per-transfer faults need no arming — they draw
// straight from the stream.
func (m *Machine) armFaults() func() {
	bb, isBit := m.backend.(*BitBackend)
	plan := m.finj.PlanAttempt(isBit)
	if isBit {
		bb.CSB().ArmFaults(m.finj, plan.StuckTagRun)
	}
	savedBudget := int64(0)
	if plan.BudgetFloor > 0 {
		// Collapse the attempt's instruction budget; cp defaults the
		// budget positive, so the save/restore round-trips.
		savedBudget = m.proc.MaxInsts()
		if savedBudget > plan.BudgetFloor {
			m.proc.SetMaxInsts(plan.BudgetFloor)
		}
	}
	return func() {
		if isBit {
			bb.CSB().DisarmFaults()
		}
		if savedBudget > 0 {
			m.proc.SetMaxInsts(savedBudget)
		}
	}
}

// pageInCycles is the CP-cycle cost of handling one vector page fault
// (trap, page-in, vstart restart of the instruction — §V-C).
const pageInCycles = 2000

// pageInPS is the same penalty in picoseconds.
var pageInPS = func() int64 { c := timing.CAPECyclePS; return int64(pageInCycles * c) }()

// memElemBytes returns the memory element size of a vector memory op.
func memElemBytes(op isa.Opcode) int {
	switch op {
	case isa.OpVLE16, isa.OpVSE16:
		return 2
	case isa.OpVLE8, isa.OpVSE8:
		return 1
	}
	return 4
}

// memLatencyCycles converts the HBM device latency plus one packet
// transfer into CP cycles for the scalar cache-miss path.
func memLatencyCycles(h hbm.Config) int {
	ns := h.LatencyNS + float64(h.PacketBytes)/h.BytesPerNSPerChannel
	return int(ns * 1000 / timing.CAPECyclePS)
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// RAM returns main memory for workload setup.
func (m *Machine) RAM() *RAM { return m.ram }

// CP returns the control processor (argument registers, test hooks).
func (m *Machine) CP() *cp.CP { return m.proc }

// Backend returns the functional CSB model.
func (m *Machine) Backend() Backend { return m.backend }

// MaxVL implements cp.VectorUnit.
func (m *Machine) MaxVL() int { return m.backend.MaxVL() }

// SetWindow implements cp.VectorUnit.
func (m *Machine) SetWindow(vstart, vl, sew int) {
	if sew == 0 {
		sew = 32
	}
	m.vstart, m.vl, m.sew = vstart, vl, sew
	m.backend.SetWindow(vstart, vl, sew)
}

// activeLanes returns the live window length.
func (m *Machine) activeLanes() int {
	n := m.vl - m.vstart
	if n < 0 {
		return 0
	}
	return n
}

// activeChains estimates chains with live columns (for energy): lanes
// spread round-robin across chains, so up to `lanes` chains are live.
func (m *Machine) activeChains() int {
	if lanes := m.vl; lanes < m.cfg.Chains {
		return lanes
	}
	return m.cfg.Chains
}

// Issue implements cp.VectorUnit: functional execution plus the
// VCU/VMU timing models.
func (m *Machine) Issue(inst isa.Inst, x1, x2 int64, now int64) (int64, int64, bool) {
	switch inst.Op.Class() {
	case isa.ClassVectorALU, isa.ClassVectorRed:
		return m.issueALU(inst, x1, now)
	case isa.ClassVectorMem:
		return m.issueMem(inst, x1, x2, now), 0, false
	}
	panic(fmt.Sprintf("core: cannot issue %v to the vector unit", inst.Op))
}

func (m *Machine) issueALU(inst isa.Inst, x1 int64, now int64) (int64, int64, bool) {
	x := uint64(uint32(x1))
	if inst.Op == isa.OpVMSEARCH_VX {
		// The scalar packs (value, care<<SEW): keep all 64 bits so the
		// care mask survives at SEW 32.
		x = uint64(x1)
	}
	if inst.Op.Info().Format == isa.FmtVVI {
		// Immediate-shift forms carry their operand in the
		// instruction, not a register.
		x = uint64(inst.Imm)
	}
	var t0 time.Time
	if m.rec != nil {
		t0 = time.Now()
	}
	// Lower at most once per instruction: the same cached sequence
	// drives bit-level execution, the trace microop mix, and the
	// energy model — one lowering, one error path. vmv.x.s has no
	// microcode (it is a broadcast-port read) and is never lowered.
	var seq ucode.Seq
	haveSeq := false
	bb, isBit := m.backend.(*BitBackend)
	if inst.Op != isa.OpVMV_XS && (isBit || m.rec != nil || energyNeedsMix(inst.Op)) {
		s, err := ucode.Lower(m.ucache, inst.Op, int(inst.Vd), int(inst.Vs2), int(inst.Vs1), x, m.sew)
		if err != nil {
			panic("core: " + err.Error())
		}
		seq, haveSeq = s, true
	}
	var result int64
	var hasResult bool
	if isBit && haveSeq {
		result, hasResult = bb.ExecSeq(inst, seq)
	} else {
		result, hasResult = m.backend.Exec(inst, x)
	}
	cycles, err := m.vcu.InstrCycles(inst, m.sew)
	if err != nil {
		panic("core: " + err.Error())
	}
	if m.rec != nil {
		cl := obs.FromISA(inst.Op.Class())
		m.rec.AddWall(obs.StageCSB, cl, time.Since(t0).Nanoseconds())
		// CSB occupancy is the instruction's busy time minus the VCU's
		// command-distribution share (the VCU records that itself).
		m.rec.AddOcc(obs.StageCSB, cl, int64(cycles-m.vcu.DistCycles))
		if haveSeq {
			m.rec.AddMix(seq.Mix(), seq.Len())
			m.rec.AddUcodeLookup(seq.CacheHit())
		}
	}
	if haveSeq {
		m.pmu.AddUcodeLookup(seq.CacheHit())
	}
	m.pmu.AddVectorInst(false)
	m.aluInsts++
	m.laneOps += uint64(m.activeLanes())
	m.energyPJ += m.instrEnergy(inst, seq, haveSeq)
	return now + int64(cycles), result, hasResult
}

// energyNeedsMix reports whether instrEnergy falls through to the
// microoperation-mix estimate for op, i.e. Table I has no per-lane
// figure and the op is not one of the broadcast-port special cases.
func energyNeedsMix(op isa.Opcode) bool {
	if _, ok := timing.PaperLaneEnergyPJ(op); ok {
		return false
	}
	switch op {
	case isa.OpVMV_XS, isa.OpVCPOP_M, isa.OpVFIRST_M:
		return false
	}
	return true
}

func (m *Machine) issueMem(inst isa.Inst, x1, x2 int64, now int64) int64 {
	startPS := int64(float64(now) * timing.CAPECyclePS)
	// startPS advances below when page faults are serviced mid-transfer;
	// keep the original issue time for the occupancy span.
	startPS0 := startPS
	var t0 time.Time
	if m.rec != nil {
		t0 = time.Now()
	}
	vd := int(inst.Vd)
	addr := uint64(x1)
	var donePS int64
	var movedBytes int64
	faultPS0 := m.vmu.FaultDelayPS
	switch inst.Op {
	case isa.OpVLE32, isa.OpVLE16, isa.OpVLE8:
		sz := memElemBytes(inst.Op)
		for e := m.vstart; e < m.vl; e++ {
			a := addr + uint64(sz*e)
			if m.ram.faultAndPageIn(a) {
				// The VMU reports the faulting index; the CP services
				// the fault and restarts the load at vstart = e.
				m.pageFaults++
				startPS += pageInPS
			}
			var v uint32
			switch sz {
			case 4:
				v = m.ram.Load32(a)
			case 2:
				v = uint32(m.ram.Load16(a))
			default:
				v = uint32(m.ram.LoadByte(a))
			}
			m.backend.WriteElem(vd, e, v)
		}
		bytes := sz * m.activeLanes()
		donePS = m.vmu.UnitStride(startPS, addr+uint64(sz*m.vstart), bytes, false)
		m.memBytes += uint64(bytes)
		movedBytes = int64(bytes)
	case isa.OpVSE32, isa.OpVSE16, isa.OpVSE8:
		sz := memElemBytes(inst.Op)
		for e := m.vstart; e < m.vl; e++ {
			a := addr + uint64(sz*e)
			if m.ram.faultAndPageIn(a) {
				m.pageFaults++
				startPS += pageInPS
			}
			v := m.backend.ReadElem(vd, e)
			switch sz {
			case 4:
				m.ram.Store32(a, v)
			case 2:
				m.ram.Store16(a, uint16(v))
			default:
				m.ram.StoreByte(a, byte(v))
			}
		}
		bytes := sz * m.activeLanes()
		donePS = m.vmu.UnitStride(startPS, addr+uint64(sz*m.vstart), bytes, true)
		m.memBytes += uint64(bytes)
		movedBytes = int64(bytes)
	case isa.OpVLRW:
		chunk := int(x2)
		if chunk <= 0 {
			panic("core: vlrw.v with non-positive chunk length")
		}
		for e := m.vstart; e < m.vl; e++ {
			m.backend.WriteElem(vd, e, m.ram.Load32(addr+uint64(4*(e%chunk))))
		}
		donePS = m.vmu.Replica(startPS, addr, 4*chunk, 4*m.activeLanes())
		m.memBytes += uint64(4 * chunk)
		movedBytes = int64(4 * chunk)
	default:
		panic(fmt.Sprintf("core: unknown vector memory op %v", inst.Op))
	}
	if m.rec != nil {
		m.rec.AddWall(obs.StageVMU, obs.ClassVectorMem, time.Since(t0).Nanoseconds())
		m.rec.AddOcc(obs.StageVMU, obs.ClassVectorMem,
			int64(float64(donePS-startPS0)/timing.CAPECyclePS))
		if m.rec.Sample() {
			m.rec.SimSpanPS(inst.Op.String(), obs.StageVMU, startPS0, donePS-startPS0, "bytes", movedBytes)
			if d := m.vmu.FaultDelayPS - faultPS0; d > 0 {
				m.rec.SimSpanPS("fault.hbm_late", obs.StageVMU, startPS0, d, "delay_ps", d)
			}
		}
	}
	m.pmu.AddVectorInst(true)
	m.pmu.AddHBMTransfer(uint64(movedBytes))
	m.memInsts++
	done := int64(float64(donePS)/timing.CAPECyclePS) + 1
	if done < now {
		done = now
	}
	return done
}

// instrEnergy returns the CSB energy of one executed instruction:
// Table I's per-lane figure where published, otherwise the bottom-up
// microoperation-mix estimate from the instruction's already-lowered
// sequence (issueALU lowers exactly once and shares the Seq here).
func (m *Machine) instrEnergy(inst isa.Inst, seq ucode.Seq, haveSeq bool) float64 {
	lanes := m.activeLanes()
	chains := m.activeChains()
	if perLane, ok := timing.PaperLaneEnergyPJ(inst.Op); ok {
		// Bit-serial energy scales with the element width; Table I's
		// figures are for 32-bit elements.
		return perLane * float64(lanes) * float64(m.sew) / 32
	}
	switch inst.Op {
	case isa.OpVMV_XS:
		return timing.EnergyBPReadPJ
	case isa.OpVCPOP_M, isa.OpVFIRST_M:
		return (timing.EnergyBPSearchPJ + timing.EnergyBPReducePJ) * float64(chains) / 32
	}
	if !haveSeq {
		return 0
	}
	return energy.MixEnergyPJ(seq.Mix(), chains)
}

// Reset returns the machine to its power-on state without reallocating
// RAM or vector storage: the RAM pages, vector registers and CSB rows
// written since the last Reset are zeroed in place (each store tracks
// what it wrote, so the cost follows the job, not the machine size),
// the CP (scalar registers, predictor, caches, clock, statistics)
// restarts from zero, and the HBM/VCU/VMU models drop their occupancy
// and counters. A Run after Reset is bit- and cycle-identical to a Run
// on a freshly built Machine, which is what makes pooling machines
// across jobs safe.
func (m *Machine) Reset() {
	m.ram.Reset()
	m.backend.Reset()
	m.hbm.Reset()
	m.vcu.Instructions, m.vcu.BusyCycles = 0, 0
	m.vmu.SubRequests, m.vmu.BytesMoved, m.vmu.FaultDelayPS = 0, 0, 0
	m.proc.Reset()
	m.energyPJ = 0
	m.laneOps, m.memBytes = 0, 0
	m.aluInsts, m.memInsts, m.pageFaults = 0, 0, 0
	m.vstart, m.sew = 0, 32
	m.vl = m.backend.MaxVL()
	// The recorder pointer is shared with the CP/VCU/CSB, so clearing it
	// in place keeps the installation intact across pooled reuse.
	m.rec.Reset()
}

// RunContext is Run with cooperative cancellation: the CP polls ctx
// periodically and aborts with a cp.ErrCanceled-wrapped error when it
// expires. The machine state is left mid-program; Reset before reuse.
func (m *Machine) RunContext(ctx context.Context, prog *isa.Program) (Result, error) {
	if m.finj != nil {
		disarm := m.armFaults()
		defer disarm()
	}
	if done := ctx.Done(); done != nil {
		m.proc.SetCancel(func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		})
		defer m.proc.SetCancel(nil)
	}
	return m.Run(prog)
}

// Run validates and executes a program; the machine's clock, caches
// and statistics continue across calls (use Reset or a fresh Machine
// per experiment).
func (m *Machine) Run(prog *isa.Program) (Result, error) {
	if err := Validate(prog); err != nil {
		return Result{}, err
	}
	stats, err := m.proc.Run(prog)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		CP:             stats,
		TimePS:         int64(float64(stats.Cycles) * timing.CAPECyclePS),
		EnergyPJ:       m.energyPJ,
		LaneOps:        m.laneOps,
		MemBytes:       m.memBytes,
		VectorALUInsts: m.aluInsts,
		VectorMemInsts: m.memInsts,
		PageFaults:     m.pageFaults,
	}
	return r, nil
}

// Validate checks that every opcode in prog is executable by this
// machine and that branch targets are in range.
func Validate(prog *isa.Program) error {
	for pc := range prog.Insts {
		inst := &prog.Insts[pc]
		info := inst.Op.Info()
		if info.Name == "" || inst.Op == isa.OpInvalid {
			return fmt.Errorf("core: %q pc %d: invalid opcode", prog.Name, pc)
		}
		switch info.Format {
		case isa.FmtBranch, isa.FmtJump:
			if inst.Target < 0 || inst.Target > len(prog.Insts) {
				return fmt.Errorf("core: %q pc %d: branch target %d out of range", prog.Name, pc, inst.Target)
			}
		}
	}
	return nil
}
