// Package platform simulates the rapid-prototyping emulation system the
// translated programs run on: the C6x VLIW core next to the FPGA fabric
// holding the synchronization device (cycle generation hardware) and the
// bus interface to the emulated SoC bus (internal/socbus).
//
// The co-simulation contract mirrors the hardware: a write of n to the
// synchronization device starts generation of n source-processor cycles
// at a fixed rate (Ratio C6x cycles per generated cycle) while the C6x
// keeps executing; a read from the device stalls the C6x until the
// generation has drained; I/O accesses stall until the emulated clock has
// caught up, time-stamp the bus transaction with the generated cycle
// count, and generate the bus wait states.
//
// The fused engine reaches the sync device without the memory port: the
// translated code's generation starts, correction flushes and drain
// reads are bound at fuse time to direct calls on the device, each
// guarded so that any other address takes the ordinary path (sync.go).
// Each region's base start credits its source instructions, by a static
// per-packet table that every engine shares.
package platform

import (
	"encoding/binary"
	"fmt"

	"repro/internal/c6x"
	"repro/internal/core"
	"repro/internal/iss"
)

// DefaultRatio is the number of C6x clock cycles per generated source
// cycle: the C6x runs at 200 MHz and the cycle generation hardware at
// 100 MHz.
const DefaultRatio = 2

// Clock rates of the platform (from the paper).
const (
	C6xClockHz = 200_000_000
	// FPGAEmulationHz is the clock of the full-core FPGA emulation that
	// Table 2 compares against.
	FPGAEmulationHz = 8_000_000
)

// SyncDev is the synchronization device: the cycle-generation hardware in
// the FPGA (Section 3.1).
type SyncDev struct {
	Ratio int64
	// Total is the number of source cycles generated (committed count;
	// the drain time is DoneAt).
	Total int64
	// DoneAt is the C6x cycle at which the running generation finishes.
	DoneAt int64
	// Starts counts generation starts (one per executed region).
	Starts int64
}

// Start begins generating n cycles at C6x cycle t.
func (s *SyncDev) Start(n uint32, t int64) {
	if t > s.DoneAt {
		s.DoneAt = t
	}
	s.DoneAt += s.Ratio * int64(n)
	s.Total += int64(n)
	s.Starts++
}

// Add joins c correction cycles to the running generation (the ADD
// register used by the correction block).
func (s *SyncDev) Add(c uint32, t int64) {
	if t > s.DoneAt {
		s.DoneAt = t
	}
	s.DoneAt += s.Ratio * int64(c)
	s.Total += int64(c)
}

// Drain returns the C6x cycle at which the generation is finished.
func (s *SyncDev) Drain(t int64) int64 {
	if s.DoneAt > t {
		return s.DoneAt
	}
	return t
}

// Engine selects the C6x host-execution engine of a System.
type Engine int

const (
	// EngineCompiled (the default) runs the translated program as fused
	// superblocks (c6x.Fuse, with the cache-probe intrinsic), handing
	// back to the interpreter wherever fused code cannot continue.
	// Bit-identical to the interpreter (differentially tested).
	EngineCompiled Engine = iota
	// EngineInterp is the packet interpreter alone — the reference
	// semantics and the equivalence oracle, selected by the front-ends'
	// -interp escape hatch.
	EngineInterp
	// EngineCompiledNoFuse is the same compiler with fusion turned down:
	// one packet per segment and no intrinsics, so nothing is folded
	// across packets. Selected by the front-ends' -nofuse flag, it is the
	// like-for-like differential reference for the fused hot path (CI
	// byte-diffs fused vs nofuse deterministic output).
	EngineCompiledNoFuse
)

// String names the engine ("compiled" / "interp" / "compiled-nofuse").
func (e Engine) String() string {
	switch e {
	case EngineInterp:
		return "interp"
	case EngineCompiledNoFuse:
		return "compiled-nofuse"
	}
	return "compiled"
}

// WaitReporter is the optional interface of an arbitrated SoC bus
// (internal/soc): TakeWait drains the source-cycle wait-states the bus
// charged for the transaction just performed (arbitration contention).
// The platform adds them to the generated cycle stream exactly like the
// ordinary I/O wait states.
type WaitReporter interface {
	TakeWait() int64
}

// System is the assembled platform: core, sync device, memories and bus.
type System struct {
	// Memory is the source system's address space, the same one the
	// reference simulator runs on: RAM, the text image (for constant
	// loads), and the I/O window with the debug port (whose Output is
	// the functional result) and the emulated SoC bus (AttachBus). The
	// platform adds only what the emulation fabric holds, around it.
	// Held by value, so Load/Store reach RAM without a pointer hop.
	iss.Memory

	Prog *core.Program
	CPU  *c6x.Sim
	Sync *SyncDev

	// waits is the attached bus when it is arbitrated (see WaitReporter).
	waits WaitReporter

	ctab  []byte // cache-table RAM in the emulation fabric
	cBase uint32

	// Source-instruction attribution: the base cycle-generation start of
	// a region credits its SrcInsts (credit). startOf maps each packet to
	// the region whose base start it holds, built on first use by the
	// MemPort path (baseStartAt): fused code binds its starts instead.
	startOf  []int32
	srcInsts int64

	// IRQLine, if non-nil, is the external interrupt line input (level
	// sensitive; typically the SoC's interrupt controller output for
	// this core). It is sampled at region boundaries whose region starts
	// at a source basic-block leader — the same delivery points the
	// reference simulator uses — so a pending interrupt is taken at the
	// identical source cycle on both sides.
	IRQLine func() bool

	// Source-level interrupt state of the translated core (the ISS keeps
	// the same state in iss.Arch): interrupt enable, in-handler flag,
	// the shadowed source resume address, and the wfi wait flag.
	irqIE        bool
	irqInHandler bool
	irqWaiting   bool
	irqShadowSrc uint32
	irqTaken     int64
	irqIdled     int64

	// regionOfPkt maps a packet index to the region starting there (-1
	// elsewhere): the boundary detector of the delivery check.
	regionOfPkt []int32

	// BoundaryTrace, if non-nil, is called whenever execution reaches a
	// region boundary (before the region runs) with the region's source
	// start address and the emulated clock — the translated analog of
	// iss.Sim.Trace, for differential debugging.
	BoundaryTrace func(src uint32, now int64)
	// l0Idle is wfi idle time at Level0, where the clock is derived from
	// scaled C6x time instead of the sync device.
	l0Idle int64

	engine Engine

	// untilLimit is the clock limit of the RunUntil call in progress,
	// read by its boundary hook (runUntilHook).
	untilLimit int64

	// Dynamic-correction state (see dyncorr.go): trajectory recording,
	// the reference curve, and the interrupt-delivery log.
	dynRec     bool
	dynCurve   CycleCurve
	dynRef     CycleCurve
	delivLog   bool
	deliveries []CyclePoint

	// Speculative-execution checkpoint and the cache table's undo
	// journal (see checkpoint.go).
	ck       checkpoint
	ctabUndo []ctabUndo
}

// New builds a platform around a translated program, executing on the
// fused engine.
func New(prog *core.Program) *System { return NewWithEngine(prog, EngineCompiled) }

// NewWithEngine builds a platform with an explicit C6x execution engine.
// The compiled engines build the program once (memoized per program and
// segment length, so farm workers sharing a cached translation share its
// build); a program that fails compile-time issue validation falls back
// to the interpreter, whose runtime checking reproduces the oracle
// behavior exactly — including for malformed packets that are never
// reached.
func NewWithEngine(prog *core.Program, engine Engine) *System {
	sys := &System{
		Memory: *iss.NewMemory(prog.TextAddr, prog.TextImage, prog.DataAddr, prog.DataImage),
		Prog:   prog,
		Sync:   &SyncDev{Ratio: DefaultRatio},
		cBase:  core.CacheTableBase,
	}
	sys.regionOfPkt = make([]int32, len(prog.C6x.Packets))
	for i := range sys.regionOfPkt {
		sys.regionOfPkt[i] = -1
	}
	for ri, b := range prog.Blocks {
		// First region wins: an empty Level0 region can share its start
		// packet with its successor.
		if sys.regionOfPkt[b.PacketStart] < 0 {
			sys.regionOfPkt[b.PacketStart] = int32(ri)
		}
	}
	if prog.CacheTableWords > 0 {
		sys.ctab = make([]byte, prog.CacheTableWords*4)
		for i, v := range prog.CacheTableInit {
			wr(sys.ctab, uint32(i*4), v, 4)
		}
	}
	sys.CPU = c6x.NewSim(prog.C6x, sys)
	sys.engine = EngineInterp
	if engine != EngineCompiled && engine != EngineCompiledNoFuse {
		return sys
	}
	// Region starts are the boundary/deopt points, the return sites loaded
	// into the translator's link registers are where its indirect branches
	// dispatch to, and the fused build declares the cache-probe routine
	// with its meaning (probe.go) and binds the sync device's accesses to
	// direct calls (sync.go).
	cfg := c6x.FuseConfig{RegionOf: sys.regionOfPkt, ConstRegs: core.FusedConstRegs()}
	if engine == EngineCompiled {
		rBase, _ := sys.RAM()
		cfg.Intrinsics = probeIntrinsics(prog, rBase)
		cfg.Bind = syncBinder(prog, rBase)
	} else {
		cfg.MaxSegPackets = 1
	}
	if fp, err := c6x.FuseCached(prog.C6x, cfg); err == nil && sys.CPU.UseFused(fp) == nil {
		sys.engine = engine
	}
	return sys
}

// Engine returns the engine the system actually runs on (EngineInterp
// when compilation was declined or fell back).
func (sys *System) Engine() Engine { return sys.engine }

// AttachBus connects the emulated SoC bus to the I/O window.
func (sys *System) AttachBus(b iss.Bus) {
	sys.Memory.AttachBus(b)
	sys.waits, _ = b.(WaitReporter)
}

// rd and wr are the cache table's little-endian port: size bytes (1, 2
// or 4) at b[off:], bounds-checked by the caller.
func rd(b []byte, off uint32, size int) uint32 {
	switch size {
	case 4:
		return binary.LittleEndian.Uint32(b[off:])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b[off:]))
	}
	return uint32(b[off])
}

func wr(b []byte, off uint32, val uint32, size int) {
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(b[off:], val)
	case 2:
		binary.LittleEndian.PutUint16(b[off:], uint16(val))
	default:
		b[off] = byte(val)
	}
}

// emulatedNow returns the core's position on the emulated clock.
func (sys *System) emulatedNow(cycle int64) int64 {
	if sys.Prog.Level == core.Level0 {
		// No cycle generation at level 0: approximate with scaled C6x
		// time (functional-only mode) plus any wfi idle time.
		return cycle/sys.Sync.Ratio + sys.l0Idle
	}
	return sys.Sync.Total
}

// busNow returns the time stamp of an I/O transaction, matching the
// reference simulator's convention: the source instruction's issue
// cycle. Every bus access sits alone in its own cycle region (the I/O
// split), whose start has already added the region's one static cycle
// to the generated count — subtract it — while penalties accrued earlier
// in the surrounding basic block (cache misses, at level 3) are still
// parked in the correction register and must be added. Without this the
// two engines' transactions interleave differently on an arbitrated bus
// even though their clocks agree at every region boundary.
func (sys *System) busNow(cycle int64) int64 {
	if sys.Prog.Level == core.Level0 {
		return sys.emulatedNow(cycle)
	}
	return sys.Sync.Total - 1 + int64(int32(sys.CPU.Regs[core.RegCorrCycles]))
}

// Load implements c6x.MemPort. The source address space (RAM, text, the
// I/O window's decode) is the memory's; the platform adds the fabric's
// registers and cache table, and the timing of a bus access. RAM already
// stored to is checked first and inline: with the sync device's
// registers, it is what the hot path reaches (platform.load_ns). The
// fabric's addresses are not part of the source address space; an image
// linked over them is shadowed by them wherever it was not stored to.
func (sys *System) Load(addr uint32, size int, cycle int64) (uint32, int64, error) {
	if v, ok := sys.PeekStored(addr, size); ok {
		return v, cycle, nil
	}
	switch {
	case addr == core.SyncStart:
		// Blocking read: wait for end of cycle generation (Figure 2).
		return 0, sys.Sync.Drain(cycle), nil
	case addr == core.SyncTotal:
		return uint32(sys.Sync.Total), cycle, nil
	case addr == core.SyncTotal+4:
		return uint32(sys.Sync.Total >> 32), cycle, nil
	case sys.ctab != nil && addr >= sys.cBase && addr-sys.cBase+uint32(size) <= uint32(len(sys.ctab)):
		return rd(sys.ctab, addr-sys.cBase, size), cycle, nil
	}
	if v, ok := sys.Peek(addr, size); ok {
		return v, cycle, nil
	}
	if iss.IsIO(addr) {
		// Bus interface: wait for the emulated clock, perform the
		// transaction, generate the wait states.
		t := sys.Sync.Drain(cycle)
		v := sys.ReadIO(addr, sys.busNow(cycle))
		return v, sys.ioWait(t, sys.busWait()), nil
	}
	return 0, cycle, fmt.Errorf("platform: unmapped load @%#x", addr)
}

// Store implements c6x.MemPort, decoding in Load's order.
func (sys *System) Store(addr uint32, val uint32, size int, cycle int64) (int64, error) {
	if sys.PokeStored(addr, val, size) {
		return cycle, nil
	}
	switch {
	case addr == core.SyncStart:
		if ri := sys.baseStartAt(sys.CPU.MemPkt()); ri >= 0 {
			sys.credit(ri)
		}
		sys.Sync.Start(val, cycle)
		return cycle, nil
	case addr == core.SyncAdd:
		sys.Sync.Add(val, cycle)
		return cycle, nil
	case addr == core.IRQCtl:
		// Translated ei/di. Delivery only happens at region boundaries,
		// so the mid-region store timing is unobservable.
		sys.irqIE = val&1 != 0
		return cycle, nil
	case addr == core.IRQRet:
		// Translated reti: restore the interrupt state; the generated
		// BREG through RegIRQShadow performs the control transfer.
		if !sys.irqInHandler {
			return cycle, fmt.Errorf("platform: reti outside interrupt handler")
		}
		sys.irqInHandler = false
		sys.irqIE = true
		return cycle, nil
	case addr == core.IRQWait:
		// Translated wfi: the run loop idles the emulated clock until
		// the line asserts. With IE masked the wake resumes without
		// delivery (ARM-style) — see stepIRQ.
		if sys.IRQLine == nil {
			return cycle, fmt.Errorf("platform: wfi with no interrupt source")
		}
		sys.irqWaiting = true
		return cycle, nil
	case sys.ctab != nil && addr >= sys.cBase && addr-sys.cBase+uint32(size) <= uint32(len(sys.ctab)):
		sys.setTab(addr-sys.cBase, val, size)
		return cycle, nil
	}
	if sys.Poke(addr, val, size) {
		return cycle, nil
	}
	if iss.IsIO(addr) {
		t := sys.Sync.Drain(cycle)
		sys.WriteIO(addr, val, sys.busNow(cycle))
		return sys.ioWait(t, sys.busWait()), nil
	}
	return cycle, fmt.Errorf("platform: unmapped store @%#x", addr)
}

// busWait drains the arbitration wait-states of the transaction just
// performed, when the bus is arbitrated (a multi-core SoC).
func (sys *System) busWait() int64 {
	if sys.waits != nil {
		return sys.waits.TakeWait()
	}
	return 0
}

// ioWait generates the bus wait-state cycles of an I/O access (the fixed
// source-bus wait states plus any arbitration wait charged by a shared
// bus) and returns the C6x cycle at which the CPU may continue.
func (sys *System) ioWait(t, extra int64) int64 {
	wait := int64(sys.Prog.Desc.IOWaitCycles) + extra
	if sys.Prog.Level == core.Level0 {
		return t // untimed mode
	}
	sys.Sync.Total += wait
	sys.Sync.DoneAt = t + sys.Sync.Ratio*wait
	return sys.Sync.DoneAt
}

// baseStartAt returns the region whose base start packet pkt holds, or
// -1.
func (sys *System) baseStartAt(pkt int) int32 {
	if sys.startOf == nil {
		sys.startOf = baseStarts(sys.Prog)
	}
	if uint(pkt) >= uint(len(sys.startOf)) {
		return -1
	}
	return sys.startOf[pkt]
}

// credit attributes the source instructions of region ri, whose base
// cycle-generation start just ran.
func (sys *System) credit(ri int32) {
	sys.srcInsts += int64(sys.Prog.Blocks[ri].SrcInsts)
	if sys.dynRec {
		sys.recordPoint()
	}
}

// Now returns the core's position on the emulated source-cycle clock: the
// generated cycle count, or scaled C6x time in untimed (Level0) mode.
// This is the clock a multi-core scheduler (internal/soc) advances in
// quanta.
func (sys *System) Now() int64 { return sys.emulatedNow(sys.CPU.Cycle()) }

// IRQLineAsserted samples the external interrupt line — the wfi wake
// condition, independent of IE.
func (sys *System) IRQLineAsserted() bool {
	return sys.IRQLine != nil && sys.IRQLine()
}

// IRQDeliverable reports whether a pending interrupt could be taken
// right now (enabled, vectored, line asserted). Delivery additionally
// requires a region boundary whose region starts at a block leader.
func (sys *System) IRQDeliverable() bool {
	return sys.irqIE && sys.Prog.IRQEntry != 0 && sys.IRQLineAsserted()
}

// WaitingForIRQ reports whether the core is idling in a translated wfi.
func (sys *System) WaitingForIRQ() bool { return sys.irqWaiting }

// atLeaderBoundary returns the region index if the C6x sits at the first
// packet of a leader region — an interrupt delivery point — and -1
// otherwise. Region boundaries are the only places the emulated clock is
// exact (corrections flushed, generation drained), which is what makes
// delivery here land at the identical source cycle the ISS delivers at.
func (sys *System) atLeaderBoundary() int {
	pc := sys.CPU.PC()
	if pc < 0 || pc >= len(sys.regionOfPkt) {
		return -1
	}
	ri := sys.regionOfPkt[pc]
	if ri < 0 || !sys.Prog.Blocks[ri].Leader {
		return -1
	}
	return int(ri)
}

// enterIRQ takes the pending interrupt at the region boundary ri: park
// the shadow return state, mask, charge the entry cost into the cycle
// stream, and redirect the C6x to the translated handler.
func (sys *System) enterIRQ(ri int) error {
	hpkt, ok := sys.Prog.PacketOfSrc[sys.Prog.IRQEntry]
	if !ok {
		return fmt.Errorf("platform: __irq vector %#x has no translated region", sys.Prog.IRQEntry)
	}
	sys.irqShadowSrc = sys.Prog.Blocks[ri].SrcStart
	sys.CPU.SetReg(core.RegIRQShadow, uint32(sys.Prog.Blocks[ri].PacketStart))
	sys.irqInHandler = true
	sys.irqIE = false
	sys.irqTaken++
	if sys.delivLog {
		sys.deliveries = append(sys.deliveries, CyclePoint{SrcInsts: sys.srcInsts, Cycles: sys.Sync.Total})
	}
	if sys.Prog.Level >= core.Level1 {
		sys.Sync.Add(uint32(sys.Prog.Desc.IRQEntryCycles), sys.CPU.Cycle())
	} else {
		sys.l0Idle += int64(sys.Prog.Desc.IRQEntryCycles)
	}
	sys.CPU.SetPC(hpkt)
	return nil
}

// idleTo advances the emulated clock to limit without executing target
// code (a wfi idle).
func (sys *System) idleTo(limit int64) {
	d := limit - sys.Now()
	if d <= 0 {
		return
	}
	sys.irqIdled += d
	if sys.Prog.Level == core.Level0 {
		sys.l0Idle += d
		return
	}
	sys.Sync.Total += d
}

// stepIRQ performs the delivery check (and wfi handling) before one C6x
// step. It reports whether the caller should step the CPU; idle reports
// a wfi idle with no pending delivery, which the caller resolves against
// its clock limit.
func (sys *System) stepIRQ() (idle bool, err error) {
	if sys.irqWaiting {
		// The wfi trap fires inside the region's final packets; trailing
		// padding (scheduler NOPs) may still separate the CPU from the
		// successor region's first packet. Those packets cost C6x time
		// only — step through them, then idle at the boundary.
		ri := sys.atLeaderBoundary()
		if ri < 0 {
			return false, nil
		}
		if !sys.IRQLineAsserted() {
			return true, nil
		}
		sys.irqWaiting = false
		if !sys.IRQDeliverable() {
			// Masked wake: resume after the wfi without taking the
			// interrupt; the pending line stays latched.
			return false, nil
		}
		return false, sys.enterIRQ(ri)
	}
	if !sys.IRQDeliverable() {
		return false, nil
	}
	ri := sys.atLeaderBoundary()
	if ri < 0 {
		return false, nil
	}
	return false, sys.enterIRQ(ri)
}

// runBoundaryHook is the fused-execution boundary callback of Run: the
// same per-boundary actions the generic loop performs between steps —
// the cycle limit and the interrupt delivery check. wfi idling is left
// to the outer loop (the hook stops fused execution instead), and Run
// never fires BoundaryTrace, exactly like its generic loop.
func (sys *System) runBoundaryHook() (bool, error) {
	if sys.irqWaiting {
		return true, nil
	}
	if sys.CPU.Cycle() > sys.CPU.MaxCycles {
		return false, fmt.Errorf("platform: cycle limit (%d) exceeded", sys.CPU.MaxCycles)
	}
	// Not waiting, so stepIRQ cannot report idle: it either delivers
	// (redirecting the pc, which ends StepFused) or no-ops.
	if _, err := sys.stepIRQ(); err != nil {
		return false, err
	}
	return false, nil
}

// Run executes the translated program to completion. With an interrupt
// line attached, a core waiting in wfi idles one cycle at a time until
// the line delivers — the same wake cycle the ISS's standalone run
// arrives at. Steady-state loops run inside fused superblocks when the
// engine has them, deferring interrupt delivery to the same region
// boundaries the generic loop delivers at.
func (sys *System) Run() error {
	if sys.IRQLine == nil {
		if sys.CPU.Fused() {
			return sys.CPU.RunFused()
		}
		return sys.CPU.Run()
	}
	for !sys.CPU.Halted() {
		if sys.CPU.Cycle() > sys.CPU.MaxCycles {
			return fmt.Errorf("platform: cycle limit (%d) exceeded", sys.CPU.MaxCycles)
		}
		idle, err := sys.stepIRQ()
		if err != nil {
			return err
		}
		if idle {
			if sys.irqIdled > sys.CPU.MaxCycles {
				return fmt.Errorf("platform: wfi idle limit (%d) exceeded", sys.CPU.MaxCycles)
			}
			sys.idleTo(sys.Now() + 1)
			continue
		}
		if !sys.irqWaiting && sys.CPU.FusedEntryOK() {
			if _, err := sys.CPU.StepFused(sys.runBoundaryHook); err != nil {
				return err
			}
			continue
		}
		if err := sys.CPU.Step(); err != nil {
			return err
		}
	}
	return nil
}

// runUntilHook is the fused-execution boundary callback of RunUntil: the
// per-boundary actions of its generic inner loop, against untilLimit.
func (sys *System) runUntilHook() (bool, error) {
	if sys.irqWaiting {
		// The generic inner loop breaks on a pending wfi before its
		// boundary check, so no trace fires here either.
		return true, nil
	}
	if sys.BoundaryTrace != nil {
		sys.BoundaryTrace(sys.Prog.Blocks[sys.regionOfPkt[sys.CPU.PC()]].SrcStart, sys.Now())
	}
	if sys.Now() >= sys.untilLimit {
		return true, nil
	}
	if sys.CPU.Cycle() > sys.CPU.MaxCycles {
		return false, fmt.Errorf("platform: cycle limit (%d) exceeded", sys.CPU.MaxCycles)
	}
	// Delivery redirects the pc, ending StepFused; the handler region
	// then re-dispatches in RunUntil without re-gating on the clock
	// limit, exactly like the generic loop running it in the same
	// iteration.
	if _, err := sys.stepIRQ(); err != nil {
		return false, err
	}
	return false, nil
}

// RunUntil executes until the emulated source-cycle clock reaches limit
// or the program halts. The clock advances in region-sized jumps, so the
// run may overshoot the limit by one cycle region. A core waiting in wfi
// whose line is idle advances its clock to exactly limit — the quantum
// scheduler's sequential schedule guarantees the line cannot assert
// before then.
//
// Progress is region-at-a-time: once a region's execution begins, its
// packets (including runtime-routine calls and trailing padding) run to
// the next region boundary within the same call. The only externally
// visible actions — bus transactions — sit in their own
// single-instruction regions (the I/O split), so region-at-a-time
// progress performs each of them in the same scheduler slice as the
// reference simulator's instruction-at-a-time progress; stopping
// mid-region on the clock gate would push an access one slice later and
// reorder same-cycle bus contention between the engines.
func (sys *System) RunUntil(limit int64) error {
	sys.untilLimit = limit
	for !sys.CPU.Halted() && sys.Now() < limit {
		if sys.CPU.Cycle() > sys.CPU.MaxCycles {
			return fmt.Errorf("platform: cycle limit (%d) exceeded", sys.CPU.MaxCycles)
		}
		idle, err := sys.stepIRQ()
		if err != nil {
			return err
		}
		if idle {
			sys.idleTo(limit)
			return nil
		}
		for {
			// Fused execution is gated off while a wfi wait is pending: the
			// interpreter owns the packet-granular clock bookkeeping between
			// a wfi trap and its leader-boundary idle.
			if !sys.irqWaiting && sys.CPU.FusedEntryOK() {
				stopped, err := sys.CPU.StepFused(sys.runUntilHook)
				if err != nil {
					return err
				}
				if stopped || sys.CPU.Halted() {
					break
				}
				// Deopt or interrupt redirect: re-dispatch from the
				// materialized state.
				continue
			}
			if err := sys.CPU.Step(); err != nil {
				return err
			}
			if sys.CPU.Halted() || sys.irqWaiting {
				break
			}
			if pc := sys.CPU.PC(); pc >= 0 && pc < len(sys.regionOfPkt) && sys.regionOfPkt[pc] >= 0 {
				if sys.BoundaryTrace != nil {
					sys.BoundaryTrace(sys.Prog.Blocks[sys.regionOfPkt[pc]].SrcStart, sys.Now())
				}
				break
			}
			if sys.CPU.Cycle() > sys.CPU.MaxCycles {
				return fmt.Errorf("platform: cycle limit (%d) exceeded", sys.CPU.MaxCycles)
			}
		}
	}
	return nil
}

// Stats summarizes a platform run.
type Stats struct {
	C6xCycles       int64 // C6x core cycles (at 200 MHz)
	GeneratedCycles int64 // emulated source cycles produced
	Regions         int64 // cycle regions executed
	StallCycles     int64
	Packets         int64
	Instructions    int64
	// SrcInstructions is the number of source (TC32) instructions
	// attributed to executed cycle regions — the denominator of a
	// per-core CPI without a paired reference run. 0 at Level0 (no cycle
	// generation to attribute against).
	SrcInstructions int64
	// IRQsTaken is the number of interrupts delivered; IdleCycles is the
	// emulated time spent waiting in wfi.
	IRQsTaken  int64
	IdleCycles int64
}

// Stats returns the platform measurements.
func (sys *System) Stats() Stats {
	cs := sys.CPU.Stats()
	return Stats{
		C6xCycles:       cs.Cycles,
		GeneratedCycles: sys.Sync.Total,
		Regions:         sys.Sync.Starts,
		StallCycles:     cs.StallCycles,
		Packets:         cs.Packets,
		Instructions:    cs.Instructions,
		SrcInstructions: sys.srcInsts,
		IRQsTaken:       sys.irqTaken,
		IdleCycles:      sys.irqIdled,
	}
}

// IRQShadowPC returns the source address interrupt entry shadowed (the
// resume point of the most recent delivery) — the translated analog of
// iss.Arch.ShadowPC, for differential tests.
func (sys *System) IRQShadowPC() uint32 { return sys.irqShadowSrc }

// IRQEnabled returns the platform-side IE flag (ei/di state).
func (sys *System) IRQEnabled() bool { return sys.irqIE }

// InIRQHandler reports whether the core is between interrupt entry and
// reti.
func (sys *System) InIRQHandler() bool { return sys.irqInHandler }
