package c6x

import (
	"fmt"
	"strings"
)

// MemPort is the memory system seen by the core. Implementations may stall
// the core by returning contCycle > cycle (e.g. the synchronization
// device's blocking read, or bus wait states on the SoC bridge).
type MemPort interface {
	Load(addr uint32, size int, cycle int64) (val uint32, contCycle int64, err error)
	Store(addr uint32, val uint32, size int, cycle int64) (contCycle int64, err error)
}

// SimError is a simulation-time error: a machine fault, or a violation
// of the schedule contract, which indicates a translator bug.
type SimError struct {
	Packet int
	Cycle  int64
	Msg    string
}

func (e *SimError) Error() string {
	return fmt.Sprintf("c6x: packet %d cycle %d: %s", e.Packet, e.Cycle, e.Msg)
}

type writeback struct {
	reg Reg
	val uint32
	// commitAt is the busy-time (stall-free cycle count) at which the
	// value lands in the register file. Tracking the precise cycle keeps
	// same-cycle WAW detection exact across multi-cycle NOPs.
	commitAt int64
}

// Stats are the C6x-side measurements: the cycle count at 200 MHz is the
// platform execution time of the translated program.
type Stats struct {
	Cycles       int64 // total core cycles including stalls
	StallCycles  int64 // cycles spent frozen on memory (sync waits etc.)
	Packets      int64 // execute packets issued
	Instructions int64 // instructions executed (predicates passed; NOPs excluded)
	NopCycles    int64 // cycles spent in NOPs (explicit idle)
}

// EngineStats counts how execution moved between the fused program and
// the interpreter. It is kept apart from Stats, which the differential
// suites require to be identical across engines; like Stats it
// describes the committed execution (a Rollback restores it).
type EngineStats struct {
	// EntriesClean and EntriesMatched count entries into fused code with
	// nothing pending, and with a pending branch or in-flight writebacks
	// matched against a compiled segment (see FusedEntryOK).
	EntriesClean, EntriesMatched int64
	// HookStops counts boundary hooks that stopped fused execution;
	// DeoptsBy counts segments that handed back to the interpreter, by the
	// cause compiled into the exit that ran.
	HookStops int64
	DeoptsBy  [NumDeoptCauses]int64
	// GenericPackets of the Packets retired so far (Stats.Packets) went
	// through Step, the interpreter; the rest ran fused.
	GenericPackets, Packets int64
	// IntrinsicRuns counts routine calls an intrinsic op performed (in its
	// exit only; a declined call runs generic code and is not counted).
	// IntrinsicSites is static: the fused program's intrinsic entry
	// states by how Fuse lowered them.
	IntrinsicRuns  int64
	IntrinsicSites [NumIntrinsicOutcomes]int64
	// BoundSites is static: the fused program's memory ops bound to a
	// direct handler (FuseConfig.Bind). DeviceFallbacks counts bound
	// accesses whose handler declined, so that the op took the MemPort
	// path.
	BoundSites, DeviceFallbacks int64
}

// DeoptCause says why a fused segment ends in a deoptimization exit.
type DeoptCause uint8

// The deopt causes. DeoptContract collects the shapes the scheduler
// never emits (overlapping branches, writeback collisions, running off
// the program), where the interpreter reproduces the contract error.
const (
	DeoptInflightRead DeoptCause = iota // read of a register with a write in flight
	DeoptSlotPressure                   // more in-flight values than fused slots
	DeoptNoKernel                       // op without a compiled kernel
	DeoptIndirectMiss                   // indirect branch to a target outside its table
	DeoptBudgetStub                     // state interned after the segment budget ran out
	DeoptContract
	NumDeoptCauses
)

var deoptCauseNames = [NumDeoptCauses]string{"inflight-read", "slot-pressure", "no-kernel", "indirect-miss", "budget-stub", "contract"}

func (c DeoptCause) String() string { return deoptCauseNames[c] }

// Deopts is the total over all causes.
func (e EngineStats) Deopts() int64 {
	var n int64
	for _, d := range e.DeoptsBy {
		n += d
	}
	return n
}

// DeoptSummary renders the non-zero causes ("indirect-miss=3 contract=1"),
// "none" when no segment deoptimized.
func (e EngineStats) DeoptSummary() string {
	out := ""
	for c, d := range e.DeoptsBy {
		if d != 0 {
			out += fmt.Sprintf(" %s=%d", DeoptCause(c), d)
		}
	}
	if out == "" {
		return "none"
	}
	return out[1:]
}

// IntrinsicSummary renders the intrinsic sites by outcome ("compiled=2
// rejected=0" plus the non-zero reasons an entry state stayed generic),
// "none" for a program without intrinsic routines.
func (e EngineStats) IntrinsicSummary() string {
	var total int64
	for _, n := range e.IntrinsicSites {
		total += n
	}
	if total == 0 {
		return "none"
	}
	out := fmt.Sprintf("compiled=%d rejected=%d", e.IntrinsicSites[IntrinsicCompiled], e.IntrinsicSites[IntrinsicRejected])
	for o := IntrinsicRejected + 1; o < NumIntrinsicOutcomes; o++ {
		if n := e.IntrinsicSites[o]; n != 0 {
			out += fmt.Sprintf(" generic:%s=%d", o, n)
		}
	}
	return out
}

// GenericShare is the fraction of the packets the interpreter retired
// (0 before the first packet).
func (e EngineStats) GenericShare() float64 {
	if e.Packets == 0 {
		return 0
	}
	return float64(e.GenericPackets) / float64(e.Packets)
}

// Sim is the cycle-exact C6x core simulator. Step and Run are the packet
// interpreter, the reference semantics. A fused program attached with
// UseFused runs through RunFused/StepFused on the same architectural
// state, handing back to Step wherever it cannot continue (see
// fuserun.go), so the two interleave freely and every observable —
// registers, clocks, Stats, memory traffic — is the interpreter's.
type Sim struct {
	Regs [2 * NumRegs]uint32

	prog *Program
	mem  MemPort
	pc   int

	cycle   int64
	busy    int64 // stall-free cycle count (latency clock)
	halted  bool
	pending []writeback
	brValid bool
	brTgt   int
	brCnt   int

	stats Stats

	// MaxCycles aborts runaway programs (default 2e9).
	MaxCycles int64

	// Step's scratch, reused so stepping never allocates: the current
	// packet's writebacks and the commits landing at its end. Both are
	// dead between steps and need no checkpointing.
	wbBuf  []writeback
	dueBuf []writeback
	// issued marks the packets that passed issueViolation: the rules do
	// not depend on machine state, so Step checks a packet once.
	issued []bool

	// Fused-engine state (see fuse.go, fuserun.go). fused is used by
	// RunFused/StepFused; fstall, fslotVal, fslotOn, fcond0, fnext and
	// fusedPkt are segment-local scratch that is always drained (fstall)
	// or dead by the time fused execution returns, so it needs no
	// checkpointing either.
	fused       *FusedProgram
	fstall      int64                // memory stalls since the last sync point
	fslotVal    [fuseMaxSlots]uint32 // in-flight writeback values
	fslotOn     [fuseMaxSlots]bool   // predicated producer executed
	fcond0      bool                 // predicated-branch outcome for the segment terminal
	fnext       int32                // next segment (-1 = exit fused execution)
	fusedActive bool                 // inside StepFused (MemPkt source selector)
	fusedPkt    int32                // packet of the store being performed (fused engine)

	// es counts engine transitions (see EngineStats); off the hot
	// fields' cache lines.
	es EngineStats

	// Speculative-execution checkpoint (see checkpoint.go).
	ck checkpoint
}

// NewSim builds a simulator for prog with the given memory system.
func NewSim(prog *Program, mem MemPort) *Sim {
	return &Sim{prog: prog, mem: mem, pc: prog.Entry, MaxCycles: 2_000_000_000, issued: make([]bool, len(prog.Packets))}
}

// Reg returns the value of r.
func (s *Sim) Reg(r Reg) uint32 { return s.Regs[r] }

// SetReg sets the value of r.
func (s *Sim) SetReg(r Reg, v uint32) { s.Regs[r] = v }

// Cycle returns the current core cycle.
func (s *Sim) Cycle() int64 { return s.cycle }

// PC returns the current packet index.
func (s *Sim) PC() int { return s.pc }

// MemPkt returns the packet index of the store currently being
// performed by a MemPort Store callback. Under Step the pc has already
// advanced past the packet (pc-1); fused code does not maintain the pc
// per packet, so its store ops record their packet explicitly (a bound
// store only when its handler declines and it calls Store). Valid only
// inside Store: fused loads record nothing (that would cost every load a
// write), so inside a fused Load it names the last store.
func (s *Sim) MemPkt() int {
	if s.fusedActive {
		return int(s.fusedPkt)
	}
	return s.pc - 1
}

// SetPC redirects execution to a packet (used by the debug harness to
// switch between translation images at region boundaries). Any pending
// branch is cancelled; in-flight writebacks are preserved.
func (s *Sim) SetPC(pc int) {
	s.pc = pc
	s.brValid = false
}

// Halted reports whether the core has executed HALT.
func (s *Sim) Halted() bool { return s.halted }

// Stats returns the accumulated measurements.
func (s *Sim) Stats() Stats {
	st := s.stats
	st.Cycles = s.cycle
	return st
}

// EngineStats returns the engine-transition counters.
func (s *Sim) EngineStats() EngineStats {
	es := s.es
	es.Packets = s.stats.Packets
	if s.fused != nil {
		es.IntrinsicSites = s.fused.sites
		es.BoundSites = s.fused.bound
	}
	return es
}

func (s *Sim) errf(pkt int, format string, args ...any) error {
	return &SimError{Packet: pkt, Cycle: s.cycle, Msg: fmt.Sprintf(format, args...)}
}

// checkReads enforces the no-interlock contract on in's reads at issue:
// its predicate register, or with operands set the rest. A register with
// a write still in flight from an earlier cycle must not be read
// (delay-slot underflow = translator bug). Writes issued by the same
// packet are still queued, so reads see old values.
func (s *Sim) checkReads(pkt int, in *Inst, operands bool) error {
	if len(s.pending) == 0 {
		return nil
	}
	var buf [4]Reg
	regs := in.Reads(buf[:0])
	if in.Pred.Valid && operands {
		regs = regs[1:] // the predicate was checked before it was evaluated
	} else if in.Pred.Valid {
		regs = regs[:1]
	}
	for _, r := range regs {
		for i := range s.pending {
			if s.pending[i].reg == r {
				return s.errf(pkt, "read of %s with write in flight (%d cycles remaining)", r, s.pending[i].commitAt-s.busy)
			}
		}
	}
	return nil
}

func (s *Sim) value(o Operand) uint32 {
	if o.IsImm {
		return uint32(o.Imm)
	}
	return s.Regs[o.Reg]
}

// Step interprets one packet (possibly multi-cycle for NOP n). It is the
// reference semantics: fused code is tested against it and hands back to
// it wherever it cannot continue. A schedule-contract violation is an error.
func (s *Sim) Step() error {
	if s.halted {
		return nil
	}
	if s.pc < 0 || s.pc >= len(s.prog.Packets) {
		return s.errf(s.pc, "fell off the program (pc=%d of %d packets)", s.pc, len(s.prog.Packets))
	}
	pktIdx := s.pc
	pk := s.prog.Packets[pktIdx]
	s.pc++
	s.stats.Packets++
	s.es.GenericPackets++

	if !s.issued[pktIdx] {
		if msg := issueViolation(pk); msg != "" {
			return s.errf(pktIdx, "%s", msg)
		}
		s.issued[pktIdx] = true
	}

	wbs := s.wbBuf[:0]
	var stall int64
	branchSeen := false
	for k := range pk.Insts {
		in := &pk.Insts[k]
		if in.Pred.Valid {
			if err := s.checkReads(pktIdx, in, false); err != nil {
				return err
			}
			if (s.Regs[in.Pred.Reg] != 0) == in.Pred.Neg {
				continue // predicated off
			}
		}
		if in.Op != NOP {
			s.stats.Instructions++
		}
		if in.Op.IsBranch() && (s.brValid || branchSeen) {
			return s.errf(pktIdx, "branch issued while another branch is in flight")
		}
		if err := s.checkReads(pktIdx, in, true); err != nil {
			return err
		}
		op := in.Op.info()
		a, b := in.args()
		va := s.value(a)
		addr := va + uint32(in.Src2.Imm)
		switch {
		case in.Op == HALT:
			s.halted = true
		case in.Op.IsBranch():
			tgt := in.Target
			if in.Op == BREG {
				tgt = int(int32(va))
			}
			s.brValid, s.brTgt, s.brCnt, branchSeen = true, tgt, BranchDelay+1, true
		case op.use&useData != 0:
			cont, err := s.mem.Store(addr, s.Regs[in.Data], op.mem, s.cycle)
			if err != nil {
				return s.errf(pktIdx, "store @%#x: %v", addr, err)
			}
			stall += cont - s.cycle
		case op.mem != 0:
			v, cont, err := s.mem.Load(addr, op.mem, s.cycle)
			if err != nil {
				return s.errf(pktIdx, "load @%#x: %v", addr, err)
			}
			stall += cont - s.cycle
			if op.kernel != nil {
				v = op.kernel(v, 0)
			}
			wbs = append(wbs, writeback{reg: in.Dst, val: v, commitAt: s.busy + 1 + int64(op.delay)})
		case op.kernel != nil:
			wbs = append(wbs, writeback{reg: in.Dst, val: op.kernel(va, s.value(b)), commitAt: s.busy + 1 + int64(op.delay)})
		case op.use&useDst != 0:
			return s.errf(pktIdx, "unimplemented op %v", in.Op)
		}
		if s.halted {
			break
		}
	}
	s.wbBuf = wbs

	// Packet cycle accounting: a multi-cycle NOP runs until a pending
	// branch fires; memory stalls freeze the pipeline (latency counters
	// do not advance during a stall).
	busy := int64(pk.Cycles())
	s.stats.NopCycles += busy - 1
	if s.brValid && int64(s.brCnt) < busy {
		busy = int64(s.brCnt)
	}
	s.cycle += busy + stall
	s.stats.StallCycles += stall

	// Advance the latency clock and commit in-flight writes at their
	// precise cycles. due collects the landing writes in pending order;
	// an insertion sort orders them stably by commit cycle.
	s.busy += busy
	s.pending = append(s.pending, wbs...)
	due := s.dueBuf[:0]
	keep := s.pending[:0]
	for _, wb := range s.pending {
		if wb.commitAt <= s.busy {
			due = append(due, wb)
		} else {
			keep = append(keep, wb)
		}
	}
	s.pending = keep
	s.dueBuf = due
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j].commitAt < due[j-1].commitAt; j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	for i := range due {
		// Two writes to one register collide only if they land in the
		// same cycle (the hardware contract): compare with the latest
		// earlier write to the register.
		for j := i - 1; j >= 0; j-- {
			if due[j].reg == due[i].reg {
				if due[j].commitAt == due[i].commitAt {
					return s.errf(pktIdx, "writeback collision on %s", due[i].reg)
				}
				break
			}
		}
		s.Regs[due[i].reg] = due[i].val
	}

	if s.brValid {
		s.brCnt -= int(busy)
		if s.brCnt <= 0 {
			s.pc = s.brTgt
			s.brValid = false
		}
	}
	return nil
}

// issueViolation reports the packet's VLIW issue-rule violation, or ""
// for a well-formed packet: register and unit fields in range for what
// the op uses, one instruction per unit, ops on legal unit kinds, one
// cross-path read per side, distinct data-path (T) sides for paired
// memory ops, and memory base registers on the unit's side. The rules
// do not depend on machine state: Step checks the packet it executes,
// Fuse every packet of the program, once.
func issueViolation(pk Packet) string {
	if len(pk.Insts) == 0 {
		return "empty packet"
	}
	if len(pk.Insts) > 8 {
		return fmt.Sprintf("packet with %d instructions", len(pk.Insts))
	}
	var used ResSet
	var regBuf [5]Reg
	for k := range pk.Insts {
		in := &pk.Insts[k]
		if in.Unit > D2 {
			return fmt.Sprintf("%v on unit field %d", in.Op, in.Unit)
		}
		regs := in.Reads(regBuf[:0])
		if in.HasDst() {
			regs = append(regs, in.Dst)
		}
		for _, r := range regs {
			if r >= 2*NumRegs {
				return fmt.Sprintf("%v uses register field %d", in.Op, r)
			}
		}
		if in.Op == NOP || in.Op == HALT {
			if len(pk.Insts) != 1 {
				return fmt.Sprintf("%v must be alone in its packet", in.Op)
			}
			continue
		}
		if in.Unit == UnitNone {
			return fmt.Sprintf("%v has no unit", in)
		}
		if used&(1<<in.Unit) != 0 {
			return fmt.Sprintf("unit %v used twice", in.Unit)
		}
		if strings.IndexByte(in.Op.UnitKinds(), in.Unit.Kind()) < 0 {
			return fmt.Sprintf("%v cannot execute on %v", in.Op, in.Unit)
		}
		if in.Op.IsMem() && !in.Src1.IsImm && in.Src1.Reg.Side() != in.Unit.Side() {
			return fmt.Sprintf("memory base %s not on unit side of %v", in.Src1.Reg, in.Unit)
		}
		res, ok := in.Resources(in.Unit)
		if !ok {
			return fmt.Sprintf("%v reads two cross-path operands", in)
		}
		switch c := used & res; {
		case c&(resT<<SideA) != 0:
			return "two memory ops on data path T1"
		case c&(resT<<SideB) != 0:
			return "two memory ops on data path T2"
		case c != 0:
			return fmt.Sprintf("cross path %v used twice", in.Unit.Side())
		}
		used |= res
	}
	return ""
}

// Run executes until HALT or error.
func (s *Sim) Run() error {
	for !s.halted {
		if s.cycle > s.MaxCycles {
			return s.errf(s.pc, "cycle limit exceeded")
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Disassemble renders the whole program as a listing, one packet per
// group, with ‖ marking parallel instructions.
func Disassemble(p *Program) string {
	out := ""
	for i, pk := range p.Packets {
		for j, in := range pk.Insts {
			sep := "  "
			if j > 0 {
				sep = "||"
			}
			out += fmt.Sprintf("P%-5d %s %s\n", i, sep, in.String())
		}
	}
	return out
}
