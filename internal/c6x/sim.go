package c6x

import "fmt"

// MemPort is the memory system seen by the core. Implementations may stall
// the core by returning contCycle > cycle (e.g. the synchronization
// device's blocking read, or bus wait states on the SoC bridge).
type MemPort interface {
	Load(addr uint32, size int, cycle int64) (val uint32, contCycle int64, err error)
	Store(addr uint32, val uint32, size int, cycle int64) (contCycle int64, err error)
}

// SimError is a simulation-time error (machine fault or, in strict mode, a
// schedule-contract violation, which indicates a translator bug).
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
}

// DeoptCause says why a fused segment ends in a deoptimization exit.
type DeoptCause uint8

// The deopt causes. DeoptContract collects the shapes the scheduler
// never emits (overlapping branches, writeback collisions, running off
// the program), where the interpreter reproduces the strict error.
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
	// Strict enables schedule-contract checking: reads of registers with
	// in-flight writes, overlapping branches, unit/cross-path conflicts
	// and writeback collisions become errors instead of silent hardware
	// behavior. The translator's output must run cleanly in strict mode.
	Strict bool

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
	return &Sim{prog: prog, mem: mem, pc: prog.Entry, Strict: true, MaxCycles: 2_000_000_000}
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
// per packet, so its store ops record their packet explicitly. Valid
// only inside Store: fused loads record nothing (that would cost every
// load a write), so inside a fused Load it names the last store.
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
	}
	return es
}

func (s *Sim) errf(pkt int, format string, args ...any) error {
	return &SimError{Packet: pkt, Cycle: s.cycle, Msg: fmt.Sprintf(format, args...)}
}

// readReg reads a register value, enforcing the no-interlock contract in
// strict mode: a register with a write still in flight from an earlier
// cycle must not be read (delay-slot underflow = translator bug). Writes
// issued by the same packet are still queued, so reads see old values.
func (s *Sim) readReg(pkt int, r Reg) (uint32, error) {
	if s.Strict {
		for i := range s.pending {
			if s.pending[i].reg == r {
				return 0, s.errf(pkt, "read of %s with write in flight (%d cycles remaining)", r, s.pending[i].commitAt-s.busy)
			}
		}
	}
	return s.Regs[r], nil
}

func (s *Sim) operand(pkt int, o Operand) (uint32, error) {
	if o.IsImm {
		return uint32(o.Imm), nil
	}
	return s.readReg(pkt, o.Reg)
}

// Step interprets one packet (possibly multi-cycle for NOP n). It is the
// reference semantics: fused code is tested against it and hands back to
// it wherever it cannot continue.
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

	if s.Strict {
		if msg := issueViolation(pk); msg != "" {
			return s.errf(pktIdx, "%s", msg)
		}
	}

	wbs := s.wbBuf[:0]
	var stall int64
	branchSeen := false
	for _, in := range pk.Insts {
		if in.Pred.Valid {
			pv, err := s.readReg(pktIdx, in.Pred.Reg)
			if err != nil {
				return err
			}
			if (pv != 0) == in.Pred.Neg {
				continue // predicated off
			}
		}
		if in.Op != NOP {
			s.stats.Instructions++
		}
		switch {
		case in.Op == NOP:
			// handled by packet cycle accounting
		case in.Op == HALT:
			s.halted = true
		case in.Op == BPKT, in.Op == BREG:
			if (s.brValid || branchSeen) && s.Strict {
				return s.errf(pktIdx, "branch issued while another branch is in flight")
			}
			tgt := in.Target
			if in.Op == BREG {
				v, err := s.operand(pktIdx, in.Src1)
				if err != nil {
					return err
				}
				tgt = int(int32(v))
			}
			s.brValid, s.brTgt, s.brCnt, branchSeen = true, tgt, BranchDelay+1, true
		case in.Op.IsLoad():
			base, err := s.operand(pktIdx, in.Src1)
			if err != nil {
				return err
			}
			addr := base + uint32(in.Src2.Imm)
			v, cont, err := s.mem.Load(addr, in.Op.MemSize(), s.cycle)
			if err != nil {
				return s.errf(pktIdx, "load @%#x: %v", addr, err)
			}
			stall += cont - s.cycle
			wbs = append(wbs, writeback{reg: in.Dst, val: loadExtend(in.Op, v), commitAt: s.busy + int64(in.Op.Latency())})
		case in.Op.IsStore():
			base, err := s.operand(pktIdx, in.Src1)
			if err != nil {
				return err
			}
			data, err := s.readReg(pktIdx, in.Data)
			if err != nil {
				return err
			}
			addr := base + uint32(in.Src2.Imm)
			cont, err := s.mem.Store(addr, data, in.Op.MemSize(), s.cycle)
			if err != nil {
				return s.errf(pktIdx, "store @%#x: %v", addr, err)
			}
			stall += cont - s.cycle
		default:
			v, err := s.alu(pktIdx, in)
			if err != nil {
				return err
			}
			wbs = append(wbs, writeback{reg: in.Dst, val: v, commitAt: s.busy + int64(in.Op.Latency())})
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
		if s.Strict {
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

func (s *Sim) alu(pkt int, in Inst) (uint32, error) {
	// Read only the operands the op actually uses: the unused operand
	// field's zero value names A0, and a spurious read would trip the
	// strict in-flight check.
	var a, b uint32
	var err error
	if in.Op.ReadsSrc1() {
		a, err = s.operand(pkt, in.Src1)
		if err != nil {
			return 0, err
		}
	}
	if in.Op.ReadsSrc2() {
		b, err = s.operand(pkt, in.Src2)
		if err != nil {
			return 0, err
		}
	}
	switch in.Op {
	case MV:
		return a, nil
	case MVK:
		return uint32(int32(int16(in.Src2.Imm))), nil
	case MVKH:
		old, err := s.readReg(pkt, in.Dst)
		if err != nil {
			return 0, err
		}
		return old&0xFFFF | uint32(in.Src2.Imm)<<16, nil
	case ADD:
		return a + b, nil
	case SUB:
		return a - b, nil
	case MPY:
		return a * b, nil
	case AND:
		return a & b, nil
	case OR:
		return a | b, nil
	case XOR:
		return a ^ b, nil
	case ANDN:
		return a &^ b, nil
	case SHL:
		return a << (b & 31), nil
	case SHR:
		return a >> (b & 31), nil
	case SAR:
		return uint32(int32(a) >> (b & 31)), nil
	case NEG:
		return -a, nil
	case EXTB:
		return uint32(int32(int8(a))), nil
	case EXTH:
		return uint32(int32(int16(a))), nil
	case CMPEQ:
		return b2u(a == b), nil
	case CMPLT:
		return b2u(int32(a) < int32(b)), nil
	case CMPLTU:
		return b2u(a < b), nil
	case CMPGT:
		return b2u(int32(a) > int32(b)), nil
	case CMPGTU:
		return b2u(a > b), nil
	}
	return 0, s.errf(pkt, "unimplemented op %v", in.Op)
}

// issueViolation reports the packet's VLIW issue-rule violation, or ""
// for a well-formed packet: one instruction per unit, ops on legal unit
// kinds, one cross-path read per side, distinct data-path (T) sides for
// paired memory ops, and memory base registers on the unit's side. Step
// checks it in strict mode; the rules do not depend on machine state, so
// Fuse checks every packet once, for the whole program.
func issueViolation(pk Packet) string {
	if len(pk.Insts) == 0 {
		return "empty packet"
	}
	if len(pk.Insts) > 8 {
		return fmt.Sprintf("packet with %d instructions", len(pk.Insts))
	}
	var unitUsed [9]bool
	var crossUsed [2]bool
	var tUsed [2]bool
	for _, in := range pk.Insts {
		if in.Op == NOP || in.Op == HALT {
			if len(pk.Insts) != 1 {
				return fmt.Sprintf("%v must be alone in its packet", in.Op)
			}
			continue
		}
		if in.Unit == UnitNone {
			return fmt.Sprintf("%v has no unit", in)
		}
		if unitUsed[in.Unit] {
			return fmt.Sprintf("unit %v used twice", in.Unit)
		}
		unitUsed[in.Unit] = true
		kinds := in.Op.UnitKinds()
		ok := false
		for i := 0; i < len(kinds); i++ {
			if kinds[i] == in.Unit.Kind() {
				ok = true
			}
		}
		if !ok {
			return fmt.Sprintf("%v cannot execute on %v", in.Op, in.Unit)
		}
		side := in.Unit.Side()
		if in.Op.IsMem() {
			if !in.Src1.IsImm && in.Src1.Reg.Side() != side {
				return fmt.Sprintf("memory base %s not on unit side of %v", in.Src1.Reg, in.Unit)
			}
			dataReg := in.Dst
			if in.Op.IsStore() {
				dataReg = in.Data
			}
			t := dataReg.Side()
			if tUsed[t] {
				return fmt.Sprintf("two memory ops on data path T%d", t+1)
			}
			tUsed[t] = true
			continue // memory offset/data do not use the cross path
		}
		if in.Op == BPKT {
			continue
		}
		// Count cross-path source reads (only operands the op reads).
		cross := 0
		if in.Op.ReadsSrc1() && !in.Src1.IsImm && in.Src1.Reg != NoReg && in.Src1.Reg.Side() != side {
			cross++
		}
		if in.Op.ReadsSrc2() && !in.Src2.IsImm && in.Src2.Reg != NoReg && in.Src2.Reg.Side() != side {
			cross++
		}
		if cross > 0 {
			if cross > 1 {
				return fmt.Sprintf("%v reads two cross-path operands", in)
			}
			if crossUsed[side] {
				return fmt.Sprintf("cross path %v used twice", side)
			}
			crossUsed[side] = true
		}
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

// loadExtend sign-extends a loaded value per op (LDH, LDB).
func loadExtend(op Op, v uint32) uint32 {
	switch op {
	case LDH:
		return uint32(int32(int16(v)))
	case LDB:
		return uint32(int32(int8(v)))
	}
	return v
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
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
