package c6x

import (
	"fmt"
	"sync"
)

// This file is the compiled host-execution engine: a one-time compiler
// that lowers a Program into chains of specialized Go closures — one
// chain per execute packet — so the per-packet interpreter overhead
// (issue-rule validation, operand decoding, dispatch switches, and the
// per-step writeback/commit allocations) is paid once at load time
// instead of on every executed packet.
//
// What is resolved at compile time: predicates (presence, register,
// polarity), operand kinds (register index vs. pre-widened immediate),
// memory access sizes and sign extensions, result latencies, branch
// targets, NOP cycle counts, and the packet's VLIW issue-rule check.
// What stays dynamic, shared bit-for-bit with the interpreter: register
// values, the in-flight writeback window and its strict-mode contract
// checks, memory stalls, branch-delay bookkeeping, and all statistics.
//
// The engine runs on the interpreter's own Sim state (attach with
// Sim.UseCompiled), so Step/Run/SetPC and the register accessors keep
// their exact interpreter semantics — a debugger can single-step the
// compiled engine, and a differential test can run both engines over the
// same program and require identical registers, cycles and stats.

// instFn executes one compiled instruction against the simulator state.
type instFn func(s *Sim) error

// cpacket is one compiled execute packet.
type cpacket struct {
	insts    []instFn
	cycles   int64 // Packet.Cycles()
	nopExtra int64 // stats.NopCycles contribution per execution
}

// CompiledProgram is the threaded-code form of a Program. It is
// immutable after Compile and safe to share across Sims and goroutines
// (every closure operates only on the Sim passed to it).
type CompiledProgram struct {
	prog    *Program
	packets []cpacket
}

// Compile lowers prog into specialized closures. Every packet is checked
// against the VLIW issue rules once, here; a program with a malformed
// packet — even an unreachable one — is rejected, where the interpreter
// would only fault if execution reached it.
func Compile(prog *Program) (*CompiledProgram, error) {
	cp := &CompiledProgram{prog: prog, packets: make([]cpacket, len(prog.Packets))}
	for i, pk := range prog.Packets {
		if msg := issueViolation(pk); msg != "" {
			return nil, &SimError{Packet: i, Msg: msg}
		}
		c := &cp.packets[i]
		c.cycles = int64(pk.Cycles())
		if n := pk.Cycles(); n > 1 {
			c.nopExtra = int64(n - 1)
		}
		c.insts = make([]instFn, 0, len(pk.Insts))
		for _, in := range pk.Insts {
			c.insts = append(c.insts, compileInst(i, in))
		}
	}
	return cp, nil
}

// compileOnce memoizes one program's compilation.
type compileOnce struct {
	once sync.Once
	cp   *CompiledProgram
	err  error
}

// compileCache memoizes Compile per *Program identity. Entries pin their
// program, which is what makes pointer keys safe (an address can never
// be reused while its entry exists); programs are themselves retained by
// the translation caches that hand them out, so this adds no new
// lifetime class.
var compileCache sync.Map // *Program -> *compileOnce

// CompileCached returns the memoized compilation of prog, compiling on
// first use. Concurrent callers for the same program share one compile.
func CompileCached(prog *Program) (*CompiledProgram, error) {
	v, _ := compileCache.LoadOrStore(prog, &compileOnce{})
	e := v.(*compileOnce)
	e.once.Do(func() { e.cp, e.err = Compile(prog) })
	return e.cp, e.err
}

// UseCompiled attaches a compiled program, switching the Sim to the
// threaded-code engine. cp must have been compiled from this Sim's
// program. The scratch buffers are sized here so the steady-state hot
// loop never allocates.
func (s *Sim) UseCompiled(cp *CompiledProgram) error {
	if cp == nil || cp.prog != s.prog {
		return fmt.Errorf("c6x: compiled program does not match the simulator's program")
	}
	s.comp = cp
	if cap(s.cwb) < 8 {
		s.cwb = make([]writeback, 0, 8)
	}
	if cap(s.dueBuf) < 16 {
		s.dueBuf = make([]writeback, 0, 16)
	}
	if cap(s.pending) < 32 {
		p := make([]writeback, len(s.pending), 32)
		copy(p, s.pending)
		s.pending = p
	}
	return nil
}

// Compiled reports whether the compiled engine is attached.
func (s *Sim) Compiled() bool { return s.comp != nil }

// readRegC is the compiled engine's register read: identical to the
// interpreter's readReg contract (a register with a write in flight from
// an earlier cycle must not be read in strict mode), without the
// same-packet parameter the interpreter threads through.
func (s *Sim) readRegC(pkt int, r Reg) (uint32, error) {
	if s.Strict {
		for i := range s.pending {
			if s.pending[i].reg == r {
				return 0, s.errf(pkt, "read of %s with write in flight (%d cycles remaining)", r, s.pending[i].commitAt-s.busy)
			}
		}
	}
	return s.Regs[r], nil
}

// pushWB queues a register writeback landing lat busy-cycles from the
// current packet's issue.
func (s *Sim) pushWB(r Reg, v uint32, lat int64) {
	s.cwb = append(s.cwb, writeback{reg: r, val: v, commitAt: s.busy + lat})
}

// stepCompiled is the compiled engine's Step: the packet's instruction
// chain runs first, then the cycle accounting, writeback commit and
// branch bookkeeping — the same sequence as the interpreter, with the
// per-step slice/map/sort allocations replaced by reused scratch.
func (s *Sim) stepCompiled() error {
	if s.halted {
		return nil
	}
	if s.pc < 0 || s.pc >= len(s.comp.packets) {
		return s.errf(s.pc, "fell off the program (pc=%d of %d packets)", s.pc, len(s.prog.Packets))
	}
	pktIdx := s.pc
	cp := &s.comp.packets[pktIdx]
	s.pc++
	s.stats.Packets++
	s.es.GenericPackets++

	s.cwb = s.cwb[:0]
	s.cstall = 0
	s.cbrSeen = false
	for _, fn := range cp.insts {
		if err := fn(s); err != nil {
			return err
		}
		if s.halted {
			break
		}
	}

	// Packet cycle accounting (see Step): a multi-cycle NOP runs until a
	// pending branch fires; memory stalls freeze the latency clock.
	busy := cp.cycles
	s.stats.NopCycles += cp.nopExtra
	if s.brValid && int64(s.brCnt) < busy {
		busy = int64(s.brCnt)
	}
	s.cycle += busy + s.cstall
	s.stats.StallCycles += s.cstall

	// Advance the latency clock and commit in-flight writes at their
	// precise cycles. due collects the landing writes in pending order,
	// then an insertion sort (stable, like the interpreter's
	// sort.SliceStable) orders them by commit cycle.
	s.busy += busy
	s.pending = append(s.pending, s.cwb...)
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
			// same cycle. After the stable sort, the latest earlier write
			// to this register is the one the interpreter compares against.
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

// compileInst specializes one instruction, wrapping the body with the
// predicate guard when present.
func compileInst(pkt int, in Inst) instFn {
	body := compileBody(pkt, in)
	if !in.Pred.Valid {
		return body
	}
	pr, neg := in.Pred.Reg, in.Pred.Neg
	return func(s *Sim) error {
		pv, err := s.readRegC(pkt, pr)
		if err != nil {
			return err
		}
		if (pv != 0) == neg {
			return nil // predicated off
		}
		return body(s)
	}
}

// nopFn is the shared closure of every NOP (cycle cost is packet-level).
func nopFn(*Sim) error { return nil }

// compileBody specializes the instruction's action. The hot shapes are
// hand-specialized; anything else falls back to the interpreter's alu,
// which keeps rare ops identical to the oracle by construction.
func compileBody(pkt int, in Inst) instFn {
	switch {
	case in.Op == NOP:
		return nopFn
	case in.Op == HALT:
		return func(s *Sim) error {
			s.stats.Instructions++
			s.halted = true
			return nil
		}
	case in.Op == BPKT:
		tgt := in.Target
		return func(s *Sim) error {
			s.stats.Instructions++
			if (s.brValid || s.cbrSeen) && s.Strict {
				return s.errf(pkt, "branch issued while another branch is in flight")
			}
			s.brValid, s.brTgt, s.brCnt, s.cbrSeen = true, tgt, BranchDelay+1, true
			return nil
		}
	case in.Op == BREG:
		if in.Src1.IsImm {
			tgt := int(in.Src1.Imm)
			return func(s *Sim) error {
				s.stats.Instructions++
				if (s.brValid || s.cbrSeen) && s.Strict {
					return s.errf(pkt, "branch issued while another branch is in flight")
				}
				s.brValid, s.brTgt, s.brCnt, s.cbrSeen = true, tgt, BranchDelay+1, true
				return nil
			}
		}
		r := in.Src1.Reg
		return func(s *Sim) error {
			s.stats.Instructions++
			if (s.brValid || s.cbrSeen) && s.Strict {
				return s.errf(pkt, "branch issued while another branch is in flight")
			}
			v, err := s.readRegC(pkt, r)
			if err != nil {
				return err
			}
			s.brValid, s.brTgt, s.brCnt, s.cbrSeen = true, int(int32(v)), BranchDelay+1, true
			return nil
		}
	case in.Op.IsLoad():
		return compileLoad(pkt, in)
	case in.Op.IsStore():
		return compileStore(pkt, in)
	}
	return compileALU(pkt, in)
}

// compileLoad specializes a load: base register, immediate offset,
// access size, sign extension and result latency are all compile-time.
func compileLoad(pkt int, in Inst) instFn {
	base := in.Src1.Reg
	off := uint32(in.Src2.Imm)
	sz := in.Op.MemSize()
	lat := int64(in.Op.Latency())
	dst := in.Dst
	if in.Src1.IsImm {
		// Immediate base (legal, though the translator emits register
		// bases): the whole address is a compile-time constant.
		addr := uint32(in.Src1.Imm) + off
		op := in.Op
		return func(s *Sim) error {
			s.stats.Instructions++
			v, cont, err := s.mem.Load(addr, sz, s.cycle)
			if err != nil {
				return s.errf(pkt, "load @%#x: %v", addr, err)
			}
			s.cstall += cont - s.cycle
			switch op {
			case LDH:
				v = uint32(int32(int16(v)))
			case LDB:
				v = uint32(int32(int8(v)))
			}
			s.pushWB(dst, v, lat)
			return nil
		}
	}
	switch in.Op {
	case LDH:
		return func(s *Sim) error {
			s.stats.Instructions++
			b, err := s.readRegC(pkt, base)
			if err != nil {
				return err
			}
			addr := b + off
			v, cont, err := s.mem.Load(addr, sz, s.cycle)
			if err != nil {
				return s.errf(pkt, "load @%#x: %v", addr, err)
			}
			s.cstall += cont - s.cycle
			s.pushWB(dst, uint32(int32(int16(v))), lat)
			return nil
		}
	case LDB:
		return func(s *Sim) error {
			s.stats.Instructions++
			b, err := s.readRegC(pkt, base)
			if err != nil {
				return err
			}
			addr := b + off
			v, cont, err := s.mem.Load(addr, sz, s.cycle)
			if err != nil {
				return s.errf(pkt, "load @%#x: %v", addr, err)
			}
			s.cstall += cont - s.cycle
			s.pushWB(dst, uint32(int32(int8(v))), lat)
			return nil
		}
	default: // LDW, LDHU, LDBU
		return func(s *Sim) error {
			s.stats.Instructions++
			b, err := s.readRegC(pkt, base)
			if err != nil {
				return err
			}
			addr := b + off
			v, cont, err := s.mem.Load(addr, sz, s.cycle)
			if err != nil {
				return s.errf(pkt, "load @%#x: %v", addr, err)
			}
			s.cstall += cont - s.cycle
			s.pushWB(dst, v, lat)
			return nil
		}
	}
}

// compileStore specializes a store (base register, immediate offset,
// data register, access size).
func compileStore(pkt int, in Inst) instFn {
	base := in.Src1.Reg
	off := uint32(in.Src2.Imm)
	sz := in.Op.MemSize()
	data := in.Data
	if in.Src1.IsImm {
		addr := uint32(in.Src1.Imm) + off
		return func(s *Sim) error {
			s.stats.Instructions++
			d, err := s.readRegC(pkt, data)
			if err != nil {
				return err
			}
			cont, err := s.mem.Store(addr, d, sz, s.cycle)
			if err != nil {
				return s.errf(pkt, "store @%#x: %v", addr, err)
			}
			s.cstall += cont - s.cycle
			return nil
		}
	}
	return func(s *Sim) error {
		s.stats.Instructions++
		b, err := s.readRegC(pkt, base)
		if err != nil {
			return err
		}
		d, err := s.readRegC(pkt, data)
		if err != nil {
			return err
		}
		addr := b + off
		cont, err := s.mem.Store(addr, d, sz, s.cycle)
		if err != nil {
			return s.errf(pkt, "store @%#x: %v", addr, err)
		}
		s.cstall += cont - s.cycle
		return nil
	}
}

// compileALU specializes the register-writing ops. Operand kinds select
// the closure shape; the operation itself is a pre-resolved kernel.
func compileALU(pkt int, in Inst) instFn {
	dst := in.Dst
	lat := int64(in.Op.Latency())
	switch in.Op {
	case MVK:
		v := uint32(int32(int16(in.Src2.Imm)))
		return func(s *Sim) error {
			s.stats.Instructions++
			s.pushWB(dst, v, lat)
			return nil
		}
	case MVKH:
		hi := uint32(in.Src2.Imm) << 16
		return func(s *Sim) error {
			s.stats.Instructions++
			old, err := s.readRegC(pkt, dst)
			if err != nil {
				return err
			}
			s.pushWB(dst, old&0xFFFF|hi, lat)
			return nil
		}
	}
	if k := unaryKernel(in.Op); k != nil {
		if in.Src1.IsImm {
			v := k(uint32(in.Src1.Imm))
			return func(s *Sim) error {
				s.stats.Instructions++
				s.pushWB(dst, v, lat)
				return nil
			}
		}
		r1 := in.Src1.Reg
		return func(s *Sim) error {
			s.stats.Instructions++
			a, err := s.readRegC(pkt, r1)
			if err != nil {
				return err
			}
			s.pushWB(dst, k(a), lat)
			return nil
		}
	}
	if k := binaryKernel(in.Op); k != nil {
		switch {
		case !in.Src1.IsImm && !in.Src2.IsImm:
			r1, r2 := in.Src1.Reg, in.Src2.Reg
			return func(s *Sim) error {
				s.stats.Instructions++
				a, err := s.readRegC(pkt, r1)
				if err != nil {
					return err
				}
				b, err := s.readRegC(pkt, r2)
				if err != nil {
					return err
				}
				s.pushWB(dst, k(a, b), lat)
				return nil
			}
		case !in.Src1.IsImm && in.Src2.IsImm:
			r1, b := in.Src1.Reg, uint32(in.Src2.Imm)
			return func(s *Sim) error {
				s.stats.Instructions++
				a, err := s.readRegC(pkt, r1)
				if err != nil {
					return err
				}
				s.pushWB(dst, k(a, b), lat)
				return nil
			}
		case in.Src1.IsImm && !in.Src2.IsImm:
			a, r2 := uint32(in.Src1.Imm), in.Src2.Reg
			return func(s *Sim) error {
				s.stats.Instructions++
				b, err := s.readRegC(pkt, r2)
				if err != nil {
					return err
				}
				s.pushWB(dst, k(a, b), lat)
				return nil
			}
		default:
			v := k(uint32(in.Src1.Imm), uint32(in.Src2.Imm))
			return func(s *Sim) error {
				s.stats.Instructions++
				s.pushWB(dst, v, lat)
				return nil
			}
		}
	}
	// Fallback: shared interpreter semantics (also where INVALID and any
	// future op land, producing the interpreter's own error text).
	inst := in
	return func(s *Sim) error {
		s.stats.Instructions++
		v, err := s.alu(pkt, inst, s.cwb)
		if err != nil {
			return err
		}
		s.pushWB(inst.Dst, v, int64(inst.Op.Latency()))
		return nil
	}
}

// unaryKernel returns the value function of a one-source op.
func unaryKernel(op Op) func(uint32) uint32 {
	switch op {
	case MV:
		return func(a uint32) uint32 { return a }
	case NEG:
		return func(a uint32) uint32 { return -a }
	case EXTB:
		return func(a uint32) uint32 { return uint32(int32(int8(a))) }
	case EXTH:
		return func(a uint32) uint32 { return uint32(int32(int16(a))) }
	}
	return nil
}

// binaryKernel returns the value function of a two-source op.
func binaryKernel(op Op) func(a, b uint32) uint32 {
	switch op {
	case ADD:
		return func(a, b uint32) uint32 { return a + b }
	case SUB:
		return func(a, b uint32) uint32 { return a - b }
	case MPY:
		return func(a, b uint32) uint32 { return a * b }
	case AND:
		return func(a, b uint32) uint32 { return a & b }
	case OR:
		return func(a, b uint32) uint32 { return a | b }
	case XOR:
		return func(a, b uint32) uint32 { return a ^ b }
	case ANDN:
		return func(a, b uint32) uint32 { return a &^ b }
	case SHL:
		return func(a, b uint32) uint32 { return a << (b & 31) }
	case SHR:
		return func(a, b uint32) uint32 { return a >> (b & 31) }
	case SAR:
		return func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) }
	case CMPEQ:
		return func(a, b uint32) uint32 { return b2u(a == b) }
	case CMPLT:
		return func(a, b uint32) uint32 { return b2u(int32(a) < int32(b)) }
	case CMPLTU:
		return func(a, b uint32) uint32 { return b2u(a < b) }
	case CMPGT:
		return func(a, b uint32) uint32 { return b2u(int32(a) > int32(b)) }
	case CMPGTU:
		return func(a, b uint32) uint32 { return b2u(a > b) }
	}
	return nil
}
