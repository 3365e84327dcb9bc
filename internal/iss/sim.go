package iss

import (
	"fmt"

	"repro/internal/elf32"
	"repro/internal/march"
	"repro/internal/tc32"
)

// Config configures the reference simulator.
type Config struct {
	// Desc is the microarchitecture description; nil selects march.Default.
	Desc *march.Desc
	// CycleAccurate enables the pipeline and I-cache timing model. When
	// false the simulator is purely functional (and counts one cycle per
	// instruction), which is the "interpretative simulation" baseline of
	// the paper's Section 2.
	CycleAccurate bool
	// MaxInstructions aborts runaway programs; 0 means a generous default.
	MaxInstructions int64
}

// Stats are the measurement outputs of a simulation run.
type Stats struct {
	Retired      int64 // executed source instructions
	Cycles       int64 // source-processor cycles (ground truth)
	ICacheHits   int64
	ICacheMisses int64
	Mispredicts  int64
	TakenCond    int64
	CondBranches int64
	IRQsTaken    int64 // interrupts delivered
}

// Sim is the interpreted cycle-accurate TC32 simulator.
type Sim struct {
	Arch Arch

	desc   *march.Desc
	pipe   *march.Pipe
	icache *march.Cache
	cfg    Config

	// program decode cache: instruction at (addr-codeBase)/2
	code     []tc32.Inst
	codeBase uint32
	stats    Stats

	// Interrupt delivery. leaders marks the basic-block boundaries of
	// the program (tc32.Leaders) — the only points an interrupt may be
	// taken, so delivery lands at the identical source cycle here and in
	// the translated program, whose cycle regions start at the same set.
	// irqVec is the `__irq` vector (0 = program has no handler).
	leaders []bool
	irqVec  uint32
	idled   int64

	// IRQLine, if non-nil, is the external interrupt line input (level
	// sensitive): it is sampled at every delivery point while IE is set.
	IRQLine func() bool

	// Trace, if non-nil, is called after every executed instruction.
	Trace func(i tc32.Inst, cycle int64)

	// Speculative-execution checkpoint (see checkpoint.go).
	ck      checkpoint
	ckCache *march.Cache
}

// New builds a simulator from an assembled ELF image.
func New(f *elf32.File, cfg Config) (*Sim, error) {
	if cfg.Desc == nil {
		cfg.Desc = march.Default()
	}
	if cfg.MaxInstructions == 0 {
		cfg.MaxInstructions = 500_000_000
	}
	text := f.Section(".text")
	if text == nil {
		return nil, fmt.Errorf("iss: no .text section")
	}
	var dataAddr uint32
	var data []byte
	if d := f.Section(".data"); d != nil {
		dataAddr, data = d.Addr, d.Data
	}
	s := &Sim{
		desc:     cfg.Desc,
		pipe:     march.NewPipe(cfg.Desc),
		icache:   march.NewCache(cfg.Desc.ICache),
		cfg:      cfg,
		codeBase: text.Addr,
	}
	s.Arch.Mem = NewMemory(text.Addr, text.Data, dataAddr, data)
	s.Arch.PC = f.Entry
	// Pre-decode the text section. Half-word slots that are the middle of
	// a 32-bit instruction keep a BAD marker.
	s.code = make([]tc32.Inst, (len(text.Data)+1)/2)
	var insts []tc32.Inst
	off := 0
	for off < len(text.Data) {
		inst, err := tc32.Decode(text.Data[off:], text.Addr+uint32(off))
		if err != nil {
			// Data embedded in .text (e.g. alignment padding) is
			// tolerated until executed.
			off += 2
			continue
		}
		s.code[off/2] = inst
		insts = append(insts, inst)
		off += int(inst.Size)
	}
	// Interrupt vector and delivery points. The leader set must match
	// the translator's region starts exactly, so both come from
	// tc32.Leaders.
	if sym, ok := f.Symbol("__irq"); ok {
		s.irqVec = sym.Value
	}
	s.leaders = make([]bool, len(s.code))
	for addr := range tc32.Leaders(insts, f.Entry, s.irqVec) {
		idx := (addr - s.codeBase) / 2
		if addr >= s.codeBase && int(idx) < len(s.code) && s.code[idx].Op != tc32.BAD && s.code[idx].Addr == addr {
			s.leaders[idx] = true
		}
	}
	if s.irqVec != 0 {
		if _, err := s.fetch(s.irqVec); err != nil {
			return nil, fmt.Errorf("iss: __irq vector: %w", err)
		}
	}
	return s, nil
}

// AttachBus connects a memory-mapped I/O device.
func (s *Sim) AttachBus(b Bus) { s.Arch.Mem.AttachBus(b) }

// fetch returns the decoded instruction at pc.
func (s *Sim) fetch(pc uint32) (*tc32.Inst, error) {
	idx := (pc - s.codeBase) / 2
	if pc < s.codeBase || int(idx) >= len(s.code) {
		return nil, fmt.Errorf("iss: pc %#x outside code", pc)
	}
	inst := &s.code[idx]
	if inst.Op == tc32.BAD || inst.Addr != pc {
		return nil, fmt.Errorf("iss: pc %#x is not an instruction boundary", pc)
	}
	return inst, nil
}

// IRQLineAsserted samples the external interrupt line — the wfi wake
// condition, independent of IE.
func (s *Sim) IRQLineAsserted() bool {
	return s.IRQLine != nil && s.IRQLine()
}

// IRQDeliverable reports whether a pending interrupt could be taken
// right now: interrupts enabled, a vector present, and the line asserted.
// Delivery additionally requires the core to be at a delivery point (a
// block leader, or waking from wfi).
func (s *Sim) IRQDeliverable() bool {
	return s.Arch.IE && s.irqVec != 0 && s.IRQLineAsserted()
}

// WaitingForIRQ reports whether the core is idling in wfi.
func (s *Sim) WaitingForIRQ() bool { return s.Arch.Waiting }

// IdleTo advances the core's clock to cycle without executing anything —
// the wfi idle of a quantum scheduler whose line cannot assert before
// the next quantum boundary.
func (s *Sim) IdleTo(cycle int64) {
	if s.cfg.CycleAccurate {
		if d := cycle - s.pipe.Cycles(); d > 0 {
			s.pipe.Stall(d)
			s.idled += d
		}
	}
}

// isLeader reports whether pc is a basic-block boundary.
func (s *Sim) isLeader(pc uint32) bool {
	idx := (pc - s.codeBase) / 2
	return pc >= s.codeBase && int(idx) < len(s.leaders) && s.leaders[idx]
}

// enterIRQ takes the pending interrupt: shadow the resume point, mask,
// vector, and charge the entry cost.
func (s *Sim) enterIRQ() {
	s.Arch.ShadowPC = s.Arch.PC
	s.Arch.InHandler = true
	s.Arch.IE = false
	s.Arch.PC = s.irqVec
	s.stats.IRQsTaken++
	if s.cfg.CycleAccurate {
		s.pipe.Stall(int64(s.desc.IRQEntryCycles))
	}
}

// Step executes a single instruction with full timing accounting. At a
// delivery point with the interrupt line asserted it first vectors into
// the handler, then executes the handler's first instruction.
func (s *Sim) Step() error {
	if s.Arch.Waiting {
		if !s.IRQLineAsserted() {
			return fmt.Errorf("iss: step while waiting for interrupt (wfi)")
		}
		s.Arch.Waiting = false
		if s.IRQDeliverable() {
			s.enterIRQ()
		}
		// With IE masked the wake resumes after the wfi without taking
		// the interrupt (the pending line stays latched in the
		// controller).
	} else if s.Arch.IE && s.isLeader(s.Arch.PC) && s.IRQDeliverable() {
		s.enterIRQ()
	}
	inst, err := s.fetch(s.Arch.PC)
	if err != nil {
		return err
	}
	if s.cfg.CycleAccurate {
		if !s.icache.Access(inst.Addr) {
			s.pipe.Stall(int64(s.desc.ICache.MissPenalty))
		}
	}
	issue := s.pipe.Issue(inst)
	// Operand-dependent multiplier timing (Booth model, optional).
	if s.cfg.CycleAccurate && s.desc.BoothMul && inst.Op == tc32.MUL {
		s.pipe.Extend(inst, march.BoothExtra(s.Arch.R[tc32.D(inst.Rs2)]))
	}
	// I/O accesses incur bus wait states on the source bus.
	if s.cfg.CycleAccurate && inst.Op.IsMem() {
		ea := s.Arch.R[tc32.A(inst.Rs1)] + uint32(inst.Imm)
		if IsIO(ea) {
			s.pipe.Stall(int64(s.desc.IOWaitCycles))
		}
	}
	taken, err := s.Arch.Exec(inst, issue)
	if err != nil {
		return err
	}
	switch {
	case inst.Op.IsCondBranch():
		s.stats.CondBranches++
		if taken {
			s.stats.TakenCond++
		}
		pred := s.desc.PredictTaken(*inst)
		if pred != taken {
			s.stats.Mispredicts++
		}
		s.pipe.Control(issue, s.desc.CondBranchCost(pred, taken))
	case inst.Op == tc32.J, inst.Op == tc32.JL, inst.Op == tc32.J16:
		s.pipe.Control(issue, s.desc.Branch.Direct)
	case inst.Op.IsIndirect():
		s.pipe.Control(issue, s.desc.Branch.Indirect)
	case inst.Op == tc32.HALT, inst.Op == tc32.WFI:
		s.pipe.Control(issue, 1)
	}
	if s.Trace != nil {
		s.Trace(*inst, s.pipe.Cycles())
	}
	return nil
}

// Run executes until HALT (or an error / the instruction limit). A core
// waiting in wfi idles one cycle at a time until the line delivers, so a
// standalone run with a cycle-keyed interrupt source wakes at exactly
// the first cycle the line asserts — the same cycle the platform's
// translated execution wakes at.
func (s *Sim) Run() error {
	for !s.Arch.Halted {
		if s.Arch.Retired >= s.cfg.MaxInstructions {
			return fmt.Errorf("iss: instruction limit (%d) exceeded", s.cfg.MaxInstructions)
		}
		if s.Arch.Waiting && !s.IRQLineAsserted() {
			if s.IRQLine == nil || !s.cfg.CycleAccurate {
				return fmt.Errorf("iss: wfi with no interrupt source")
			}
			if s.idled >= s.cfg.MaxInstructions {
				return fmt.Errorf("iss: wfi idle limit (%d) exceeded", s.cfg.MaxInstructions)
			}
			s.pipe.Stall(1)
			s.idled++
			continue
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Cycles returns the core's position on the source-cycle clock: pipeline
// cycles when cycle-accurate, retired instructions otherwise. This is the
// clock a multi-core scheduler (internal/soc) advances in quanta.
func (s *Sim) Cycles() int64 {
	if !s.cfg.CycleAccurate {
		return s.Arch.Retired
	}
	return s.pipe.Cycles()
}

// Stall injects n extra stall cycles into the pipeline timing model — bus
// arbitration wait-states charged back by the multi-core scheduler after
// a contended shared-bus access. A no-op in functional mode, where the
// clock counts instructions.
func (s *Sim) Stall(n int64) {
	if n > 0 && s.cfg.CycleAccurate {
		s.pipe.Stall(n)
	}
}

// Stats returns the measurement outputs accumulated so far.
func (s *Sim) Stats() Stats {
	st := s.stats
	st.Retired = s.Arch.Retired
	st.Cycles = s.pipe.Cycles()
	if !s.cfg.CycleAccurate {
		st.Cycles = s.Arch.Retired
	}
	st.ICacheHits = s.icache.Hits
	st.ICacheMisses = s.icache.Misses
	return st
}

// IRQVector returns the `__irq` handler address (0 = none).
func (s *Sim) IRQVector() uint32 { return s.irqVec }

// IdleCycles returns the cycles spent idling in wfi.
func (s *Sim) IdleCycles() int64 { return s.idled }

// Output returns the words the program wrote to the debug port.
func (s *Sim) Output() []uint32 { return s.Arch.Mem.Output }

// Desc returns the microarchitecture description in use.
func (s *Sim) Desc() *march.Desc { return s.desc }
