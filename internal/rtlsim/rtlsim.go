// Package rtlsim is a register-transfer-level proxy of the TC32 core: a
// multicycle datapath with explicit latches (instruction register, operand
// latches, ALU output, memory data register) evaluated one clock at a
// time, the way an HDL simulation of the core would execute.
//
// Its role is Table 2's "Simulation (Workstation)" row: the paper compares
// the translated programs against an RT-level simulation of the TriCore
// core on a workstation, which is orders of magnitude slower than both
// the FPGA emulation and the translation. This package provides that cost
// point: it is deliberately structural (per-cycle phase evaluation, 16-bit
// fetch path, no pre-decoded program cache) and is differentially tested
// for functional equivalence against the reference ISS.
package rtlsim

import (
	"fmt"

	"repro/internal/elf32"
	"repro/internal/iss"
	"repro/internal/tc32"
)

// phase is the multicycle control state.
type phase uint8

const (
	phFetch1 phase = iota
	phFetch2
	phDecode
	phExecute
	phMemory
	phWriteback
)

// CPU is the multicycle RT-level core.
type CPU struct {
	// Architectural state: both register files, indexed by tc32.Reg
	// (d0..d15, then a0..a15).
	R  [tc32.NumRegs]uint32
	PC uint32

	// Datapath latches.
	ph     phase
	fetch  [4]byte
	ir     tc32.Inst
	opA    uint32 // first operand latch
	opB    uint32 // second operand latch
	aluOut uint32
	mdr    uint32 // memory data register: the loaded word or the store data
	ea     uint32
	exLeft int // remaining execute cycles (multiplier/divider busy)

	nextPC uint32
	wbReg  tc32.Reg // tc32.NoReg: no writeback
	memOp  bool
	doHalt bool

	// comb holds the combinational network's outputs. As in an HDL
	// simulation, the whole datapath (instruction decoder, register-file
	// read ports, ALU, address generator, branch unit) is evaluated on
	// every clock; the multicycle control only decides which results are
	// latched. This per-cycle evaluation is what makes RT-level
	// simulation so much slower than an ISS (Table 2's point).
	comb struct {
		alu    uint32
		ea     uint32
		nextPC uint32
		taken  bool
		inst   tc32.Inst
		rfA    uint32
		rfB    uint32
	}

	Mem     *iss.Memory
	Cycle   int64
	Retired int64
	Halted  bool
}

// New builds the RT-level core from an assembled image.
func New(f *elf32.File) (*CPU, error) {
	text := f.Section(".text")
	if text == nil {
		return nil, fmt.Errorf("rtlsim: no .text")
	}
	var dataAddr uint32
	var data []byte
	if d := f.Section(".data"); d != nil {
		dataAddr, data = d.Addr, d.Data
	}
	return &CPU{Mem: iss.NewMemory(text.Addr, text.Data, dataAddr, data), PC: f.Entry}, nil
}

// evalCombinational evaluates the full combinational network from the
// current latch values, every cycle, exactly as event/cycle-driven HDL
// simulation evaluates every process: the decoder re-decodes the fetch
// buffer, both register-file read ports are driven, and the ALU, address
// generator and branch unit compute from the operand latches. Only the
// control FSM decides what gets latched.
func (c *CPU) evalCombinational() {
	// Instruction decoder (combinational on the fetch buffer).
	if inst, err := tc32.Decode(c.fetch[:], c.PC); err == nil {
		c.comb.inst = inst
	}
	// Register-file read ports (addressed by the current IR fields).
	c.comb.rfA = c.R[c.ir.Rs1&15]
	c.comb.rfB = c.R[c.ir.Rs2&15]
	// Execution units.
	c.execute()
}

// Clock advances the datapath by one cycle.
func (c *CPU) Clock() error {
	c.Cycle++
	c.evalCombinational()
	switch c.ph {
	case phFetch1:
		// 16-bit fetch path: first halfword.
		v, err := c.Mem.Read(c.PC, c.PC, 2, c.Cycle)
		if err != nil {
			return err
		}
		c.fetch[0] = byte(v)
		c.fetch[1] = byte(v >> 8)
		if c.fetch[0]&1 == 1 {
			// 16-bit instruction: decode immediately next cycle.
			ir, err := tc32.Decode(c.fetch[:2], c.PC)
			if err != nil {
				return fmt.Errorf("rtlsim: %v at pc %#x", err, c.PC)
			}
			c.ir = ir
			c.ph = phDecode
		} else {
			c.ph = phFetch2
		}
	case phFetch2:
		v, err := c.Mem.Read(c.PC, c.PC+2, 2, c.Cycle)
		if err != nil {
			return err
		}
		c.fetch[2] = byte(v)
		c.fetch[3] = byte(v >> 8)
		ir, err := tc32.Decode(c.fetch[:4], c.PC)
		if err != nil {
			return fmt.Errorf("rtlsim: %v at pc %#x", err, c.PC)
		}
		c.ir = ir
		c.ph = phDecode
	case phDecode:
		if err := c.decode(); err != nil {
			return err
		}
		c.ph = phExecute
	case phExecute:
		if c.exLeft > 1 {
			c.exLeft-- // multiplier/divider busy
			return nil
		}
		// Latch the combinational results.
		c.aluOut = c.comb.alu
		c.ea = c.comb.ea
		c.nextPC = c.comb.nextPC
		if c.memOp {
			c.ph = phMemory
		} else {
			c.ph = phWriteback
		}
	case phMemory:
		in := &c.ir
		size := in.Op.MemSize()
		if in.Op.IsStore() {
			if err := c.Mem.Write(in.Addr, c.ea, c.mdr, size, c.Cycle); err != nil {
				return err
			}
		} else {
			v, err := c.Mem.Read(in.Addr, c.ea, size, c.Cycle)
			if err != nil {
				return err
			}
			c.mdr = in.Op.Extend(v)
		}
		c.ph = phWriteback
	case phWriteback:
		if c.wbReg != tc32.NoReg {
			v := c.aluOut
			if c.ir.Op.IsLoad() {
				v = c.mdr
			}
			c.R[c.wbReg] = v
		}
		c.PC = c.nextPC
		c.Retired++
		if c.doHalt {
			c.Halted = true
		}
		c.ph = phFetch1
	}
	return nil
}

// decode latches operands and the writeback plan, both read off the op's
// row of the TC32 op table: the operand latches take the kernel's
// operands (a memory op's base and offset), the memory data register a
// store's data, and the writeback register the op's destination. The
// core has no interrupt controller, so reti and wfi are errors, and ei
// and di change nothing.
func (c *CPU) decode() error {
	in := &c.ir
	if in.Op == tc32.RETI || in.Op == tc32.WFI {
		return fmt.Errorf("rtlsim: %v at %#x: the RT-level core has no interrupt source", in.Op, in.Addr)
	}
	c.memOp = in.Op.IsMem()
	c.doHalt = in.Op == tc32.HALT
	c.exLeft = 1
	switch in.Op {
	case tc32.MUL:
		c.exLeft = 2
	case tc32.DIV, tc32.DIVU, tc32.REM, tc32.REMU:
		c.exLeft = 18
	}
	c.opA, c.opB = in.Operands(&c.R)
	if in.Op.IsStore() {
		c.mdr = c.R[in.Data()]
	}
	c.wbReg = in.Dst()
	return nil
}

// execute drives the ALU, address-generator and branch-unit outputs of
// the combinational network from the operand latches.
func (c *CPU) execute() {
	in := &c.ir
	a, b := c.opA, c.opB
	c.comb.nextPC = in.Addr + uint32(in.Size)
	c.comb.taken = false
	switch op := in.Op; {
	case op.Kernel() != nil:
		c.comb.alu = op.Kernel()(a, b)
	case op.IsMem():
		c.comb.ea = a + b
	case op.IsCondBranch():
		c.comb.taken = op.Cond()(a, b)
		if c.comb.taken {
			c.comb.nextPC = in.Target()
		}
	case op.IsIndirect(): // ji, ret: the target register is operand a
		c.comb.nextPC = a
	case op == tc32.J, op == tc32.J16, op == tc32.JL:
		c.comb.alu = c.comb.nextPC // jl's return address
		c.comb.nextPC = in.Target()
	}
}

// Run clocks the core until HALT.
func (c *CPU) Run(maxCycles int64) error {
	if maxCycles == 0 {
		maxCycles = 2_000_000_000
	}
	for !c.Halted {
		if c.Cycle > maxCycles {
			return fmt.Errorf("rtlsim: cycle limit exceeded")
		}
		if err := c.Clock(); err != nil {
			return err
		}
	}
	return nil
}

// Output returns the debug-port writes.
func (c *CPU) Output() []uint32 { return c.Mem.Output }
