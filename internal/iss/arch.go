package iss

import (
	"fmt"

	"repro/internal/tc32"
)

// Arch is the architectural state of a TC32 core: the register file, the
// program counter and the halt flag, plus the attached memory. It is
// shared by the interpreted simulator and the debug stub, so that both
// execute exactly the same instruction semantics.
type Arch struct {
	// R holds both register files, indexed by tc32.Reg: d0..d15, then
	// a0..a15.
	R  [tc32.NumRegs]uint32
	PC uint32

	Halted  bool
	Retired int64

	// Interrupt state. IE is the global interrupt enable (reset
	// disabled); taking an interrupt saves the resume address in
	// ShadowPC, sets InHandler and clears IE; reti restores PC from
	// ShadowPC, re-enables IE and clears InHandler. Waiting is set by
	// wfi: the core idles until the interrupt line delivers.
	IE        bool
	InHandler bool
	Waiting   bool
	ShadowPC  uint32

	Mem *Memory
}

// Exec executes one instruction, updating registers, memory and PC, and
// reports whether a conditional branch was taken. cycle is the current
// core cycle, passed through to memory-mapped devices.
//
// ALU, address, memory and conditional-branch ops execute from their row
// of the TC32 op table; only jumps, halt and the interrupt ops are
// spelled out here.
func (a *Arch) Exec(i *tc32.Inst, cycle int64) (taken bool, err error) {
	r := &a.R
	op := i.Op
	nextPC := i.Addr + uint32(i.Size)
	x, y := i.Operands(r)
	if k := op.Kernel(); k != nil {
		r[i.Dst()] = k(x, y)
	} else if c := op.Cond(); c != nil {
		if taken = c(x, y); taken {
			nextPC = i.Target()
		}
	} else if op.IsLoad() {
		v, err := a.Mem.Read(i.Addr, x+y, op.MemSize(), cycle)
		if err != nil {
			return false, err
		}
		r[i.Data()] = op.Extend(v)
	} else if op.IsStore() {
		if err := a.Mem.Write(i.Addr, x+y, r[i.Data()], op.MemSize(), cycle); err != nil {
			return false, err
		}
	} else {
		switch op {
		case tc32.J, tc32.J16:
			nextPC = i.Target()
		case tc32.JL:
			r[tc32.A(tc32.RA)] = i.Addr + 4
			nextPC = i.Target()
		case tc32.JI, tc32.RET, tc32.RET16: // the target register is operand x
			nextPC = x
		case tc32.NOP, tc32.NOP16:
		case tc32.HALT:
			a.Halted = true
		case tc32.EI:
			a.IE = true
		case tc32.DI:
			a.IE = false
		case tc32.RETI:
			if !a.InHandler {
				return false, fmt.Errorf("iss: reti outside interrupt handler at %#x", i.Addr)
			}
			nextPC = a.ShadowPC
			a.IE = true
			a.InHandler = false
		case tc32.WFI:
			// Waits for the interrupt line regardless of IE. With IE set
			// the wake is an interrupt delivery; with IE clear the core
			// just resumes after the wfi (ARM-style), which is what makes
			// the masked check-then-sleep idiom race-free: a line that
			// rises between the check and the wfi still wakes it.
			a.Waiting = true
		default:
			return false, fmt.Errorf("iss: unimplemented op %v at %#x", op, i.Addr)
		}
	}
	a.PC = nextPC
	a.Retired++
	return taken, nil
}
