// Package gdbstub implements debugging of cycle-annotated translated code
// (Section 3.5 of the paper): a GDB Remote Serial Protocol server backed
// by a dual-translation harness. The debug image contains two
// translations of the program — a basic-block-oriented one (fast, cycle
// generation per block, breakpoints at block starts) and an
// instruction-oriented one (cycle generation per instruction) used to
// single-step to break points in the middle of a block. The stub also
// translates register names and addresses between the source and target
// worlds, as the paper requires.
package gdbstub

import (
	"fmt"

	"repro/internal/iss"
	"repro/internal/tc32"
)

// NumRegs is the size of the TC32 GDB register file: d0..d15, a0..a15, pc.
const NumRegs = 33

// Target is the debug view of an execution engine. Addresses and
// registers are in the source (TC32) world.
type Target interface {
	// Regs returns d0..d15, a0..a15, pc.
	Regs() ([NumRegs]uint32, error)
	// SetReg writes one register (index as in Regs).
	SetReg(n int, v uint32) error
	// ReadMem reads source memory.
	ReadMem(addr uint32, buf []byte) error
	// WriteMem writes source memory.
	WriteMem(addr uint32, data []byte) error
	// Step executes one source instruction.
	Step() error
	// Continue runs until a breakpoint or program exit; it reports
	// whether the program is still running (false = exited).
	Continue(breakpoints map[uint32]bool) (running bool, err error)
	// PC returns the current source program counter.
	PC() uint32
}

// ISSTarget adapts the reference simulator to the Target interface (used
// for debugging unannotated code and as the protocol test oracle).
type ISSTarget struct {
	Sim *iss.Sim
}

// Regs implements Target.
func (t *ISSTarget) Regs() ([NumRegs]uint32, error) {
	var r [NumRegs]uint32
	copy(r[:], t.Sim.Arch.R[:])
	r[32] = t.Sim.Arch.PC
	return r, nil
}

// SetReg implements Target.
func (t *ISSTarget) SetReg(n int, v uint32) error {
	switch {
	case n < 32:
		t.Sim.Arch.R[n] = v
	case n == 32:
		t.Sim.Arch.PC = v
	default:
		return fmt.Errorf("gdbstub: register %d out of range", n)
	}
	return nil
}

// ReadMem implements Target.
func (t *ISSTarget) ReadMem(addr uint32, buf []byte) error { return peek(t.Sim.Arch.Mem, addr, buf) }

// WriteMem implements Target.
func (t *ISSTarget) WriteMem(addr uint32, data []byte) error { return poke(t.Sim.Arch.Mem, addr, data) }

// peek and poke are the debugger's memory access on both targets: RAM
// and text only, through the memory's side-effect-free port, so looking
// at the machine neither moves its clock nor touches a device. Any other
// address is an error.
func peek(m *iss.Memory, addr uint32, buf []byte) error {
	for i := range buf {
		v, ok := m.Peek(addr+uint32(i), 1)
		if !ok {
			return fmt.Errorf("gdbstub: cannot read %#x: not RAM or text", addr+uint32(i))
		}
		buf[i] = byte(v)
	}
	return nil
}

func poke(m *iss.Memory, addr uint32, data []byte) error {
	for i, b := range data {
		if !m.Poke(addr+uint32(i), uint32(b), 1) {
			return fmt.Errorf("gdbstub: cannot write %#x: not RAM", addr+uint32(i))
		}
	}
	return nil
}

// Step implements Target.
func (t *ISSTarget) Step() error {
	if t.Sim.Arch.Halted {
		return nil
	}
	return t.Sim.Step()
}

// Continue implements Target.
func (t *ISSTarget) Continue(bps map[uint32]bool) (bool, error) {
	for !t.Sim.Arch.Halted {
		if err := t.Sim.Step(); err != nil {
			return false, err
		}
		if bps[t.Sim.Arch.PC] {
			return true, nil
		}
	}
	return false, nil
}

// PC implements Target.
func (t *ISSTarget) PC() uint32 { return t.Sim.Arch.PC }

var _ Target = (*ISSTarget)(nil)

// regName translates a GDB register index to its source-world name.
func regName(n int) string {
	switch {
	case n < 16:
		return fmt.Sprintf("d%d", n)
	case n == 16+tc32.SP:
		return "sp(a10)"
	case n == 16+tc32.RA:
		return "ra(a11)"
	case n < 32:
		return fmt.Sprintf("a%d", n-16)
	}
	return "pc"
}
