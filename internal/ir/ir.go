// Package ir defines the translator's intermediate code. As in the paper,
// the intermediate instructions "resemble the assembler instructions of
// the C6x processor but do not have their constraints": they are C6x
// operations without unit assignment, packet placement or delay-slot
// bookkeeping — that is the scheduler's job (internal/sched).
//
// Branch targets at this level are symbolic block indices; the linker step
// in internal/core rewrites them to packet indices after layout.
package ir

import "repro/internal/c6x"

// Pin constrains where the scheduler may place an instruction within its
// block (used for the cycle-generation annotations of the paper's
// Figures 2 and 3).
type Pin uint8

// Pin values.
const (
	PinNone   Pin = iota
	PinFirst      // schedule as early as possible (sync start store)
	PinLast       // keep near the block end (sync wait load)
	PinBranch     // the block-terminating branch
)

// Ins is one intermediate instruction: a C6x instruction plus scheduling
// metadata. For BPKT instructions Inst.Target is a block index until the
// final layout; MVK instructions with BlockRef >= 0 materialize the packet
// index of that block (for call return addresses).
type Ins struct {
	c6x.Inst
	Pin      Pin
	BlockRef int // -1 = none; otherwise block whose packet index this MVK loads
}

// New returns an Ins with no block reference.
func New(inst c6x.Inst) Ins { return Ins{Inst: inst, BlockRef: -1} }

// Block is a sequence of intermediate instructions ending (optionally)
// with a branch. Fallthrough blocks simply continue into the next block.
type Block struct {
	// Label is a human-readable name for listings ("bb_0x100", "divrt").
	Label string
	Ins   []Ins
}

// Writes returns the register the instruction writes, if any.
func (in *Ins) Writes() (c6x.Reg, bool) {
	if in.HasDst() {
		return in.Dst, true
	}
	return c6x.NoReg, false
}
