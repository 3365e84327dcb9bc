package gdbstub

import (
	"fmt"
	"sort"

	"repro/internal/c6x"
	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/platform"
)

// DualTarget debugs a translated program using the paper's two
// translations: it runs the block-oriented code for speed, and switches to
// the instruction-oriented code (one cycle region per instruction) to
// reach break points inside a basic block and to single-step. Both
// translations live in one combined program, so machine state (registers,
// memory, sync device) is shared; the harness only moves the packet PC
// between the two translation images at source-block boundaries, where
// their register mappings agree.
type DualTarget struct {
	sys *platform.System
	bb  *core.Program
	ins *core.Program
	off int // packet offset of the instruction-oriented image

	// srcPC is the current source address (the program is always paused
	// at a region boundary of one of the two images).
	srcPC   uint32
	exited  bool
	regions map[int]uint32 // combined packet index -> source addr (both images)
	// blockOf maps a source address to its enclosing block-oriented
	// region (start, end).
	blocks []core.BlockInfo
}

// NewDualTarget translates f twice (block- and instruction-oriented) at
// the given detail level and prepares the debug platform.
func NewDualTarget(f *elf32.File, level core.Level) (*DualTarget, error) {
	bb, err := core.Translate(f, core.Options{Level: level})
	if err != nil {
		return nil, err
	}
	ins, err := core.Translate(f, core.Options{Level: level, InstructionOriented: true})
	if err != nil {
		return nil, err
	}
	off := core.Merge(bb, ins)
	sys := platform.New(bb)
	d := &DualTarget{
		sys: sys, bb: bb, ins: ins, off: off,
		srcPC:   f.Entry,
		regions: map[int]uint32{},
	}
	for pkt, src := range bb.SrcOfPacket {
		d.regions[pkt] = src
	}
	for pkt, src := range ins.SrcOfPacket {
		d.regions[pkt+off] = src
	}
	d.blocks = append(d.blocks, bb.Blocks...)
	sort.Slice(d.blocks, func(i, j int) bool { return d.blocks[i].SrcStart < d.blocks[j].SrcStart })
	// Execute the prologue (reserved-register setup) so the debuggee is
	// paused at its entry region with a fully initialized platform.
	src, err := d.runUntilRegion()
	if err != nil {
		return nil, err
	}
	d.srcPC = src
	return d, nil
}

// System exposes the underlying platform (for inspecting cycle counts).
func (d *DualTarget) System() *platform.System { return d.sys }

// Exited reports whether the program has halted.
func (d *DualTarget) Exited() bool { return d.exited }

// Regs implements Target, translating the fixed register binding back to
// source names: A0..A15 = d0..d15, B0..B15 = a0..a15.
func (d *DualTarget) Regs() ([NumRegs]uint32, error) {
	var r [NumRegs]uint32
	for i := 0; i < 16; i++ {
		r[i] = d.sys.CPU.Reg(c6x.A(i))
		r[16+i] = d.sys.CPU.Reg(c6x.B(i))
	}
	r[32] = d.srcPC
	return r, nil
}

// SetReg implements Target.
func (d *DualTarget) SetReg(n int, v uint32) error {
	switch {
	case n < 16:
		d.sys.CPU.SetReg(c6x.A(n), v)
	case n < 32:
		d.sys.CPU.SetReg(c6x.B(n-16), v)
	case n == 32:
		// Setting the PC re-targets execution to a region boundary.
		d.srcPC = v
	default:
		return fmt.Errorf("gdbstub: register %d out of range", n)
	}
	return nil
}

// ReadMem implements Target: source addresses map identically on the
// platform, whose memory is the source system's.
func (d *DualTarget) ReadMem(addr uint32, buf []byte) error { return peek(&d.sys.Memory, addr, buf) }

// WriteMem implements Target.
func (d *DualTarget) WriteMem(addr uint32, data []byte) error { return poke(&d.sys.Memory, addr, data) }

// PC implements Target.
func (d *DualTarget) PC() uint32 { return d.srcPC }

// runUntilRegion advances the CPU packet-wise until it pauses at any
// region-start packet (of either image) or the program halts. Runtime
// routine packets and mid-region packets pass through transparently.
func (d *DualTarget) runUntilRegion() (uint32, error) {
	for {
		if d.sys.CPU.Halted() {
			d.exited = true
			return d.srcPC, nil
		}
		if err := d.sys.CPU.Step(); err != nil {
			return 0, err
		}
		if src, ok := d.regions[d.sys.CPU.PC()]; ok {
			return src, nil
		}
	}
}

// Step implements Target: executes exactly one source instruction using
// the instruction-oriented image.
func (d *DualTarget) Step() error {
	if d.exited {
		return nil
	}
	pkt, ok := d.ins.PacketOfSrc[d.srcPC]
	if !ok {
		return fmt.Errorf("gdbstub: no instruction-oriented region at %#x", d.srcPC)
	}
	d.sys.CPU.SetPC(pkt + d.off)
	src, err := d.runUntilRegion()
	if err != nil {
		return err
	}
	d.srcPC = src
	return nil
}

// blockContaining returns the block-oriented region covering addr.
func (d *DualTarget) blockContaining(addr uint32) (core.BlockInfo, bool) {
	i := sort.Search(len(d.blocks), func(i int) bool { return d.blocks[i].SrcStart > addr })
	if i == 0 {
		return core.BlockInfo{}, false
	}
	b := d.blocks[i-1]
	if addr >= b.SrcStart && addr < b.SrcEnd {
		return b, true
	}
	return core.BlockInfo{}, false
}

// Continue implements Target: run the block-oriented image from block
// boundary to block boundary; when entering a block that contains a
// breakpoint, switch to the instruction-oriented image and single-step to
// the precise address (the paper's mechanism).
func (d *DualTarget) Continue(bps map[uint32]bool) (bool, error) {
	if d.exited {
		return false, nil
	}
	for {
		// Mid-block position (e.g. just stepped off a breakpoint): use
		// the instruction-oriented image until the next block boundary.
		if _, atBlock := d.bb.PacketOfSrc[d.srcPC]; !atBlock {
			if bps[d.srcPC] {
				return true, nil
			}
			if err := d.Step(); err != nil {
				return false, err
			}
			if d.exited {
				return false, nil
			}
			continue
		}
		// If a breakpoint lies within the current block ahead of us,
		// approach it instruction by instruction.
		if blk, ok := d.blockContaining(d.srcPC); ok {
			inBlock := false
			for bp := range bps {
				if bp >= d.srcPC && bp < blk.SrcEnd {
					inBlock = true
				}
			}
			if inBlock {
				for {
					if bps[d.srcPC] {
						return true, nil
					}
					if err := d.Step(); err != nil {
						return false, err
					}
					if d.exited {
						return false, nil
					}
					cur, ok := d.blockContaining(d.srcPC)
					if !ok || cur.SrcStart != blk.SrcStart {
						break // left the block without hitting it
					}
				}
				continue
			}
		}
		// Fast path: run the block-oriented image one region.
		pkt, ok := d.bb.PacketOfSrc[d.srcPC]
		if !ok {
			return false, fmt.Errorf("gdbstub: no block-oriented region at %#x", d.srcPC)
		}
		d.sys.CPU.SetPC(pkt)
		src, err := d.runUntilRegion()
		if err != nil {
			return false, err
		}
		d.srcPC = src
		if d.exited {
			return false, nil
		}
		if bps[d.srcPC] {
			return true, nil
		}
	}
}

var _ Target = (*DualTarget)(nil)
