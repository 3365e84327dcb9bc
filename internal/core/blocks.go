package core

import (
	"fmt"
	"sort"

	"repro/internal/march"
	"repro/internal/tc32"
)

// srcBlock is one cycle region of the source program: a basic block after
// leader splitting, I/O splitting (every bus access becomes its own
// region so its emulated-time stamp is exact), and — in instruction
// oriented mode — per-instruction splitting.
type srcBlock struct {
	insts []tc32.Inst
	start uint32
	end   uint32

	// memClass[i] classifies insts[i] if it is a memory access.
	memClass []memClass
	// jiTarget is the statically resolved target of a ji terminator
	// (0xFFFFFFFF if unknown or not applicable).
	jiTarget uint32

	staticCycles int64
	condBranch   bool
	predTaken    bool
	cabs         int
}

type memClass uint8

const (
	memNone memClass = iota
	memData
	memIO
	memUnknown
)

func (t *translator) decode(text []byte, base uint32, entry uint32) error {
	t.index = map[uint32]int{}
	off := 0
	for off < len(text) {
		inst, err := tc32.Decode(text[off:], base+uint32(off))
		if err != nil {
			// Tolerate non-instruction padding; it must never be reached.
			off += 2
			continue
		}
		t.index[inst.Addr] = len(t.insts)
		t.insts = append(t.insts, inst)
		off += int(inst.Size)
	}
	if len(t.insts) == 0 {
		return fmt.Errorf("core: no instructions in .text")
	}
	if _, ok := t.index[entry]; !ok {
		return fmt.Errorf("core: entry point %#x is not an instruction", entry)
	}
	return nil
}

// buildBlocks finds basic-block leaders and forms blocks, mirroring the
// paper's "building of basic blocks" stage. The leader computation is
// shared with the reference simulator (tc32.Leaders): leaders are also
// the interrupt delivery points, and both sides must agree on them
// bit-exactly. The `__irq` vector is seeded as an extra leader — it is
// reachable only through interrupt delivery.
func (t *translator) buildBlocks(entry uint32) error {
	leaders := tc32.Leaders(t.insts, entry, t.irqEntry)
	var starts []uint32
	for a := range leaders {
		if _, ok := t.index[a]; ok {
			starts = append(starts, a)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	isLeader := map[uint32]bool{}
	for _, a := range starts {
		isLeader[a] = true
	}
	t.leaders = isLeader

	t.blkAt = map[uint32]int{}
	for _, start := range starts {
		idx, ok := t.index[start]
		if !ok {
			continue
		}
		blk := &srcBlock{start: start, jiTarget: 0xFFFFFFFF}
		for k := idx; k < len(t.insts); k++ {
			in := t.insts[k]
			if in.Addr != start && isLeader[in.Addr] {
				break
			}
			if k > idx && in.Addr != t.insts[k-1].Addr+uint32(t.insts[k-1].Size) {
				break // gap (padding) ends the block
			}
			blk.insts = append(blk.insts, in)
			if in.Op.IsBranch() {
				break
			}
		}
		if len(blk.insts) == 0 {
			continue
		}
		last := blk.insts[len(blk.insts)-1]
		blk.end = last.Addr + uint32(last.Size)
		t.blkAt[start] = len(t.blocks)
		t.blocks = append(t.blocks, blk)
	}
	if _, ok := t.blkAt[entry]; !ok {
		return fmt.Errorf("core: entry block missing")
	}
	return nil
}

// splitIOBlocks re-splits blocks so every I/O (or unresolvable) memory
// access is its own cycle region: the preceding region's synchronization
// wait guarantees the emulated clock has caught up before the bus
// transaction, making the access cycle accurate (the paper's bus
// interface requirement). In instruction-oriented mode every instruction
// becomes its own region (the debugger's second translation).
func (t *translator) splitIOBlocks() {
	var out []*srcBlock
	split := func(blk *srcBlock, cut func(i int) bool) {
		cur := &srcBlock{start: blk.start, jiTarget: blk.jiTarget}
		flush := func(end uint32) {
			if len(cur.insts) > 0 {
				cur.end = end
				out = append(out, cur)
			}
			cur = &srcBlock{start: end, jiTarget: blk.jiTarget}
		}
		for i, in := range blk.insts {
			if cut(i) && len(cur.insts) > 0 {
				flush(in.Addr)
			}
			cur.insts = append(cur.insts, in)
			cur.memClass = append(cur.memClass, blk.memClass[i])
			if cut(i) {
				flush(in.Addr + uint32(in.Size))
			}
		}
		if len(cur.insts) > 0 {
			cur.end = blk.end
			out = append(out, cur)
		}
	}
	for _, blk := range t.blocks {
		if t.opts.InstructionOriented {
			split(blk, func(i int) bool { return true })
			continue
		}
		needs := false
		for _, c := range blk.memClass {
			if c == memIO || c == memUnknown {
				needs = true
			}
		}
		if !needs {
			out = append(out, blk)
			continue
		}
		split(blk, func(i int) bool {
			return blk.memClass[i] == memIO || blk.memClass[i] == memUnknown
		})
	}
	// Rebuild the address index.
	t.blocks = out
	t.blkAt = map[uint32]int{}
	for i, blk := range t.blocks {
		t.blkAt[blk.start] = i
	}
}

// calcCycles performs the static cycle calculation of Section 3.3: the
// shared pipeline model is replayed per block from a clean entry state,
// and control transfers are charged their statically predicted cost.
func (t *translator) calcCycles() {
	for _, blk := range t.blocks {
		pipe := march.NewPipe(t.desc)
		for _, in := range blk.insts {
			issue := pipe.Issue(&in)
			switch {
			case in.Op.IsCondBranch():
				blk.condBranch = true
				blk.predTaken = t.desc.PredictTaken(in)
				pipe.Control(issue, t.desc.CondBranchBaseCost(blk.predTaken))
			case in.Op == tc32.J, in.Op == tc32.JL, in.Op == tc32.J16:
				pipe.Control(issue, t.desc.Branch.Direct)
			case in.Op.IsIndirect():
				pipe.Control(issue, t.desc.Branch.Indirect)
			case in.Op == tc32.HALT, in.Op == tc32.WFI:
				pipe.Control(issue, 1)
			}
		}
		blk.staticCycles = pipe.Cycles()
	}
}
