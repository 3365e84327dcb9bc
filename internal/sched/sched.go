// Package sched implements the "further transformations of intermediate
// code" stage of the paper's Figure 1: finding instructions that can
// execute in parallel on the VLIW, assigning every instruction to the
// functional unit it will run on, and laying out execute packets with the
// C6x's exposed delay slots (including branch delay-slot filling).
//
// The scheduler is a classic critical-path list scheduler over the block's
// dependence graph, with the C6x resource model: one instruction per unit
// per cycle, one cross-path read per side, one memory op per data path,
// memory base registers on the unit's side, and no interlocks — every
// latency is enforced by construction and re-checked by the simulator.
//
// Its input is the translator's intermediate code, a [Block] of [Ins]. As
// in the paper, the intermediate instructions "resemble the assembler
// instructions of the C6x processor but do not have their constraints":
// C6x operations without unit assignment, packet placement or delay-slot
// bookkeeping. Branch targets are symbolic labels, which internal/core
// rewrites to packet indices after layout.
//
// Translated blocks are small (a median of 7 instructions at Level 3) and
// many (thousands per program), so the cost that matters is per block,
// not per instruction: a [Scheduler] keeps every scratch buffer across
// blocks and allocates only each block's instruction backing.
package sched

import (
	"fmt"
	"math"

	"repro/internal/c6x"
)

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

// Ins is one intermediate instruction: a C6x instruction plus its
// placement constraint. A BPKT's Target (and a SymImm MVK's immediate)
// is a label id until the final layout.
type Ins struct {
	c6x.Inst
	Pin Pin
}

// New returns an unpinned Ins.
func New(inst c6x.Inst) Ins { return Ins{Inst: inst} }

// Block is a sequence of intermediate instructions ending (optionally)
// with a branch. Fallthrough blocks simply continue into the next block.
type Block struct {
	// Label is a human-readable name for listings ("bb_0x100", "divrt").
	Label string
	Ins   []Ins
}

// Scheduler schedules blocks one after another, reusing its scratch
// buffers. The zero value is ready to use. A Scheduler is not safe for
// concurrent use; each translation owns one.
type Scheduler struct {
	nodes []node
	reads []c6x.Reg    // every node's read set, flat
	edges []edge       // successors, grouped by source node (CSR)
	res   []c6x.ResSet // issue resources taken, by cycle
	ready []int        // the current cycle's ready nodes, best first
	slot  []int        // packet layout: nodes counting-sorted by cycle
	first []int        // packet layout: first slot of each cycle

	branch, halt int // node indices, -1 = none
}

type edge struct{ to, w int }

// node is one instruction's facts (computed once) and placement.
type node struct {
	ins            *Ins
	rd0, rd1       int // reads[rd0:rd1]
	e0, e1         int // edges[e0:e1]
	dst            c6x.Reg
	hasDst         bool
	mem, storeish  bool
	deferred       bool // placed after the main loop (PinLast, branch, halt)
	lat            int
	nu             int
	units          [4]c6x.Unit // candidate units, preferred first
	needs          [4]c6x.ResSet
	preds          int // unplaced predecessors
	prio, earliest int
	cycle          int // -1 until placed
	unit           c6x.Unit
}

// noDep is the weight of a pair of instructions with no dependence.
// Real weights may be negative (a short-latency write followed by a
// long-latency write of the same register needs lat_i - lat_j + 1).
const noDep = math.MinInt

// unitSide returns the side the instruction must execute on: the memory
// base side for memory ops, otherwise the destination side (C6x units
// write their own file), or the branch-condition side for branches.
func unitSide(in *Ins) c6x.Side {
	switch {
	case in.Op.IsMem():
		return in.Src1.Reg.Side()
	case in.Op == c6x.BPKT:
		return c6x.SideB // either S unit works; prefer S2 for branches
	case in.Op == c6x.BREG:
		return in.Src1.Reg.Side()
	case in.HasDst():
		return in.Dst.Side()
	}
	return c6x.SideA
}

// Schedule appends the execute packets of block b to pk and returns the
// extended slice. Branch targets are left as labels (rewritten by the
// caller after layout). Each packet's Insts is capacity-limited, so
// appending to one can never overwrite its neighbour.
func (s *Scheduler) Schedule(pk []c6x.Packet, b *Block) ([]c6x.Packet, error) {
	if len(b.Ins) == 0 {
		return pk, nil
	}
	if err := s.facts(b); err != nil {
		return pk, err
	}
	if err := s.depend(b); err != nil {
		return pk, err
	}
	return s.layout(pk, b, s.place())
}

// facts computes each instruction's dependence and resource facts and
// rejects what no schedule can hold.
func (s *Scheduler) facts(b *Block) error {
	n := len(b.Ins)
	if cap(s.nodes) < n {
		s.nodes = make([]node, n)
	}
	s.nodes, s.reads = s.nodes[:n], s.reads[:0]
	s.branch, s.halt = -1, -1
	for i := range b.Ins {
		in := &b.Ins[i]
		switch {
		case in.Op.IsBranch():
			if s.branch >= 0 {
				return fmt.Errorf("sched: block %s has two branches", b.Label)
			}
			if i != n-1 {
				return fmt.Errorf("sched: branch not last in block %s", b.Label)
			}
			s.branch = i
		case in.Op == c6x.HALT:
			s.halt = i
		case in.Op == c6x.NOP:
			return fmt.Errorf("sched: explicit NOP in IR of block %s", b.Label)
		}
		nd := &s.nodes[i]
		*nd = node{
			ins: in, rd0: len(s.reads), dst: in.Dst, hasDst: in.HasDst(),
			mem: in.Op.IsMem(), storeish: in.Op.IsStore() || in.Volatile,
			deferred: in.Pin == PinLast, lat: in.Op.Latency(), cycle: -1,
		}
		s.reads = in.Reads(s.reads)
		nd.rd1 = len(s.reads)
		// An op without units (HALT) issues anywhere and takes nothing.
		kinds, side := in.Op.UnitKinds(), unitSide(in)
		nd.nu = max(len(kinds), 1)
		for k := 0; k < len(kinds); k++ {
			nd.units[k] = c6x.UnitFor(kinds[k], side)
			need, ok := in.Resources(nd.units[k])
			if !ok {
				return fmt.Errorf("sched: illegal operand shape %v in block %s", in.Inst, b.Label)
			}
			nd.needs[k] = need
		}
	}
	if s.branch >= 0 && s.halt >= 0 {
		return fmt.Errorf("sched: block %s has a halt and a branch", b.Label)
	}
	for _, i := range [2]int{s.branch, s.halt} {
		if i >= 0 {
			s.nodes[i].deferred = true
		}
	}
	return nil
}

// readsReg reports whether node nd reads register r.
func (s *Scheduler) readsReg(nd *node, r c6x.Reg) bool {
	for _, q := range s.reads[nd.rd0:nd.rd1] {
		if q == r {
			return true
		}
	}
	return false
}

// depend builds the dependence edges and each node's priority, the
// longest path to a sink.
func (s *Scheduler) depend(b *Block) error {
	s.edges = s.edges[:0]
	for i := range s.nodes {
		a := &s.nodes[i]
		a.e0 = len(s.edges)
		for j := i + 1; j < len(s.nodes); j++ {
			c := &s.nodes[j]
			w := noDep
			if a.hasDst && s.readsReg(c, a.dst) { // RAW
				w = max(w, a.lat)
			}
			if a.hasDst && c.hasDst && a.dst == c.dst { // WAW: commit order
				w = max(w, a.lat-c.lat+1)
			}
			if c.hasDst && s.readsReg(a, c.dst) { // WAR
				w = max(w, 0)
			}
			if a.mem && c.mem && (a.storeish || c.storeish) { // memory order
				w = max(w, 1)
			}
			if j == s.halt && (a.mem || a.hasDst) { // everything before halt
				w = max(w, 0)
			}
			if w == noDep {
				continue
			}
			// Deferred nodes are placed last (PinLast in order, then the
			// branch, then the halt); nothing may wait for a later one.
			if a.deferred && (!c.deferred || i == s.halt) {
				return fmt.Errorf("sched: instruction %d of block %s depends on deferred instruction %d", j, b.Label, i)
			}
			s.edges = append(s.edges, edge{to: j, w: w})
			c.preds++
		}
		a.e1 = len(s.edges)
	}
	for i := len(s.nodes) - 1; i >= 0; i-- {
		nd := &s.nodes[i]
		nd.prio = 1
		for _, e := range s.edges[nd.e0:nd.e1] {
			nd.prio = max(nd.prio, s.nodes[e.to].prio+e.w+1)
		}
		if nd.ins.Pin == PinFirst {
			nd.prio += 1000 // schedule sync start as early as possible
		}
	}
	return nil
}

// fit returns the first of node i's units free at cycle, or -1.
func (s *Scheduler) fit(i, cycle int) int {
	for len(s.res) <= cycle {
		s.res = append(s.res, 0)
	}
	nd := &s.nodes[i]
	for k := 0; k < nd.nu; k++ {
		if s.res[cycle]&nd.needs[k] == 0 {
			return k
		}
	}
	return -1
}

// take places node i at cycle on its k-th unit and releases its
// successors.
func (s *Scheduler) take(i, cycle, k int) {
	nd := &s.nodes[i]
	s.res[cycle] |= nd.needs[k]
	nd.cycle, nd.unit = cycle, nd.units[k]
	for _, e := range s.edges[nd.e0:nd.e1] {
		c := &s.nodes[e.to]
		c.earliest = max(c.earliest, cycle+e.w)
		c.preds--
	}
}

// takeFirstFit places node i at the first cycle from c on which one of
// its units is free. Every shape is legal (facts), so this terminates.
func (s *Scheduler) takeFirstFit(i, c int) {
	for ; ; c++ {
		if k := s.fit(i, c); k >= 0 {
			s.take(i, c, k)
			return
		}
	}
}

// place schedules every node and returns the block length in cycles.
func (s *Scheduler) place() int {
	nodes := s.nodes
	s.res = s.res[:0]
	// Main list scheduling over all nodes except the deferred ones.
	// Their predecessors are never deferred (depend), so every cycle
	// either places a node or reaches a pending node's release time.
	remaining := 0
	for i := range nodes {
		if !nodes[i].deferred {
			remaining++
		}
	}
	for cycle := 0; remaining > 0; cycle++ {
		s.ready = s.ready[:0]
		for i := range nodes {
			nd := &nodes[i]
			if nd.deferred || nd.cycle >= 0 || nd.preds != 0 || nd.earliest > cycle {
				continue
			}
			// Insert by (prio desc, index asc): a total order.
			k := len(s.ready)
			s.ready = append(s.ready, i)
			for ; k > 0 && nodes[s.ready[k-1]].prio < nd.prio; k-- {
				s.ready[k] = s.ready[k-1]
			}
			s.ready[k] = i
		}
		for _, i := range s.ready {
			if k := s.fit(i, cycle); k >= 0 {
				s.take(i, cycle, k)
				remaining--
			}
		}
	}

	workLast := -1
	for i := range nodes {
		workLast = max(workLast, nodes[i].cycle)
	}
	// Place the PinLast sync-wait load(s): as late as possible so the
	// cycle generation drains in parallel with the block body.
	for i := range nodes {
		if nd := &nodes[i]; nd.ins.Pin == PinLast && nd.cycle < 0 {
			s.takeFirstFit(i, max(nd.earliest, workLast))
			workLast = max(workLast, nd.cycle)
		}
	}

	// Commit horizon: every write to a register that outlives the block
	// must land before the block ends. PinLast loads are exempt (their
	// destination is a scratch register; only the stall matters).
	commitEnd := 0
	for i := range nodes {
		if nd := &nodes[i]; nd.cycle >= 0 && nd.hasDst && nd.ins.Pin != PinLast {
			commitEnd = max(commitEnd, nd.cycle+nd.lat)
		}
	}
	blockLen := max(workLast+1, commitEnd)

	// Place the branch with delay-slot filling: as early as data allows,
	// but late enough that all remaining work fits in the 5 delay slots.
	if s.branch >= 0 {
		bn := &nodes[s.branch]
		s.takeFirstFit(s.branch, max(bn.earliest, workLast-c6x.BranchDelay, commitEnd-c6x.BranchDelay-1, 0))
		blockLen = bn.cycle + c6x.BranchDelay + 1
	}
	// Place HALT alone at the end.
	if s.halt >= 0 {
		h := &nodes[s.halt]
		h.cycle = max(blockLen, h.earliest)
		blockLen = h.cycle + 1
	}
	return blockLen
}

// zeroed returns b resized to n zeros, reusing its capacity.
func zeroed(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// layout appends the packets of the placed block, cycle by cycle,
// merging idle cycles into NOP n.
func (s *Scheduler) layout(pk []c6x.Packet, b *Block, blockLen int) ([]c6x.Packet, error) {
	// Counting sort of the nodes by cycle, stable by index.
	s.first = zeroed(s.first, blockLen+1)
	for i := range s.nodes {
		c := s.nodes[i].cycle
		if c < 0 || c >= blockLen {
			return pk, fmt.Errorf("sched: instruction %d of block %s placed at cycle %d outside [0, %d)", i, b.Label, c, blockLen)
		}
		s.first[c+1]++
	}
	nops, prev := 0, 1
	for c := 0; c < blockLen; c++ {
		if s.first[c+1] == 0 && prev != 0 {
			nops++ // an idle run starts: one NOP packet
		}
		prev = s.first[c+1]
		s.first[c+1] += s.first[c]
	}
	s.slot = zeroed(s.slot, len(s.nodes))
	for i := range s.nodes {
		c := s.nodes[i].cycle
		s.slot[s.first[c]] = i
		s.first[c]++
	}
	// Now first[c] is where cycle c ends; cycle c starts at first[c-1].

	insts := make([]c6x.Inst, 0, len(s.nodes)+nops)
	idle, lo := 0, 0
	emit := func(from int) {
		pk = append(pk, c6x.Packet{Insts: insts[from:len(insts):len(insts)]})
	}
	for c := 0; c <= blockLen; c++ {
		if c < blockLen && s.first[c] == lo {
			idle++
			continue
		}
		if idle > 0 {
			insts = append(insts, c6x.Inst{Op: c6x.NOP, NopCycles: idle})
			emit(len(insts) - 1)
			idle = 0
		}
		if c == blockLen {
			break
		}
		ids := s.slot[lo:s.first[c]]
		lo = s.first[c]
		// Insertion sort by unit (distinct within a cycle).
		for a := 1; a < len(ids); a++ {
			for k := a; k > 0 && s.nodes[ids[k]].unit < s.nodes[ids[k-1]].unit; k-- {
				ids[k], ids[k-1] = ids[k-1], ids[k]
			}
		}
		from := len(insts)
		for _, i := range ids {
			inst := s.nodes[i].ins.Inst
			inst.Unit = s.nodes[i].unit
			insts = append(insts, inst)
		}
		emit(from)
	}
	return pk, nil
}
