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
package sched

import (
	"fmt"
	"sort"

	"repro/internal/c6x"
	"repro/internal/ir"
)

// Result is the schedule of one block.
type Result struct {
	Packets []c6x.Packet
	// Cycles is the number of core cycles the block occupies (the sum of
	// packet cycle costs, including trailing branch delay padding).
	Cycles int
}

type edge struct {
	to int
	w  int
}

type node struct {
	ins      *ir.Ins
	succs    []edge
	preds    int
	prio     int
	earliest int
	cycle    int
	unit     c6x.Unit
	placed   bool
}

// resources tracks the issue resources taken per cycle.
type resources map[int]c6x.ResSet

// fit tries to place ins at cycle, returning the unit to use.
func (r resources) fit(in *ir.Ins, cycle int) (c6x.Unit, bool) {
	kinds := in.Op.UnitKinds()
	if kinds == "" { // NOP/HALT handled elsewhere
		return c6x.UnitNone, true
	}
	side := unitSide(in)
	for i := 0; i < len(kinds); i++ {
		u := c6x.UnitFor(kinds[i], side)
		need, ok := in.Resources(u)
		if !ok {
			return c6x.UnitNone, false // illegal instruction shape (translator bug)
		}
		if r[cycle]&need == 0 {
			return u, true
		}
	}
	return c6x.UnitNone, false
}

func (r resources) take(in *ir.Ins, cycle int, u c6x.Unit) {
	need, _ := in.Resources(u)
	r[cycle] |= need
}

// unitSide returns the side the instruction must execute on: the memory
// base side for memory ops, otherwise the destination side (C6x units
// write their own file), or the branch-condition side for branches.
func unitSide(in *ir.Ins) c6x.Side {
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

func latOf(in *ir.Ins) int { return in.Op.Latency() }

// Schedule schedules one block. Branch targets are left as block indices
// (rewritten by the caller after layout).
func Schedule(b *ir.Block) (*Result, error) {
	n := len(b.Ins)
	if n == 0 {
		return &Result{}, nil
	}
	nodes := make([]node, n)
	var branchIdx, haltIdx = -1, -1
	for i := range b.Ins {
		in := &b.Ins[i]
		nodes[i].ins = in
		nodes[i].cycle = -1
		switch {
		case in.Op.IsBranch():
			if branchIdx >= 0 {
				return nil, fmt.Errorf("sched: block %s has two branches", b.Label)
			}
			if i != n-1 {
				return nil, fmt.Errorf("sched: branch not last in block %s", b.Label)
			}
			branchIdx = i
		case in.Op == c6x.HALT:
			haltIdx = i
		case in.Op == c6x.NOP:
			return nil, fmt.Errorf("sched: explicit NOP in IR of block %s", b.Label)
		}
	}

	addEdge := func(from, to, w int) {
		nodes[from].succs = append(nodes[from].succs, edge{to: to, w: w})
		nodes[to].preds++
	}

	// Dependence edges.
	reads := make([][]c6x.Reg, n)
	for i := range b.Ins {
		reads[i] = b.Ins[i].Reads(nil)
	}
	for j := 0; j < n; j++ {
		jr := reads[j]
		jw, jHas := b.Ins[j].Writes()
		jMem := b.Ins[j].Op.IsMem()
		jStoreish := b.Ins[j].Op.IsStore() || b.Ins[j].Volatile
		for i := 0; i < j; i++ {
			iw, iHas := b.Ins[i].Writes()
			iMem := b.Ins[i].Op.IsMem()
			iStoreish := b.Ins[i].Op.IsStore() || b.Ins[i].Volatile
			// Edge weights may legitimately be negative (a short-latency
			// write followed by a long-latency write of the same register
			// needs w = lat_i - lat_j + 1 < 0), so edge existence is
			// tracked separately from the weight.
			w := 0
			has := false
			dep := func(min int) {
				if !has || min > w {
					w = min
				}
				has = true
			}
			if iHas {
				for _, r := range jr {
					if r == iw { // RAW
						dep(latOf(&b.Ins[i]))
					}
				}
			}
			if jHas && iHas && iw == jw { // WAW: commit order
				dep(latOf(&b.Ins[i]) - latOf(&b.Ins[j]) + 1)
			}
			if jHas { // WAR
				for _, r := range reads[i] {
					if r == jw {
						dep(0)
					}
				}
			}
			if iMem && jMem && (iStoreish || jStoreish) { // memory order
				dep(1)
			}
			if haltIdx == j && (iMem || iHas) { // everything before halt
				dep(0)
			}
			if has {
				addEdge(i, j, w)
			}
		}
	}

	// Priorities: longest path to a sink.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i >= 0; i-- {
		p := 1
		for _, e := range nodes[i].succs {
			if q := nodes[e.to].prio + e.w + 1; q > p {
				p = q
			}
		}
		nodes[i].prio = p
		if nodes[i].ins.Pin == ir.PinFirst {
			nodes[i].prio += 1000 // schedule sync start as early as possible
		}
	}

	res := resources{}
	// Main list scheduling over all nodes except branch, halt and the
	// PinLast sync-wait (placed afterwards, as late as possible).
	deferred := func(i int) bool {
		return i == branchIdx || i == haltIdx || nodes[i].ins.Pin == ir.PinLast
	}
	remaining := 0
	for i := 0; i < n; i++ {
		if !deferred(i) {
			remaining++
		}
	}
	scheduledAt := func(i, cycle int, u c6x.Unit) {
		nodes[i].cycle = cycle
		nodes[i].unit = u
		nodes[i].placed = true
		for _, e := range nodes[i].succs {
			if t := cycle + e.w; t > nodes[e.to].earliest {
				nodes[e.to].earliest = t
			}
			nodes[e.to].preds--
		}
	}
	for cycle := 0; remaining > 0; cycle++ {
		if cycle > 100000 {
			return nil, fmt.Errorf("sched: no progress in block %s", b.Label)
		}
		// Collect ready nodes.
		var ready []int
		for i := 0; i < n; i++ {
			if deferred(i) || nodes[i].placed {
				continue
			}
			if nodes[i].preds == 0 && nodes[i].earliest <= cycle {
				ready = append(ready, i)
			}
		}
		sort.Slice(ready, func(a, c int) bool {
			if nodes[ready[a]].prio != nodes[ready[c]].prio {
				return nodes[ready[a]].prio > nodes[ready[c]].prio
			}
			return ready[a] < ready[c]
		})
		for _, i := range ready {
			// A deferred predecessor still pending? preds==0 guarantees not.
			u, ok := res.fit(nodes[i].ins, cycle)
			if !ok {
				continue
			}
			res.take(nodes[i].ins, cycle, u)
			scheduledAt(i, cycle, u)
			remaining--
		}
	}

	workLast := -1
	for i := 0; i < n; i++ {
		if nodes[i].placed && nodes[i].cycle > workLast {
			workLast = nodes[i].cycle
		}
	}

	// Place the PinLast sync-wait load(s): as late as possible so the
	// cycle generation drains in parallel with the block body.
	for i := 0; i < n; i++ {
		if nodes[i].ins.Pin != ir.PinLast || nodes[i].placed {
			continue
		}
		if nodes[i].preds != 0 {
			return nil, fmt.Errorf("sched: sync wait depends on deferred node in %s", b.Label)
		}
		cycle := maxInt(nodes[i].earliest, workLast)
		for {
			if u, ok := res.fit(nodes[i].ins, cycle); ok {
				res.take(nodes[i].ins, cycle, u)
				scheduledAt(i, cycle, u)
				break
			}
			cycle++
		}
		if nodes[i].cycle > workLast {
			workLast = nodes[i].cycle
		}
	}

	// Commit horizon: every write to a register that outlives the block
	// must land before the block ends. PinLast loads are exempt (their
	// destination is a scratch register; only the stall matters).
	commitEnd := 0
	for i := 0; i < n; i++ {
		if !nodes[i].placed {
			continue
		}
		if _, has := nodes[i].ins.Writes(); has && nodes[i].ins.Pin != ir.PinLast {
			if e := nodes[i].cycle + latOf(nodes[i].ins); e > commitEnd {
				commitEnd = e
			}
		}
	}

	blockLen := maxInt(workLast+1, commitEnd)

	// Place the branch with delay-slot filling: as early as data allows,
	// but late enough that all remaining work fits in the 5 delay slots.
	if branchIdx >= 0 {
		bn := &nodes[branchIdx]
		if bn.preds != 0 {
			return nil, fmt.Errorf("sched: branch predecessors unplaced in %s", b.Label)
		}
		cycle := maxInt(bn.earliest, maxInt(workLast-c6x.BranchDelay, commitEnd-c6x.BranchDelay-1))
		if cycle < 0 {
			cycle = 0
		}
		for {
			if u, ok := res.fit(bn.ins, cycle); ok {
				res.take(bn.ins, cycle, u)
				scheduledAt(branchIdx, cycle, u)
				break
			}
			cycle++
		}
		blockLen = nodes[branchIdx].cycle + c6x.BranchDelay + 1
	}

	// Place HALT alone at the end.
	if haltIdx >= 0 {
		if nodes[haltIdx].preds != 0 {
			return nil, fmt.Errorf("sched: halt predecessors unplaced in %s", b.Label)
		}
		c := maxInt(blockLen, nodes[haltIdx].earliest)
		nodes[haltIdx].cycle = c
		nodes[haltIdx].placed = true
		blockLen = c + 1
	}

	// Emit packets cycle by cycle, merging idle cycles into NOP n.
	byCycle := map[int][]int{}
	for i := 0; i < n; i++ {
		if !nodes[i].placed {
			return nil, fmt.Errorf("sched: instruction %d unplaced in %s", i, b.Label)
		}
		byCycle[nodes[i].cycle] = append(byCycle[nodes[i].cycle], i)
	}
	var packets []c6x.Packet
	cycles := 0
	idle := 0
	flushIdle := func() {
		if idle > 0 {
			packets = append(packets, c6x.Packet{Insts: []c6x.Inst{{Op: c6x.NOP, NopCycles: idle}}})
			cycles += idle
			idle = 0
		}
	}
	for c := 0; c < blockLen; c++ {
		ids := byCycle[c]
		if len(ids) == 0 {
			idle++
			continue
		}
		flushIdle()
		sort.Slice(ids, func(a, b2 int) bool { return nodes[ids[a]].unit < nodes[ids[b2]].unit })
		var insts []c6x.Inst
		for _, i := range ids {
			inst := nodes[i].ins.Inst
			inst.Unit = nodes[i].unit
			insts = append(insts, inst)
		}
		packets = append(packets, c6x.Packet{Insts: insts})
		cycles++
	}
	flushIdle()
	return &Result{Packets: packets, Cycles: cycles}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
