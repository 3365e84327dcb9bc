package core

import (
	"repro/internal/iss"
	"repro/internal/tc32"
)

// This file implements the "finding base addresses" stage of Figure 1: a
// forward dataflow analysis over both register files that classifies every
// load/store as DATA (plain memory, translated directly), IO (replaced by
// a cycle-accurate bus-model access) or UNKNOWN (routed through the bus
// model's runtime address check), and statically resolves ji targets.
//
// The abstract domain tracks exact constants (from movh.a/lea/movi/movhi
// chains) and a region approximation: pointer arithmetic that adds an
// unknown index to a data-region pointer stays in the data region — the
// standard assumption of static binary translators, which is what lets
// array accesses in loops keep their fast direct translation.

type absRegion uint8

const (
	regionNone absRegion = iota
	regionData
	regionIO
)

type absVal struct {
	known  bool
	val    uint32
	region absRegion
}

func classifyAddr(v uint32) absRegion {
	switch {
	case v >= iss.RAMBase && v < iss.RAMBase+iss.RAMSize+4:
		return regionData
	case iss.IsIO(v):
		return regionIO
	}
	return regionNone
}

func constVal(v uint32) absVal {
	return absVal{known: true, val: v, region: classifyAddr(v)}
}

func (a absVal) meet(b absVal) absVal {
	if a.known && b.known && a.val == b.val {
		return a
	}
	if a.region == b.region && a.region != regionNone {
		return absVal{region: a.region}
	}
	return absVal{}
}

// addAbs models pointer arithmetic: const+const folds; anything added to a
// data/IO-region value stays in that region.
func addAbs(a, b absVal) absVal {
	if a.known && b.known {
		return constVal(a.val + b.val)
	}
	if a.region == regionData || b.region == regionData {
		return absVal{region: regionData}
	}
	if a.region == regionIO || b.region == regionIO {
		return absVal{region: regionIO}
	}
	return absVal{}
}

type absState struct {
	d [16]absVal
	a [16]absVal
}

func (s *absState) meet(o *absState) (changed bool) {
	for i := 0; i < 16; i++ {
		if m := s.d[i].meet(o.d[i]); m != s.d[i] {
			s.d[i] = m
			changed = true
		}
		if m := s.a[i].meet(o.a[i]); m != s.a[i] {
			s.a[i] = m
			changed = true
		}
	}
	return changed
}

type regionAnalysis struct {
	entry []absState
	seen  []bool
}

// analyzeRegions runs the dataflow to a fixpoint and fills in each
// block's memClass and jiTarget.
func (t *translator) analyzeRegions() {
	n := len(t.blocks)
	ra := &regionAnalysis{entry: make([]absState, n), seen: make([]bool, n)}
	t.regions = ra

	// Call edges: the return site receives a state where data registers
	// are clobbered but address registers survive (TC32 ABI: address
	// registers are callee-saved; a11 holds the return address and is
	// rewritten by the translator anyway).
	var work []int
	push := func(i int, st absState, isCallReturn bool) {
		if isCallReturn {
			for k := 0; k < 16; k++ {
				st.d[k] = absVal{}
			}
			st.a[tc32.RA] = absVal{}
		}
		if !ra.seen[i] {
			ra.seen[i] = true
			ra.entry[i] = st
			work = append(work, i)
			return
		}
		merged := ra.entry[i]
		if merged.meet(&st) {
			ra.entry[i] = merged
			work = append(work, i)
		}
	}
	if ei, ok := t.blkAt[t.entry]; ok {
		ra.seen[ei] = true
		work = append(work, ei)
	}
	// The interrupt handler can be entered between any two instructions,
	// so it is seeded with the unknown (bottom) state: every access it
	// performs goes through the runtime address check. Interrupt
	// transparency is the flip side: the analysis assumes a handler
	// restores every register it touches before reti (see
	// docs/architecture.md, "Interrupts").
	if t.irqEntry != 0 {
		if hi, ok := t.blkAt[t.irqEntry]; ok {
			push(hi, absState{}, false)
		}
	}

	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		blk := t.blocks[bi]
		st := ra.entry[bi]
		for _, in := range blk.insts {
			transfer(&st, in)
		}
		last := blk.insts[len(blk.insts)-1]
		succAddr := last.Addr + uint32(last.Size)
		switch {
		case last.Op == tc32.HALT:
		case last.Op == tc32.JL:
			if ti, ok := t.blkAt[last.Target()]; ok {
				push(ti, st, false)
			}
			if si, ok := t.blkAt[succAddr]; ok {
				push(si, st, true)
			}
		case last.Op == tc32.J || last.Op == tc32.J16:
			if ti, ok := t.blkAt[last.Target()]; ok {
				push(ti, st, false)
			}
		case last.Op == tc32.JI:
			v := st.a[last.Rs1]
			if v.known {
				if ti, ok := t.blkAt[v.val]; ok {
					push(ti, st, false)
				}
			} else {
				// Unknown indirect target: propagate to every potential
				// leader conservatively.
				for i := range t.blocks {
					push(i, st, true)
				}
			}
		case last.Op.IsIndirect(): // ret
		case last.Op.IsCondBranch():
			if ti, ok := t.blkAt[last.Target()]; ok {
				push(ti, st, false)
			}
			if si, ok := t.blkAt[succAddr]; ok {
				push(si, st, false)
			}
		default: // fallthrough block
			if si, ok := t.blkAt[succAddr]; ok {
				push(si, st, false)
			}
		}
	}

	// Classification pass.
	for bi, blk := range t.blocks {
		st := ra.entry[bi]
		blk.memClass = make([]memClass, len(blk.insts))
		for i, in := range blk.insts {
			if in.Op.IsMem() {
				base := st.a[in.Rs1]
				switch {
				case base.known:
					switch classifyAddr(base.val + uint32(in.Imm)) {
					case regionData:
						blk.memClass[i] = memData
					case regionIO:
						blk.memClass[i] = memIO
					default:
						blk.memClass[i] = memUnknown
					}
				case base.region == regionData:
					blk.memClass[i] = memData
				case base.region == regionIO:
					blk.memClass[i] = memIO
				default:
					blk.memClass[i] = memUnknown
				}
			}
			if in.Op == tc32.JI {
				if v := st.a[in.Rs1]; v.known {
					blk.jiTarget = v.val
				}
			}
			transfer(&st, in)
		}
	}
}

// transfer applies one instruction to the abstract state.
func transfer(st *absState, in tc32.Inst) {
	switch in.Op {
	case tc32.MOVI, tc32.MOVI16:
		st.d[in.Rd] = constVal(uint32(in.Imm))
	case tc32.MOVHI:
		st.d[in.Rd] = constVal(uint32(in.Imm) << 16)
	case tc32.ADDI:
		st.d[in.Rd] = addAbs(st.d[in.Rs1], constVal(uint32(in.Imm)))
	case tc32.ADDI16:
		st.d[in.Rd] = addAbs(st.d[in.Rd], constVal(uint32(in.Imm)))
	case tc32.ADD:
		st.d[in.Rd] = addAbs(st.d[in.Rs1], st.d[in.Rs2])
	case tc32.ADD16:
		st.d[in.Rd] = addAbs(st.d[in.Rd], st.d[in.Rs1])
	case tc32.ORI:
		if v := st.d[in.Rs1]; v.known {
			st.d[in.Rd] = constVal(v.val | uint32(in.Imm))
		} else {
			st.d[in.Rd] = absVal{}
		}
	case tc32.MOV, tc32.MOV16:
		st.d[in.Rd] = st.d[in.Rs1]
	case tc32.MOVHA:
		st.a[in.Rd] = constVal(uint32(in.Imm) << 16)
	case tc32.LEA:
		st.a[in.Rd] = addAbs(st.a[in.Rs1], constVal(uint32(in.Imm)))
	case tc32.ADDIA:
		st.a[in.Rd] = addAbs(st.a[in.Rs1], constVal(uint32(in.Imm)))
	case tc32.ADDA:
		st.a[in.Rd] = addAbs(st.a[in.Rs1], st.a[in.Rs2])
	case tc32.MOVD2A:
		st.a[in.Rd] = st.d[in.Rs1]
	case tc32.MOVA2D:
		st.d[in.Rd] = st.a[in.Rs1]
	case tc32.JL:
		st.a[tc32.RA] = absVal{} // rewritten to a packet index
	case tc32.LDA:
		st.a[in.Rd] = absVal{}
	default:
		// Any other register the op writes holds an unknown value.
		switch dst := in.Dst(); {
		case dst < 16:
			st.d[dst] = absVal{}
		case dst != tc32.NoReg:
			st.a[dst-16] = absVal{}
		}
	}
}
