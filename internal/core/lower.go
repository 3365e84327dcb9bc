package core

import (
	"fmt"

	"repro/internal/c6x"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tc32"
)

// tblock is a target block: a straight-line run of intermediate
// instructions that will be scheduled as one unit. A source cycle region
// maps to one or more tblocks (splits occur at runtime-routine calls and
// cache-probe calls, which branch and return mid-region).
type tblock struct {
	label   string
	ins     []sched.Ins
	defines []int // label ids resolved to this tblock's first packet
	region  int   // prog.Blocks index if this is the first tblock of a region
}

func (t *translator) newLabel() int {
	t.labelTarget = append(t.labelTarget, -1)
	return len(t.labelTarget) - 1
}

func (t *translator) newTBlock(label string, defines ...int) *tblock {
	tb := &tblock{label: label, defines: defines, region: -1}
	for _, d := range defines {
		t.labelTarget[d] = len(t.tblocks)
	}
	t.tblocks = append(t.tblocks, tb)
	return tb
}

// lowerer lowers one source cycle region into tblocks.
type lowerer struct {
	t      *translator
	blk    *srcBlock
	cur    *tblock
	nextA  int
	nextB  int
	region int
}

func (l *lowerer) emit(in sched.Ins) { l.cur.ins = append(l.cur.ins, in) }

func (l *lowerer) emitI(inst c6x.Inst) { l.emit(sched.New(inst)) }

// split ends the current tblock and begins a new one defining the given
// labels (used after calls: the new tblock is the return continuation).
func (l *lowerer) split(defines ...int) {
	l.cur = l.t.newTBlock(l.cur.label+"+", defines...)
}

func (l *lowerer) tempA() c6x.Reg {
	r := regTempA[l.nextA%len(regTempA)]
	l.nextA++
	return r
}

func (l *lowerer) tempB() c6x.Reg {
	r := regTempB[l.nextB%len(regTempB)]
	l.nextB++
	return r
}

// matConst materializes a 32-bit constant into dst (1 or 2 instructions).
func (l *lowerer) matConst(v int32, dst c6x.Reg) {
	if v >= -0x8000 && v <= 0x7FFF {
		l.emitI(c6x.Inst{Op: c6x.MVK, Dst: dst, Src2: c6x.Imm(v)})
		return
	}
	l.emitI(c6x.Inst{Op: c6x.MVK, Dst: dst, Src2: c6x.Imm(v & 0xFFFF)})
	l.emitI(c6x.Inst{Op: c6x.MVKH, Dst: dst, Src2: c6x.Imm(int32(uint32(v) >> 16))})
}

// opnd returns an operand for a signed immediate: a short constant
// directly (C6x scst5), otherwise a temporary of the given side.
func (l *lowerer) opnd(v int32, side c6x.Side) c6x.Operand {
	if v >= -16 && v <= 15 {
		return c6x.Imm(v)
	}
	var tmp c6x.Reg
	if side == c6x.SideA {
		tmp = l.tempA()
	} else {
		tmp = l.tempB()
	}
	l.matConst(v, tmp)
	return c6x.R(tmp)
}

// opndU returns an operand for a zero-extended 16-bit immediate.
func (l *lowerer) opndU(v int32, side c6x.Side) c6x.Operand {
	if v >= 0 && v <= 15 {
		return c6x.Imm(v)
	}
	var tmp c6x.Reg
	if side == c6x.SideA {
		tmp = l.tempA()
	} else {
		tmp = l.tempB()
	}
	if v <= 0x7FFF {
		l.emitI(c6x.Inst{Op: c6x.MVK, Dst: tmp, Src2: c6x.Imm(v)})
	} else {
		l.emitI(c6x.Inst{Op: c6x.MVK, Dst: tmp, Src2: c6x.Imm(v & 0xFFFF)})
		l.emitI(c6x.Inst{Op: c6x.MVKH, Dst: tmp, Src2: c6x.Imm(0)})
	}
	return c6x.R(tmp)
}

// call emits a runtime-routine call: link register setup, branch, and the
// return-continuation split.
func (l *lowerer) call(routine int) {
	ret := l.t.newLabel()
	l.emitI(c6x.Inst{Op: c6x.MVK, Dst: regLink, Src2: c6x.Imm(int32(ret)), SymImm: true})
	br := sched.New(c6x.Inst{Op: c6x.BPKT, Target: routine})
	br.Pin = sched.PinBranch
	l.emit(br)
	l.split(ret)
}

// lowerAll drives the lowering of the whole program: prologue, every
// source region in address order, then the runtime routines.
func (t *translator) lowerAll() error {
	t.prog = &Program{PacketOfSrc: map[uint32]int{}, SrcOfPacket: map[int]uint32{}}
	t.routines = map[string]int{}
	t.blockLabel = make([]int, len(t.blocks))
	for i := range t.blocks {
		t.blockLabel[i] = t.newLabel()
	}

	// Prologue: reserved-register setup, then branch to the entry region.
	pro := t.newTBlock("prologue")
	l := &lowerer{t: t, cur: pro, region: -1}
	// The sync-device base is always materialized: even untimed (Level0)
	// code reaches the platform's IRQ registers through it (ei/di/wfi/
	// reti lowerings).
	syncBase := uint32(SyncBase)
	l.matConst(int32(syncBase), regSyncBase)
	if t.opts.Level >= Level2 {
		l.emitI(c6x.Inst{Op: c6x.MVK, Dst: regCorr, Src2: c6x.Imm(0)})
	}
	if t.opts.Level >= Level3 {
		cacheBase := uint32(CacheTableBase)
		l.matConst(int32(cacheBase), regCacheTab)
	}
	ebr := sched.New(c6x.Inst{Op: c6x.BPKT, Target: t.blockLabel[t.blkAt[t.entry]]})
	ebr.Pin = sched.PinBranch
	l.emit(ebr)

	for i := range t.blocks {
		if err := t.lowerBlock(i); err != nil {
			return err
		}
	}
	return t.emitRoutines()
}

// lowerBlock lowers one source cycle region, inserting the annotations of
// the paper's Figures 2 and 3 around the translated body.
func (t *translator) lowerBlock(bi int) error {
	blk := t.blocks[bi]
	level := t.opts.Level
	info := BlockInfo{
		SrcStart:   blk.start,
		SrcEnd:     blk.end,
		SrcInsts:   len(blk.insts),
		CondBranch: blk.condBranch,
		Leader:     t.leaders[blk.start],
	}
	region := len(t.prog.Blocks)

	l := &lowerer{t: t, blk: blk, region: region}
	l.cur = t.newTBlock(fmt.Sprintf("bb_%#x", blk.start), t.blockLabel[bi])
	l.cur.region = region

	// "start cycle generation of n cycles" (Figure 2).
	if level >= Level1 {
		info.StaticCycles = blk.staticCycles
		tmp := l.tempA()
		l.matConst(int32(blk.staticCycles), tmp)
		start := sched.New(c6x.Inst{Op: c6x.STW, Data: tmp, Src1: c6x.R(regSyncBase), Src2: c6x.Imm(0), Volatile: true})
		start.Pin = sched.PinFirst
		l.emit(start)
	}

	// Body with cache analysis blocks (Figure 3 / Section 3.4.2).
	lineMask := ^uint32(t.desc.ICache.LineBytes - 1)
	curLine := uint32(0xFFFFFFFF)
	cabs := 0
	last := blk.insts[len(blk.insts)-1]
	bodyEnd := len(blk.insts)
	if last.Op.IsBranch() {
		bodyEnd--
	}
	lowerOne := func(i int, in tc32.Inst) error {
		if level >= Level3 {
			if line := in.Addr & lineMask; line != curLine {
				curLine = line
				cabs++
				l.emitProbe(line)
			}
		}
		return l.lowerInst(in, blk.memClass[i])
	}
	for i := 0; i < bodyEnd; i++ {
		if err := lowerOne(i, blk.insts[i]); err != nil {
			return err
		}
	}
	// The terminator's own fetch belongs to the last cache analysis block.
	if bodyEnd < len(blk.insts) && level >= Level3 {
		if line := last.Addr & lineMask; line != curLine {
			curLine = line
			cabs++
			l.emitProbe(line)
		}
	}
	info.CABs = cabs

	// Terminator setup: condition computation and, at level 2+, the
	// branch-prediction correction add (Section 3.4.1).
	var term *sched.Ins
	if bodyEnd < len(blk.insts) {
		ti, err := l.lowerTerminator(last, bi, level)
		if err != nil {
			return err
		}
		term = ti
	}

	// Correction block (Figure 3): flush the correction counter into the
	// running generation, then the synchronization wait.
	needFlush := level >= Level3 && cabs > 0 || level >= Level2 && blk.condBranch
	if level >= Level1 {
		if needFlush {
			if t.opts.SingleDrainCorrection {
				// Improved form: the ADD register joins the correction
				// cycles to the running generation; one drain suffices.
				l.emitI(c6x.Inst{Op: c6x.STW, Data: regCorr, Src1: c6x.R(regSyncBase), Src2: c6x.Imm(4), Volatile: true})
			} else {
				// Literal Figure 3 shape: drain the base generation,
				// start a separate correction generation, drain it.
				w1 := sched.New(c6x.Inst{Op: c6x.LDW, Dst: regWaitDummy, Src1: c6x.R(regSyncBase), Src2: c6x.Imm(0), Volatile: true})
				l.emit(w1)
				l.emitI(c6x.Inst{Op: c6x.STW, Data: regCorr, Src1: c6x.R(regSyncBase), Src2: c6x.Imm(0), Volatile: true})
			}
			l.emitI(c6x.Inst{Op: c6x.MVK, Dst: regCorr, Src2: c6x.Imm(0)})
		}
		wait := sched.New(c6x.Inst{Op: c6x.LDW, Dst: regWaitDummy, Src1: c6x.R(regSyncBase), Src2: c6x.Imm(0), Volatile: true})
		wait.Pin = sched.PinLast
		l.emit(wait)
	}
	if term != nil {
		l.emit(*term)
	}

	t.prog.Blocks = append(t.prog.Blocks, info)
	return nil
}

// lowerTerminator lowers the region's final branch/halt. It may emit
// condition and correction instructions; the returned instruction is the
// branch itself, emitted after the correction block.
func (l *lowerer) lowerTerminator(in tc32.Inst, bi int, level Level) (*sched.Ins, error) {
	t := l.t
	mkBranch := func(label int, pred c6x.Pred) *sched.Ins {
		b := sched.New(c6x.Inst{Op: c6x.BPKT, Target: label, Pred: pred})
		b.Pin = sched.PinBranch
		return &b
	}
	targetLabel := func(addr uint32) (int, error) {
		ti, ok := t.blkAt[addr]
		if !ok {
			return 0, fmt.Errorf("core: branch at %#x targets non-block %#x", in.Addr, addr)
		}
		return t.blockLabel[ti], nil
	}
	switch in.Op {
	case tc32.HALT:
		h := sched.New(c6x.Inst{Op: c6x.HALT})
		return &h, nil
	case tc32.J, tc32.J16:
		lbl, err := targetLabel(in.Target())
		if err != nil {
			return nil, err
		}
		return mkBranch(lbl, c6x.Pred{}), nil
	case tc32.JL:
		retLbl, err := targetLabel(l.blk.end)
		if err != nil {
			return nil, fmt.Errorf("core: call at %#x has no return site: %v", in.Addr, err)
		}
		l.emitI(c6x.Inst{Op: c6x.MVK, Dst: HostReg(tc32.A(tc32.RA)), Src2: c6x.Imm(int32(retLbl)), SymImm: true})
		lbl, err := targetLabel(in.Target())
		if err != nil {
			return nil, err
		}
		return mkBranch(lbl, c6x.Pred{}), nil
	case tc32.JI:
		if l.blk.jiTarget != 0xFFFFFFFF {
			lbl, err := targetLabel(l.blk.jiTarget)
			if err != nil {
				return nil, err
			}
			return mkBranch(lbl, c6x.Pred{}), nil
		}
		// Dynamic indirect jump: the register holds a source address the
		// translator could not resolve.
		return nil, fmt.Errorf("core: unresolvable indirect jump at %#x", in.Addr)
	case tc32.RET, tc32.RET16:
		b := sched.New(c6x.Inst{Op: c6x.BREG, Src1: c6x.R(HostReg(tc32.A(tc32.RA)))})
		b.Pin = sched.PinBranch
		return &b, nil
	case tc32.RETI:
		// Tell the platform to restore the interrupt state (IE and the
		// in-handler flag; a spurious reti is a platform error, exactly
		// like the ISS's), then branch through the shadow packet index
		// that interrupt entry parked in RegIRQShadow. The store's data
		// value is ignored — regSyncBase is just a register that always
		// holds a defined value.
		l.emitI(c6x.Inst{Op: c6x.STW, Data: regSyncBase, Src1: c6x.R(regSyncBase), Src2: c6x.Imm(IRQRet - SyncBase), Volatile: true})
		b := sched.New(c6x.Inst{Op: c6x.BREG, Src1: c6x.R(RegIRQShadow)})
		b.Pin = sched.PinBranch
		return &b, nil
	case tc32.WFI:
		// The wait-for-interrupt trap must reach the platform only after
		// the region's corrections are flushed and the generation has
		// drained (the clock is then exactly at the region boundary), so
		// it is pinned last like the sync wait; the scheduler places it
		// after the wait load it depends on. Execution falls through to
		// the successor region — the interrupt return target — where the
		// platform idles until delivery.
		st := sched.New(c6x.Inst{Op: c6x.STW, Data: regSyncBase, Src1: c6x.R(regSyncBase), Src2: c6x.Imm(IRQWait - SyncBase), Volatile: true})
		st.Pin = sched.PinLast
		return &st, nil
	}
	if !in.Op.IsCondBranch() {
		return nil, fmt.Errorf("core: unexpected terminator %v at %#x", in.Op, in.Addr)
	}

	// Conditional branch: compute the condition into a predicate register.
	cond := l.tempA()
	neg := false
	switch in.Op {
	case tc32.JEQ:
		l.emitI(c6x.Inst{Op: c6x.CMPEQ, Dst: cond, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.JNE:
		l.emitI(c6x.Inst{Op: c6x.CMPEQ, Dst: cond, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
		neg = true
	case tc32.JLT:
		l.emitI(c6x.Inst{Op: c6x.CMPLT, Dst: cond, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.JGE:
		l.emitI(c6x.Inst{Op: c6x.CMPLT, Dst: cond, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
		neg = true
	case tc32.JLTU:
		l.emitI(c6x.Inst{Op: c6x.CMPLTU, Dst: cond, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.JGEU:
		l.emitI(c6x.Inst{Op: c6x.CMPLTU, Dst: cond, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
		neg = true
	case tc32.JZ:
		l.emitI(c6x.Inst{Op: c6x.CMPEQ, Dst: cond, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.Imm(0)})
	case tc32.JNZ:
		l.emitI(c6x.Inst{Op: c6x.CMPEQ, Dst: cond, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.Imm(0)})
		neg = true
	case tc32.JZ16:
		l.emitI(c6x.Inst{Op: c6x.CMPEQ, Dst: cond, Src1: c6x.R(HostReg(tc32.D(tc32.ImplicitCond))), Src2: c6x.Imm(0)})
	case tc32.JNZ16:
		l.emitI(c6x.Inst{Op: c6x.CMPEQ, Dst: cond, Src1: c6x.R(HostReg(tc32.D(tc32.ImplicitCond))), Src2: c6x.Imm(0)})
		neg = true
	}

	// Dynamic branch-prediction correction (Section 3.4.1): when the
	// actual direction differs from the static prediction, add the
	// mispredict-minus-base cycles to the correction counter.
	if level >= Level2 {
		pred := l.blk.predTaken
		corr := int32(t.desc.CondBranchCorrection(pred, !pred))
		if corr > 0 {
			// Correction fires when taken != predicted. taken = (cond!=0) != neg.
			corrNeg := neg
			if pred {
				corrNeg = !corrNeg // correction when NOT taken
			}
			l.emitI(c6x.Inst{
				Op: c6x.ADD, Dst: regCorr,
				Src1: c6x.R(regCorr), Src2: c6x.Imm(corr),
				Pred: c6x.Pred{Valid: true, Reg: cond, Neg: corrNeg},
			})
		}
	}

	lbl, err := targetLabel(in.Target())
	if err != nil {
		return nil, err
	}
	return mkBranch(lbl, c6x.Pred{Valid: true, Reg: cond, Neg: neg}), nil
}

// emitProbe emits a cache-analysis-block probe: the tag/valid word and the
// set offset as arguments, then a call into the generated cache
// simulation subroutine (Figure 4). In large basic blocks the probe can
// be inlined instead, "making the subroutine call unnecessary"
// (Section 3.4.2).
func (l *lowerer) emitProbe(lineAddr uint32) {
	g := l.t.desc.ICache
	lineBits := bitsOf(g.LineBytes)
	setBits := bitsOf(g.Sets)
	set := (lineAddr >> lineBits) & uint32(g.Sets-1)
	tag := lineAddr >> (lineBits + setBits)
	tagWord := int32(0x8000_0000 | tag)
	// Per-set stride: the compact [ways..., lru] layout for 1-/2-way
	// geometries, [tags..., ages...] for wider ones (see emitProbeNWay).
	stride := int32(g.Ways + 1)
	if g.Ways > 2 {
		stride = int32(2 * g.Ways)
	}
	setOff := int32(set) * stride * 4
	if l.t.opts.InlineCacheProbe && len(l.blk.insts) >= l.t.opts.InlineCacheThreshold && g.Ways == 2 {
		obsProbeInline.Inc()
		l.emitProbeInline(tagWord, setOff)
		return
	}
	obsProbeCall.Inc()
	l.matConst(tagWord, regArg0)
	l.matConst(setOff, regArg1)
	l.call(l.t.routineLabel("probe"))
}

// Probe-site telemetry: the translator's static fast/slow split — how
// many cache-analysis-block probes were inlined into the block (the
// fast path, no call/return branches) versus emitted as subroutine
// calls. Counted at translation time, so the generated code and the
// simulation hot loop stay telemetry-free.
var (
	obsProbeInline = obs.Default.Counter("cabt_translate_probe_sites_total",
		"cache-probe sites emitted, by kind", "kind", "inline")
	obsProbeCall = obs.Default.Counter("cabt_translate_probe_sites_total",
		"cache-probe sites emitted, by kind", "kind", "call")
)

// emitProbeInline expands the two-way cache probe into the block itself:
// the same tag/valid/LRU algorithm as the subroutine, but without the
// call and return branches (each 1+5 cycles).
func (l *lowerer) emitProbeInline(tagWord, setOff int32) {
	t := l.t
	hit0 := t.newLabel()
	hit1 := t.newLabel()
	repl0 := t.newLabel()
	done := t.newLabel()
	s0, s2, s3 := regScratch[0], regScratch[2], regScratch[3]

	branch := func(target int, p c6x.Pred) {
		b := sched.New(c6x.Inst{Op: c6x.BPKT, Target: target, Pred: p})
		b.Pin = sched.PinBranch
		l.emit(b)
	}
	l.matConst(tagWord, regArg0)
	l.emitI(c6x.Inst{Op: c6x.ADD, Dst: regBScr0, Src1: c6x.R(regCacheTab), Src2: l.opnd(setOff, c6x.SideB)})
	l.emitI(c6x.Inst{Op: c6x.LDW, Dst: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(0)})
	l.emitI(c6x.Inst{Op: c6x.LDW, Dst: regArg1, Src1: c6x.R(regBScr0), Src2: c6x.Imm(4)})
	l.emitI(c6x.Inst{Op: c6x.CMPEQ, Dst: s2, Src1: c6x.R(s0), Src2: c6x.R(regArg0)})
	branch(hit0, c6x.Pred{Valid: true, Reg: s2})
	l.split()
	l.emitI(c6x.Inst{Op: c6x.CMPEQ, Dst: s3, Src1: c6x.R(regArg1), Src2: c6x.R(regArg0)})
	branch(hit1, c6x.Pred{Valid: true, Reg: s3})
	l.split()
	// Miss: replace the LRU way, add the penalty.
	pen := int32(t.desc.ICache.MissPenalty)
	l.emitI(c6x.Inst{Op: c6x.LDW, Dst: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(8)})
	l.emitI(c6x.Inst{Op: c6x.CMPEQ, Dst: s2, Src1: c6x.R(s0), Src2: c6x.Imm(0)})
	branch(repl0, c6x.Pred{Valid: true, Reg: s2})
	l.split()
	l.emitI(c6x.Inst{Op: c6x.STW, Data: regArg0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(4)})
	l.emitI(c6x.Inst{Op: c6x.MVK, Dst: s0, Src2: c6x.Imm(0)})
	l.emitI(c6x.Inst{Op: c6x.STW, Data: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(8)})
	l.emitI(c6x.Inst{Op: c6x.ADD, Dst: regCorr, Src1: c6x.R(regCorr), Src2: c6x.Imm(pen)})
	branch(done, c6x.Pred{})
	l.split(repl0)
	l.emitI(c6x.Inst{Op: c6x.STW, Data: regArg0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(0)})
	l.emitI(c6x.Inst{Op: c6x.MVK, Dst: s0, Src2: c6x.Imm(1)})
	l.emitI(c6x.Inst{Op: c6x.STW, Data: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(8)})
	l.emitI(c6x.Inst{Op: c6x.ADD, Dst: regCorr, Src1: c6x.R(regCorr), Src2: c6x.Imm(pen)})
	branch(done, c6x.Pred{})
	l.split(hit0)
	l.emitI(c6x.Inst{Op: c6x.MVK, Dst: s0, Src2: c6x.Imm(1)})
	l.emitI(c6x.Inst{Op: c6x.STW, Data: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(8)})
	branch(done, c6x.Pred{})
	l.split(hit1)
	l.emitI(c6x.Inst{Op: c6x.MVK, Dst: s0, Src2: c6x.Imm(0)})
	l.emitI(c6x.Inst{Op: c6x.STW, Data: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(8)})
	// Falls through to the continuation.
	l.split(done)
}

func bitsOf(v int) uint {
	n := uint(0)
	for 1<<n < v {
		n++
	}
	return n
}
