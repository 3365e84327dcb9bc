package c6x

import (
	"fmt"
	"sort"
)

// This file is the superblock (fused) execution engine: a region-graph
// compiler that traces the translated program across execute packets —
// and across cycle-region boundaries — folding the per-packet epilogue
// (cycle accounting, stats, writeback commit scans, branch-delay
// bookkeeping) into straight-line chains of closures with the constant
// parts pre-added at fuse time. Where the compiled engine (compile.go)
// pays a dispatch and a commit scan per packet, the fused engine pays
// one constant-folded accounting closure per segment and dispatches
// only at control-flow splits, so steady-state loops never return to
// the caller's region dispatcher.
//
// The fuser is a tiny abstract interpreter over the scheduler's
// machine-state contract: it tracks the branch-delay counter, the
// in-flight writeback window and (for the registers in
// FuseConfig.ConstRegs) MVK/MVKH-built constants symbolically, forking
// compiled segments at predicated branches and chaining them at
// resolved ones. Anything outside the contract — a read of an
// in-flight register, an unresolvable indirect branch, an op with no
// kernel, overlapping branches — ends the segment with a deoptimization
// exit that materializes the exact interpreter state (pc, pending
// writebacks, branch state, clocks, stats) and hands control back to
// the generic engines, which reproduce the oracle behavior including
// its error texts. Bit-identity with Step is the invariant every
// fusing rule below preserves; the differential tests in fuse_test.go
// and the platform matrix enforce it.
//
// Known, deliberate inexactness: when a memory op faults mid-segment
// the error value (packet, cycle, text) is exact, but the statistics
// counters lag by the packets folded since the last synchronization
// point. Errors are terminal, so no caller observes the difference.

const (
	// fuseMaxSlots bounds the in-flight writeback values a segment can
	// hold in the Sim's fixed slot array (the deepest translator output
	// keeps a handful in flight; overflow deoptimizes).
	fuseMaxSlots = 16
	// fuseMaxSegPackets bounds one segment's trace length; longer
	// straight-line runs chain through a continuation segment.
	fuseMaxSegPackets = 64
	// fuseDefaultMaxSegments bounds the total compiled segments
	// (distinct packet × machine-state pairs) before Fuse gives up.
	fuseDefaultMaxSegments = 16384
)

// FuseConfig parameterizes superblock compilation.
type FuseConfig struct {
	// RegionOf maps each packet index to the cycle region starting
	// there (-1 elsewhere). Region starts are the segment boundaries
	// where the runner's hook fires (interrupt delivery points, trace,
	// clock checks) and the only re-entry points after a deopt.
	RegionOf []int32
	// ConstRegs are registers whose MVK/MVKH-built values the fuser
	// tracks symbolically to resolve indirect branches (the translator's
	// link register and the source return-address register).
	ConstRegs []Reg
	// MaxSegments overrides fuseDefaultMaxSegments when positive.
	MaxSegments int
}

// fop is one compiled fused operation.
type fop func(s *Sim) error

// finflight is one in-flight writeback tracked symbolically: its value
// lives in fslotVal[slot] at run time, landing rel busy-cycles after
// the segment boundary it is relative to. pred marks a predicated
// producer whose execution is recorded in fslotOn[slot].
type finflight struct {
	reg  Reg
	rel  int64
	slot uint8
	pred bool
}

// fbr is the symbolic branch-delay state.
type fbr struct {
	valid bool
	tgt   int
	cnt   int
}

// ffact is a known register constant (MVK/MVKH tracking).
type ffact struct {
	reg Reg
	val uint32
}

// fstate is the symbolic machine state keying a segment: the packet the
// trace continues at, the branch-delay state, the in-flight writeback
// window (rel relative to the state's busy clock) and the known
// constants. Two traces reaching one packet in the same state share a
// segment.
type fstate struct {
	pkt      int
	br       fbr
	inflight []finflight
	facts    []ffact
}

func (st *fstate) key() string {
	b := make([]byte, 0, 12+10*len(st.inflight)+5*len(st.facts))
	put := func(v uint32) {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	put(uint32(st.pkt))
	if st.br.valid {
		b = append(b, 1)
		put(uint32(st.br.tgt))
		put(uint32(st.br.cnt))
	} else {
		b = append(b, 0)
	}
	b = append(b, byte(len(st.inflight)))
	for _, fi := range st.inflight {
		flag := byte(0)
		if fi.pred {
			flag = 1
		}
		b = append(b, byte(fi.reg), fi.slot, flag)
		put(uint32(fi.rel))
	}
	for _, fa := range st.facts {
		b = append(b, byte(fa.reg))
		put(fa.val)
	}
	return string(b)
}

// fseg is one compiled segment.
type fseg struct {
	pkt      int  // packet the segment's state sits at (pc at its boundary)
	boundary bool // sits at a region start: the runner hook fires here
	noEnter  bool // zero-progress (deopts immediately): not a re-entry point
	entryBr  fbr
	// entryFlush is the in-flight window at segment entry, flushed into
	// Sim.pending when the hook stops or redirects execution here and
	// matched against it on (re-)entry; entryFacts are the constants the
	// segment was compiled under.
	entryFlush []finflight
	entryFacts []ffact
	ops        []fop
}

// FusedProgram is the superblock-compiled form of a Program. Immutable
// after Fuse and safe to share across Sims (closures only touch the Sim
// passed to them).
type FusedProgram struct {
	prog *Program
	segs []*fseg
	// The entry index: the segments execution can enter at packet p are
	// cands[candStart[p]:candStart[p+1]] — every boundary segment the
	// traces reached there, most facts first, the clean-state seed among
	// them. Dense offsets rather than a map: the lookup runs before every
	// generic step, and two bounds-checked loads beat a hash there.
	candStart []int32
	cands     []int32
	entries   int
}

// Segments returns the number of compiled segments (introspection).
func (fp *FusedProgram) Segments() int { return len(fp.segs) }

// Entries returns the number of clean re-entry points.
func (fp *FusedProgram) Entries() int { return fp.entries }

// candidates returns the segments enterable at packet pc.
func (fp *FusedProgram) candidates(pc int) []int32 {
	if pc < 0 || pc+1 >= len(fp.candStart) {
		return nil
	}
	return fp.cands[fp.candStart[pc]:fp.candStart[pc+1]]
}

// fuser is the segment compiler.
type fuser struct {
	prog    *Program
	cfg     FuseConfig
	maxSegs int
	segs    []*fseg
	states  []fstate
	index   map[string]int32
	work    []int32
	seeds   map[int]int32 // seed packet -> segment index
}

// Fuse compiles prog into superblock segments. Programs with malformed
// packets are rejected (like Compile); a program whose control flow
// explodes the segment budget returns an error, and the caller runs
// unfused.
func Fuse(prog *Program, cfg FuseConfig) (*FusedProgram, error) {
	for i, pk := range prog.Packets {
		if msg := issueViolation(pk); msg != "" {
			return nil, &SimError{Packet: i, Msg: msg}
		}
	}
	f := &fuser{
		prog:    prog,
		cfg:     cfg,
		maxSegs: cfg.MaxSegments,
		index:   map[string]int32{},
		seeds:   map[int]int32{},
	}
	if f.maxSegs <= 0 {
		f.maxSegs = fuseDefaultMaxSegments
	}
	// Seeds: the program entry and every region start, in clean state.
	f.seeds[prog.Entry] = f.state(fstate{pkt: prog.Entry})
	for pkt, ri := range cfg.RegionOf {
		if ri >= 0 {
			if _, ok := f.seeds[pkt]; !ok {
				f.seeds[pkt] = f.state(fstate{pkt: pkt})
			}
		}
	}
	for len(f.work) > 0 {
		if len(f.segs) > f.maxSegs {
			return nil, fmt.Errorf("c6x: fuse: segment budget exceeded (%d)", f.maxSegs)
		}
		si := f.work[len(f.work)-1]
		f.work = f.work[:len(f.work)-1]
		f.compileSeg(si)
	}
	fp := &FusedProgram{prog: prog, segs: f.segs}
	for _, si := range f.seeds {
		if !f.segs[si].noEnter {
			fp.entries++
		}
	}
	// Index the enterable segments per packet: those sitting where the
	// generic engines hand control back (region starts and the program
	// entry) that make progress, the one compiled under the most facts
	// first so a re-entry keeps resolving the indirect branches its trace
	// resolved (ties in the deterministic interning order).
	for si, seg := range f.segs {
		if !seg.noEnter && (seg.boundary || seg.pkt == prog.Entry) && seg.pkt >= 0 && seg.pkt < len(prog.Packets) {
			fp.cands = append(fp.cands, int32(si))
		}
	}
	sort.SliceStable(fp.cands, func(i, j int) bool {
		a, b := f.segs[fp.cands[i]], f.segs[fp.cands[j]]
		if a.pkt != b.pkt {
			return a.pkt < b.pkt
		}
		return len(a.entryFacts) > len(b.entryFacts)
	})
	fp.candStart = make([]int32, len(prog.Packets)+1)
	for _, si := range fp.cands {
		fp.candStart[f.segs[si].pkt+1]++
	}
	for p := 1; p < len(fp.candStart); p++ {
		fp.candStart[p] += fp.candStart[p-1]
	}
	return fp, nil
}

// state interns a symbolic state, scheduling compilation on first use.
func (f *fuser) state(st fstate) int32 {
	k := st.key()
	if si, ok := f.index[k]; ok {
		return si
	}
	si := int32(len(f.segs))
	f.index[k] = si
	f.segs = append(f.segs, &fseg{})
	f.states = append(f.states, st)
	f.work = append(f.work, si)
	return si
}

func (f *fuser) regionAt(pkt int) int32 {
	if pkt >= 0 && pkt < len(f.cfg.RegionOf) {
		return f.cfg.RegionOf[pkt]
	}
	return -1
}

// fctx is the per-segment compilation context: the working symbolic
// state plus the accumulators the next synchronization op will fold
// into the Sim.
type fctx struct {
	f   *fuser
	seg *fseg

	busy     int64 // busy offset since segment entry
	br       fbr
	inflight []finflight
	facts    []ffact
	slots    uint32 // bitmask of live slots

	accCyc, accPkts, accInsts, accNop int64
	memSeen                           bool // a mem op ran since the last sync (fstall may be pending)
	progress                          bool
}

// compileSeg compiles the segment for state index si.
func (f *fuser) compileSeg(si int32) {
	st := f.states[si]
	seg := f.segs[si]
	seg.pkt = st.pkt
	seg.entryBr = st.br
	seg.entryFlush = append([]finflight(nil), st.inflight...)
	seg.entryFacts = st.facts
	seg.boundary = f.regionAt(st.pkt) >= 0

	c := &fctx{
		f:        f,
		seg:      seg,
		br:       st.br,
		inflight: append([]finflight(nil), st.inflight...),
		facts:    append([]ffact(nil), st.facts...),
	}
	for _, fi := range st.inflight {
		c.slots |= 1 << fi.slot
	}

	pkt := st.pkt
	pkts := 0
	for {
		if pkt < 0 || pkt >= len(f.prog.Packets) {
			// Out of range: deopt; the generic engine produces the exact
			// "fell off the program" error.
			c.exitDeopt(pkt)
			break
		}
		if pkt != st.pkt && f.regionAt(pkt) >= 0 {
			// Region boundary: end the segment so the runner hook fires.
			c.termJump(c.stateAt(pkt))
			break
		}
		if pkts >= fuseMaxSegPackets {
			c.termJump(c.stateAt(pkt))
			break
		}
		pl, ok := c.plan(pkt, f.prog.Packets[pkt])
		if !ok {
			c.exitDeopt(pkt)
			break
		}
		pkts++
		c.emit(pkt, pl)
		c.progress = true
		if done := c.terminal(pkt, pl); done {
			break
		}
		pkt = pl.next
	}
	seg.noEnter = !c.progress
}

// stateAt interns the continuation state at pkt with the current
// symbolic machine state (rels rebased to the new segment's entry).
func (c *fctx) stateAt(pkt int) int32 {
	st := fstate{pkt: pkt, br: c.br}
	for _, fi := range c.inflight {
		fi.rel -= c.busy
		st.inflight = append(st.inflight, fi)
	}
	st.facts = append(st.facts, c.facts...)
	return c.f.state(st)
}

// fwrite is one planned register write of a packet.
type fwrite struct {
	inst      int // index into the packet's insts
	reg       Reg
	commitOff int64
	direct    bool
	slot      uint8
	pred      bool
}

// fplan is the static execution plan of one packet.
type fplan struct {
	hasMem  bool
	busyPk  int64
	busyEff int64
	nop     int64
	uncond  int64 // unpredicated executed instructions (folded count)

	writes []fwrite
	due    []finflight // commits landing at this packet's end, in order
	keep   []finflight // still in flight afterwards

	condBr    bool // predicated branch issued (fork at terminal)
	brTgt     int  // static branch target if a branch issues
	halt      bool // unpredicated HALT
	haltCond  bool // predicated HALT
	fired     bool // unpredicated branch fires at this packet's end
	firedTgt  int
	brAfter   fbr // branch state after this packet (not-taken path for condBr)
	brTaken   fbr // branch state after this packet on the taken path (condBr)
	killFacts []Reg
	setFact   *ffact
	next      int // fallthrough packet
}

// readsOf appends the registers inst reads at issue (the strict
// in-flight contract set: predicate registers unconditionally, operand
// registers per the interpreter's Step switch).
func readsOf(in Inst, dst []Reg) []Reg {
	if in.Pred.Valid {
		dst = append(dst, in.Pred.Reg)
	}
	switch {
	case in.Op == NOP, in.Op == HALT, in.Op == BPKT:
	case in.Op == BREG:
		if !in.Src1.IsImm {
			dst = append(dst, in.Src1.Reg)
		}
	case in.Op.IsLoad():
		if !in.Src1.IsImm {
			dst = append(dst, in.Src1.Reg)
		}
	case in.Op.IsStore():
		if !in.Src1.IsImm {
			dst = append(dst, in.Src1.Reg)
		}
		dst = append(dst, in.Data)
	default:
		if in.Op.ReadsSrc1() && !in.Src1.IsImm {
			dst = append(dst, in.Src1.Reg)
		}
		if in.Op.ReadsSrc2() && !in.Src2.IsImm {
			dst = append(dst, in.Src2.Reg)
		}
		if in.Op == MVKH {
			dst = append(dst, in.Dst)
		}
	}
	return dst
}

// fact returns the tracked constant of r, if known.
func (c *fctx) fact(r Reg) (uint32, bool) {
	for _, fa := range c.facts {
		if fa.reg == r {
			return fa.val, true
		}
	}
	return 0, false
}

func (c *fctx) tracked(r Reg) bool {
	for _, tr := range c.f.cfg.ConstRegs {
		if tr == r {
			return true
		}
	}
	return false
}

// plan statically simulates one packet against the symbolic state. A
// false result means the packet (in this state) is outside the fusable
// contract and the segment must deoptimize before it.
func (c *fctx) plan(pkt int, pk Packet) (fplan, bool) {
	var pl fplan
	pl.next = pkt + 1
	pl.busyPk = int64(pk.Cycles())
	if n := pk.Cycles(); n > 1 {
		pl.nop = int64(n - 1)
	}

	// Strict in-flight read contract: any read of an in-flight register
	// deopts (the generic engine errors, or proceeds when not strict).
	var readBuf [16]Reg
	reads := readBuf[:0]
	for _, in := range pk.Insts {
		reads = readsOf(in, reads)
	}
	for _, r := range reads {
		for _, fi := range c.inflight {
			if fi.reg == r {
				return pl, false
			}
		}
	}

	branches := 0
	for idx, in := range pk.Insts {
		if in.Op != NOP && !in.Pred.Valid {
			pl.uncond++
		}
		switch {
		case in.Op == NOP:
		case in.Op == HALT:
			if in.Pred.Valid {
				pl.haltCond = true
			} else {
				pl.halt = true
			}
		case in.Op == BPKT || in.Op == BREG:
			branches++
			if branches > 1 || c.br.valid {
				return pl, false // overlap: generic reproduces the strict error
			}
			tgt := in.Target
			if in.Op == BREG {
				if in.Src1.IsImm {
					tgt = int(in.Src1.Imm)
				} else {
					v, known := c.fact(in.Src1.Reg)
					if !known {
						return pl, false // unresolvable indirect branch
					}
					tgt = int(int32(v))
				}
			}
			pl.brTgt = tgt
			if in.Pred.Valid {
				pl.condBr = true
			}
		case in.Op.IsLoad(), in.Op.IsStore():
			pl.hasMem = true
			if in.Op.IsLoad() {
				pl.writes = append(pl.writes, fwrite{
					inst: idx, reg: in.Dst,
					commitOff: c.busy + int64(in.Op.Latency()),
					pred:      in.Pred.Valid,
				})
			}
		default:
			if in.Op != MVK && in.Op != MVKH && unaryKernel(in.Op) == nil && binaryKernel(in.Op) == nil {
				return pl, false // no kernel (INVALID etc.): generic errors
			}
			pl.writes = append(pl.writes, fwrite{
				inst: idx, reg: in.Dst,
				commitOff: c.busy + int64(in.Op.Latency()),
				pred:      in.Pred.Valid,
			})
		}
	}

	// Cycle accounting: a pending branch shortens a multi-cycle NOP. The
	// only path-dependent case (a predicated branch in a packet whose
	// busy differs by takenness) cannot come from the scheduler; deopt.
	pl.busyEff = pl.busyPk
	if c.br.valid && int64(c.br.cnt) < pl.busyEff {
		pl.busyEff = int64(c.br.cnt)
	}
	if pl.condBr {
		takenEff := pl.busyPk
		if int64(BranchDelay+1) < takenEff {
			takenEff = int64(BranchDelay + 1)
		}
		if takenEff != pl.busyEff {
			return pl, false
		}
	}
	busyAfter := c.busy + pl.busyEff

	// Writeback window: split due/keep in pending order, stable-sort due
	// by commit cycle, detect same-cycle collisions (deopt: the generic
	// engine produces the exact strict error), decide direct writes.
	var all []finflight
	all = append(all, c.inflight...)
	for wi := range pl.writes {
		w := &pl.writes[wi]
		// A direct write (straight to Regs at issue) is legal when the
		// commit lands exactly at this packet's end, no same-packet
		// instruction reads the register, and no other write to it is
		// in flight or planned — otherwise commit order matters and the
		// value goes through a slot.
		w.direct = w.commitOff == busyAfter
		if w.direct {
			for _, r := range reads {
				if r == w.reg {
					w.direct = false
					break
				}
			}
		}
		if w.direct {
			for _, fi := range c.inflight {
				if fi.reg == w.reg {
					w.direct = false
					break
				}
			}
			for oi := range pl.writes {
				if oi != wi && pl.writes[oi].reg == w.reg {
					w.direct = false
					break
				}
			}
		}
		if !w.direct {
			slot := -1
			for b := 0; b < fuseMaxSlots; b++ {
				if c.slots&(1<<b) == 0 {
					slot = b
					break
				}
			}
			if slot < 0 {
				return pl, false // slot pressure: deopt
			}
			c.slots |= 1 << slot // provisional; freed on commit or rolled back by caller discipline
			w.slot = uint8(slot)
			all = append(all, finflight{reg: w.reg, rel: w.commitOff, slot: w.slot, pred: w.pred})
		}
	}
	for _, fi := range all {
		if fi.rel <= busyAfter {
			pl.due = append(pl.due, fi)
		} else {
			pl.keep = append(pl.keep, fi)
		}
	}
	sort.SliceStable(pl.due, func(i, j int) bool { return pl.due[i].rel < pl.due[j].rel })
	for i := range pl.due {
		for j := i + 1; j < len(pl.due); j++ {
			if pl.due[i].reg == pl.due[j].reg && pl.due[i].rel == pl.due[j].rel {
				return pl, false // writeback collision: generic reproduces it
			}
		}
	}

	// Facts: kills first (any write to a tracked register), then the
	// MVK/MVKH set when the new value is statically known.
	for wi := range pl.writes {
		if c.tracked(pl.writes[wi].reg) {
			pl.killFacts = append(pl.killFacts, pl.writes[wi].reg)
		}
	}
	for _, in := range pk.Insts {
		if (in.Op != MVK && in.Op != MVKH) || in.Pred.Valid || !c.tracked(in.Dst) {
			continue
		}
		// The value must land this packet (lat 1 always does), be the
		// only write to the register in flight, and be computable.
		solo := true
		for _, fi := range pl.keep {
			if fi.reg == in.Dst {
				solo = false
			}
		}
		writers := 0
		for _, w := range pl.writes {
			if w.reg == in.Dst {
				writers++
			}
		}
		if !solo || writers != 1 {
			continue
		}
		switch in.Op {
		case MVK:
			pl.setFact = &ffact{reg: in.Dst, val: uint32(int32(int16(in.Src2.Imm)))}
		case MVKH:
			if old, known := c.fact(in.Dst); known {
				pl.setFact = &ffact{reg: in.Dst, val: old&0xFFFF | uint32(in.Src2.Imm)<<16}
			}
		}
	}

	// Branch bookkeeping after this packet.
	pl.brAfter = c.br
	if branches == 1 && !pl.condBr {
		pl.brAfter = fbr{valid: true, tgt: pl.brTgt, cnt: BranchDelay + 1}
	}
	if pl.brAfter.valid {
		pl.brAfter.cnt -= int(pl.busyEff)
		if pl.brAfter.cnt <= 0 {
			if !pl.condBr {
				pl.fired = true
				pl.firedTgt = pl.brAfter.tgt
			}
			pl.brAfter = fbr{}
		}
	}
	if pl.condBr {
		pl.brTaken = fbr{valid: true, tgt: pl.brTgt, cnt: BranchDelay + 1 - int(pl.busyEff)}
		if pl.brTaken.cnt <= 0 {
			// Degenerate: a predicated branch firing at its own packet end
			// (busy ≥ 6) cannot come from the scheduler; deopt.
			return pl, false
		}
	}
	return pl, true
}

// emit lowers the planned packet into ops and advances the symbolic
// state. Issue ops run in instruction order, then the due commits in
// their sorted order, exactly like the interpreter's packet epilogue.
func (c *fctx) emit(pkt int, pl fplan) {
	pk := c.f.prog.Packets[pkt]
	if pl.hasMem {
		c.emitSync()
	}
	wi := 0
	for idx, in := range pk.Insts {
		var w *fwrite
		if wi < len(pl.writes) && pl.writes[wi].inst == idx {
			w = &pl.writes[wi]
			wi++
		}
		c.emitInst(pkt, in, w)
	}
	if pl.hasMem {
		c.memSeen = true
	}

	// Commit ops, in due order.
	for _, fi := range pl.due {
		slot, reg := fi.slot, fi.reg
		if fi.pred {
			c.seg.ops = append(c.seg.ops, func(s *Sim) error {
				if s.fslotOn[slot] {
					s.Regs[reg] = s.fslotVal[slot]
				}
				return nil
			})
		} else {
			c.seg.ops = append(c.seg.ops, func(s *Sim) error {
				s.Regs[reg] = s.fslotVal[slot]
				return nil
			})
		}
		c.slots &^= 1 << slot
	}

	// Fold the accounting constants.
	c.accCyc += pl.busyEff
	c.accPkts++
	c.accInsts += pl.uncond
	c.accNop += pl.nop
	c.busy += pl.busyEff
	c.inflight = append(c.inflight[:0], pl.keep...)

	// Facts.
	for _, r := range pl.killFacts {
		for i := 0; i < len(c.facts); i++ {
			if c.facts[i].reg == r {
				c.facts = append(c.facts[:i], c.facts[i+1:]...)
				i--
			}
		}
	}
	if pl.setFact != nil {
		c.facts = append(c.facts, *pl.setFact)
		sort.Slice(c.facts, func(i, j int) bool { return c.facts[i].reg < c.facts[j].reg })
	}
}

// terminal emits the segment terminal the packet requires, returning
// whether the segment ends here. The branch state advance (brAfter /
// taken-fork / fire) was computed by plan.
func (c *fctx) terminal(pkt int, pl fplan) bool {
	switch {
	case pl.halt:
		c.br = pl.brAfter
		exitPC := pl.next
		if pl.fired {
			exitPC = pl.firedTgt
		}
		c.exitHalt(exitPC)
		return true
	case pl.haltCond:
		// Runtime fork on s.halted (set by the guarded HALT op). The
		// continuation pc is the same either way (fallthrough, or the
		// target of a pre-existing branch firing at this packet's end).
		c.br = pl.brAfter
		next := pl.next
		if pl.fired {
			next = pl.firedTgt
		}
		c.termHaltCond(next, c.stateAt(next))
		return true
	case pl.condBr:
		c.br = pl.brTaken
		taken := c.stateAt(pl.next)
		c.br = pl.brAfter
		fallSeg := c.stateAt(pl.next)
		c.termCond(taken, fallSeg)
		return true
	case pl.fired:
		c.br = fbr{}
		c.termJump(c.stateAt(pl.firedTgt))
		return true
	default:
		c.br = pl.brAfter
		return false
	}
}

// take drains the accounting accumulators for a terminal/sync op.
func (c *fctx) take() (cyc, pkts, insts, nop int64) {
	cyc, pkts, insts, nop = c.accCyc, c.accPkts, c.accInsts, c.accNop
	c.accCyc, c.accPkts, c.accInsts, c.accNop = 0, 0, 0, 0
	c.memSeen = false
	return
}

// emitSync folds the accumulated constants into the Sim — the constant
// part of every interpreted packet epilogue since the last sync point,
// paid once. Memory stalls collected in fstall freeze the cycle clock
// exactly like the interpreter's per-packet stall accounting.
func (c *fctx) emitSync() {
	if c.accCyc == 0 && c.accPkts == 0 && !c.memSeen {
		return
	}
	cyc, pkts, insts, nop := c.take()
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		s.cycle += cyc + s.fstall
		s.busy += cyc
		s.stats.StallCycles += s.fstall
		s.fstall = 0
		s.stats.Packets += pkts
		s.stats.Instructions += insts
		s.stats.NopCycles += nop
		return nil
	})
}

// flushOps returns the runtime flush of the current in-flight window
// (rels rebased to the exit's busy clock).
func (c *fctx) flushList() []finflight {
	var fl []finflight
	for _, fi := range c.inflight {
		fi.rel -= c.busy
		fl = append(fl, fi)
	}
	return fl
}

// exitDeopt materializes the exact interpreter state at pkt and leaves
// fused execution (fnext = -1).
func (c *fctx) exitDeopt(pkt int) {
	cyc, pkts, insts, nop := c.take()
	fl := c.flushList()
	br := c.br
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		s.cycle += cyc + s.fstall
		s.busy += cyc
		s.stats.StallCycles += s.fstall
		s.fstall = 0
		s.stats.Packets += pkts
		s.stats.Instructions += insts
		s.stats.NopCycles += nop
		for _, fi := range fl {
			if fi.pred && !s.fslotOn[fi.slot] {
				continue
			}
			s.pending = append(s.pending, writeback{reg: fi.reg, val: s.fslotVal[fi.slot], commitAt: s.busy + fi.rel})
		}
		s.pc = pkt
		if br.valid {
			s.brValid, s.brTgt, s.brCnt = true, br.tgt, br.cnt
		}
		s.fnext = -1
		return nil
	})
}

// exitHalt materializes the halted state (HALT executed this packet).
func (c *fctx) exitHalt(exitPC int) {
	cyc, pkts, insts, nop := c.take()
	fl := c.flushList()
	br := c.br
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		s.cycle += cyc + s.fstall
		s.busy += cyc
		s.stats.StallCycles += s.fstall
		s.fstall = 0
		s.stats.Packets += pkts
		s.stats.Instructions += insts
		s.stats.NopCycles += nop
		s.halted = true
		for _, fi := range fl {
			if fi.pred && !s.fslotOn[fi.slot] {
				continue
			}
			s.pending = append(s.pending, writeback{reg: fi.reg, val: s.fslotVal[fi.slot], commitAt: s.busy + fi.rel})
		}
		s.pc = exitPC
		if br.valid {
			s.brValid, s.brTgt, s.brCnt = true, br.tgt, br.cnt
		}
		s.fnext = -1
		return nil
	})
}

// termHaltCond forks at run time on whether the guarded HALT executed.
func (c *fctx) termHaltCond(exitPC int, fall int32) {
	cyc, pkts, insts, nop := c.take()
	fl := c.flushList()
	br := c.br
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		s.cycle += cyc + s.fstall
		s.busy += cyc
		s.stats.StallCycles += s.fstall
		s.fstall = 0
		s.stats.Packets += pkts
		s.stats.Instructions += insts
		s.stats.NopCycles += nop
		if !s.halted {
			s.fnext = fall
			return nil
		}
		for _, fi := range fl {
			if fi.pred && !s.fslotOn[fi.slot] {
				continue
			}
			s.pending = append(s.pending, writeback{reg: fi.reg, val: s.fslotVal[fi.slot], commitAt: s.busy + fi.rel})
		}
		s.pc = exitPC
		if br.valid {
			s.brValid, s.brTgt, s.brCnt = true, br.tgt, br.cnt
		}
		s.fnext = -1
		return nil
	})
}

// termCond forks on the predicated branch issued this packet (fcond0
// was set by its issue op).
func (c *fctx) termCond(taken, fall int32) {
	cyc, pkts, insts, nop := c.take()
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		s.cycle += cyc + s.fstall
		s.busy += cyc
		s.stats.StallCycles += s.fstall
		s.fstall = 0
		s.stats.Packets += pkts
		s.stats.Instructions += insts
		s.stats.NopCycles += nop
		if s.fcond0 {
			s.fnext = taken
		} else {
			s.fnext = fall
		}
		return nil
	})
}

// termJump chains to the next segment.
func (c *fctx) termJump(next int32) {
	cyc, pkts, insts, nop := c.take()
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		s.cycle += cyc + s.fstall
		s.busy += cyc
		s.stats.StallCycles += s.fstall
		s.fstall = 0
		s.stats.Packets += pkts
		s.stats.Instructions += insts
		s.stats.NopCycles += nop
		s.fnext = next
		return nil
	})
}

// emitInst lowers one instruction. w is its planned write (nil for
// non-writing instructions).
func (c *fctx) emitInst(pkt int, in Inst, w *fwrite) {
	switch {
	case in.Op == NOP:
		return
	case in.Op == HALT:
		if !in.Pred.Valid {
			return // folded into the exit terminal
		}
		pr, neg := in.Pred.Reg, in.Pred.Neg
		c.seg.ops = append(c.seg.ops, func(s *Sim) error {
			if (s.Regs[pr] != 0) == neg {
				return nil
			}
			s.stats.Instructions++
			s.halted = true
			return nil
		})
		return
	case in.Op == BPKT || in.Op == BREG:
		if !in.Pred.Valid {
			return // fully static: accounting folded, target known
		}
		pr, neg := in.Pred.Reg, in.Pred.Neg
		c.seg.ops = append(c.seg.ops, func(s *Sim) error {
			t := (s.Regs[pr] != 0) != neg
			if t {
				s.stats.Instructions++
			}
			s.fcond0 = t
			return nil
		})
		return
	case in.Op.IsLoad():
		c.emitLoad(pkt, in, w)
		return
	case in.Op.IsStore():
		c.emitStore(pkt, in)
		return
	}
	c.emitALU(in, w)
}

// fusedLoadRaw performs the load access and stall accounting shared by
// every load shape.
func (s *Sim) fusedLoadRaw(pkt int, addr uint32, sz int) (uint32, error) {
	v, cont, err := s.mem.Load(addr, sz, s.cycle)
	if err != nil {
		return 0, s.errf(pkt, "load @%#x: %v", addr, err)
	}
	s.fstall += cont - s.cycle
	return v, nil
}

func loadExtend(op Op, v uint32) uint32 {
	switch op {
	case LDH:
		return uint32(int32(int16(v)))
	case LDB:
		return uint32(int32(int8(v)))
	}
	return v
}

func (c *fctx) emitLoad(pkt int, in Inst, w *fwrite) {
	op := in.Op
	off := uint32(in.Src2.Imm)
	sz := in.Op.MemSize()
	immBase := in.Src1.IsImm
	var immAddr uint32
	base := in.Src1.Reg
	if immBase {
		immAddr = uint32(in.Src1.Imm) + off
	}
	slot := w.slot
	dst := w.reg
	direct := w.direct
	if !in.Pred.Valid {
		// Instruction count folded into the accounting sync (pl.uncond).
		c.seg.ops = append(c.seg.ops, func(s *Sim) error {
			addr := immAddr
			if !immBase {
				addr = s.Regs[base] + off
			}
			v, err := s.fusedLoadRaw(pkt, addr, sz)
			if err != nil {
				return err
			}
			v = loadExtend(op, v)
			if direct {
				s.Regs[dst] = v
			} else {
				s.fslotVal[slot] = v
			}
			return nil
		})
		return
	}
	pr, neg := in.Pred.Reg, in.Pred.Neg
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		if (s.Regs[pr] != 0) == neg {
			if !direct {
				s.fslotOn[slot] = false
			}
			return nil
		}
		s.stats.Instructions++
		addr := immAddr
		if !immBase {
			addr = s.Regs[base] + off
		}
		v, err := s.fusedLoadRaw(pkt, addr, sz)
		if err != nil {
			return err
		}
		v = loadExtend(op, v)
		if direct {
			s.Regs[dst] = v
		} else {
			s.fslotOn[slot] = true
			s.fslotVal[slot] = v
		}
		return nil
	})
}

func (c *fctx) emitStore(pkt int, in Inst) {
	off := uint32(in.Src2.Imm)
	sz := in.Op.MemSize()
	immBase := in.Src1.IsImm
	var immAddr uint32
	base := in.Src1.Reg
	if immBase {
		immAddr = uint32(in.Src1.Imm) + off
	}
	data := in.Data
	p32 := int32(pkt)
	// Instruction count: folded (pl.uncond) for the unpredicated shape,
	// counted at run time by the predicated wrapper.
	body := func(s *Sim) error {
		s.fusedPkt = p32
		addr := immAddr
		if !immBase {
			addr = s.Regs[base] + off
		}
		cont, err := s.mem.Store(addr, s.Regs[data], sz, s.cycle)
		if err != nil {
			return s.errf(pkt, "store @%#x: %v", addr, err)
		}
		s.fstall += cont - s.cycle
		return nil
	}
	if !in.Pred.Valid {
		c.seg.ops = append(c.seg.ops, body)
		return
	}
	pr, neg := in.Pred.Reg, in.Pred.Neg
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		if (s.Regs[pr] != 0) == neg {
			return nil
		}
		s.stats.Instructions++
		return body(s)
	})
}

// emitALU lowers a register-writing ALU op: a value computation wrapped
// in the direct/slot and predicate shells.
func (c *fctx) emitALU(in Inst, w *fwrite) {
	compute := fusedCompute(in)
	slot := w.slot
	dst := w.reg
	direct := w.direct
	if !in.Pred.Valid {
		// Instruction count folded into the accounting sync (pl.uncond).
		if direct {
			c.seg.ops = append(c.seg.ops, func(s *Sim) error {
				s.Regs[dst] = compute(s)
				return nil
			})
		} else {
			c.seg.ops = append(c.seg.ops, func(s *Sim) error {
				s.fslotVal[slot] = compute(s)
				return nil
			})
		}
		return
	}
	pr, neg := in.Pred.Reg, in.Pred.Neg
	if direct {
		c.seg.ops = append(c.seg.ops, func(s *Sim) error {
			if (s.Regs[pr] != 0) == neg {
				return nil
			}
			s.stats.Instructions++
			s.Regs[dst] = compute(s)
			return nil
		})
		return
	}
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		if (s.Regs[pr] != 0) == neg {
			s.fslotOn[slot] = false
			return nil
		}
		s.stats.Instructions++
		s.fslotOn[slot] = true
		s.fslotVal[slot] = compute(s)
		return nil
	})
}

// fusedCompute builds the value function of an ALU op (same-packet
// reads see packet-start register values: plan routes any same-packet
// writer of a read register through a slot, so Regs is stable here).
func fusedCompute(in Inst) func(s *Sim) uint32 {
	switch in.Op {
	case MVK:
		v := uint32(int32(int16(in.Src2.Imm)))
		return func(*Sim) uint32 { return v }
	case MVKH:
		hi := uint32(in.Src2.Imm) << 16
		dst := in.Dst
		return func(s *Sim) uint32 { return s.Regs[dst]&0xFFFF | hi }
	}
	if k := unaryKernel(in.Op); k != nil {
		if in.Src1.IsImm {
			v := k(uint32(in.Src1.Imm))
			return func(*Sim) uint32 { return v }
		}
		r1 := in.Src1.Reg
		return func(s *Sim) uint32 { return k(s.Regs[r1]) }
	}
	k := binaryKernel(in.Op)
	switch {
	case !in.Src1.IsImm && !in.Src2.IsImm:
		r1, r2 := in.Src1.Reg, in.Src2.Reg
		return func(s *Sim) uint32 { return k(s.Regs[r1], s.Regs[r2]) }
	case !in.Src1.IsImm && in.Src2.IsImm:
		r1, b := in.Src1.Reg, uint32(in.Src2.Imm)
		return func(s *Sim) uint32 { return k(s.Regs[r1], b) }
	case in.Src1.IsImm && !in.Src2.IsImm:
		a, r2 := uint32(in.Src1.Imm), in.Src2.Reg
		return func(s *Sim) uint32 { return k(a, s.Regs[r2]) }
	default:
		v := k(uint32(in.Src1.Imm), uint32(in.Src2.Imm))
		return func(*Sim) uint32 { return v }
	}
}
