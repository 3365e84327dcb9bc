package c6x

import (
	"bytes"
	"slices"
)

// This file compiles intrinsics: runtime routines whose whole effect one
// host function performs. The program's producer knows that a packet
// range is, say, the cache-probe subroutine of a given geometry; the
// fuser knows nothing about caches. It only learns that the range is a
// leaf routine with a handful of paths, walks every path with the same
// plan the generic lowering uses, folds each path's accounting and exit
// window into constants, and lets the supplied function stand in for the
// instructions. Before trusting it, it runs every path both ways on
// scratch machines (validate); any doubt keeps the generic lowering,
// which therefore always exists and is what a declined call runs.

// Intrinsic declares the packets [Entry, End) to be a leaf routine —
// entered only at Entry with no branch pending, left only by an
// unpredicated BREG through a return-site register — and optionally
// supplies its meaning.
type Intrinsic struct {
	Entry, End int

	// Effect performs one call's architectural effect on the live machine:
	// every register the routine leaves changed (scratch included) and
	// every byte of memory it writes, nothing else — clocks, statistics,
	// the return itself and writebacks already in flight at entry are the
	// fuser's. It returns which of the routine's Paths the call took, any
	// numbering, or -1 to decline a call before touching anything (a fault
	// ahead, memory it does not model): the generic lowering then runs
	// that call. nil supplies no meaning and the routine stays generic.
	Effect func(mem MemPort, regs *[2 * NumRegs]uint32) int
	Paths  int

	// Trial builds scratch machine i of Trials for validation: a memory
	// system, a register file driving the routine down some path, and a
	// reader of the memory the routine may write. It is called twice per
	// trial and must return equal, independent machines; together the
	// trials must take every path.
	Trials int
	Trial  func(i int) (mem MemPort, regs [2 * NumRegs]uint32, image func() []byte)
}

// IntrinsicOutcome says how Fuse lowered one entry state of an
// intrinsic routine.
type IntrinsicOutcome uint8

// The outcomes. Everything but IntrinsicCompiled runs the generic
// lowering.
const (
	IntrinsicCompiled   IntrinsicOutcome = iota // one op; validated on every path
	IntrinsicRejected                           // validation found a difference
	IntrinsicNoEffect                           // no effect function supplied
	IntrinsicShape                              // routine outside what the walker folds
	IntrinsicEntryState                         // pending branch, or a window touching the routine's registers
	NumIntrinsicOutcomes
)

var intrinsicOutcomeNames = [NumIntrinsicOutcomes]string{"compiled", "rejected", "no-effect", "shape", "entry-state"}

func (o IntrinsicOutcome) String() string { return intrinsicOutcomeNames[o] }

// maxIntrinsicSteps bounds the packets walked over all paths of one
// routine; a loop runs into it and the routine stays generic.
const maxIntrinsicSteps = 512

// ipath is one control-flow path through an intrinsic routine, folded.
type ipath struct {
	pkts    []int32     // packets in execution order
	acct    facct       // cycles, packets, instructions and NOP cycles
	commits []finflight // entry-window writebacks landing inside the routine, in commit order
	reg     Reg         // the register the return captures its target from
	exit    *indirectExit
}

// finish leaves behind what the path does besides the effect: the landed
// entry-window writebacks, the accounting, the captured return target.
func (p *ipath) finish(s *Sim) {
	for _, fi := range p.commits {
		if !fi.pred || s.fslotOn[fi.slot] {
			s.Regs[fi.reg] = s.fslotVal[fi.slot]
		}
	}
	p.acct.apply(s)
	s.brTgt = int(int32(s.Regs[p.reg]))
}

func (f *fuser) intrinsicAt(pkt int) *Intrinsic {
	for i := range f.cfg.Intrinsics {
		if f.cfg.Intrinsics[i].Entry == pkt {
			return &f.cfg.Intrinsics[i]
		}
	}
	return nil
}

// compileIntrinsic compiles seg, sitting in state st at in's entry, into
// the intrinsic op, or reports false and why (f.sites).
func (f *fuser) compileIntrinsic(seg *fseg, st fstate, in *Intrinsic) bool {
	paths, out := f.foldRoutine(in, st)
	if out == IntrinsicCompiled {
		if paths = f.validate(in, st, paths); paths == nil {
			out = IntrinsicRejected
		}
	}
	f.sites[out]++
	if out != IntrinsicCompiled {
		return false
	}
	twin := st
	twin.generic = true
	generic, effect := f.state(twin), in.Effect
	seg.ops = []fop{func(s *Sim) error {
		l := effect(s.mem, &s.Regs)
		if l < 0 {
			s.fnext = generic // nothing has changed: same state, other lowering
			return nil
		}
		p := paths[l]
		p.finish(s)
		p.exit.fire(s)
		s.es.IntrinsicRuns++
		return nil
	}}
	return true
}

// routineRegs is the set of registers the routine's instructions read or
// write (A and B files: 64 registers).
func (f *fuser) routineRegs(in *Intrinsic) (set uint64) {
	var buf [8]Reg
	for _, pk := range f.prog.Packets[in.Entry:in.End] {
		for _, inst := range pk.Insts {
			for _, r := range inst.Reads(buf[:0]) {
				set |= 1 << r
			}
			if inst.HasDst() {
				set |= 1 << inst.Dst
			}
		}
	}
	return set
}

// foldRoutine walks every path of the routine from entry state st. The
// walk is the generic lowering's own plan, so each path's constants are
// by construction the ones its segments would fold.
func (f *fuser) foldRoutine(in *Intrinsic, st fstate) ([]*ipath, IntrinsicOutcome) {
	if in.Effect == nil {
		return nil, IntrinsicNoEffect
	}
	if in.Entry >= in.End || in.End > len(f.prog.Packets) {
		return nil, IntrinsicShape
	}
	if st.br.valid {
		return nil, IntrinsicEntryState
	}
	regs := f.routineRegs(in)
	type walk struct {
		c       fctx
		pkt     int
		p       ipath
		carried uint32 // slots still holding entry-window values
	}
	w := &walk{c: fctx{f: f, inflight: slices.Clone(st.inflight)}, pkt: in.Entry}
	for _, fi := range st.inflight {
		if regs&(1<<fi.reg) != 0 {
			return nil, IntrinsicEntryState
		}
		w.c.slots |= 1 << fi.slot
	}
	w.carried = w.c.slots

	var paths []*ipath
	work := []*walk{w}
	for steps := 0; len(work) > 0; {
		w, work = work[len(work)-1], work[:len(work)-1]
		for done := false; !done; {
			if steps++; steps > maxIntrinsicSteps || w.pkt < in.Entry || w.pkt >= in.End {
				return nil, IntrinsicShape
			}
			pk := f.prog.Packets[w.pkt]
			for _, inst := range pk.Insts {
				if inst.Pred.Valid && inst.Op != BPKT {
					return nil, IntrinsicShape // executes per register value, not per path
				}
			}
			pl, _, ok := w.c.plan(w.pkt, pk)
			if !ok || pl.halt || pl.haltCond {
				return nil, IntrinsicShape
			}
			w.p.pkts = append(w.p.pkts, int32(w.pkt))
			for _, fi := range pl.due {
				if w.carried&(1<<fi.slot) != 0 {
					w.p.commits = append(w.p.commits, fi)
					w.carried &^= 1 << fi.slot
				}
			}
			w.c.advance(pl)
			switch {
			case pl.condBr:
				t := &walk{c: w.c, pkt: pl.next, p: w.p, carried: w.carried}
				t.c.inflight = slices.Clone(w.c.inflight)
				t.p.pkts, t.p.commits = slices.Clone(w.p.pkts), slices.Clone(w.p.commits)
				t.c.br = pl.brTaken
				t.c.accInsts++ // the taken branch executed
				work = append(work, t)
				w.c.br, w.pkt = pl.brAfter, pl.next
			case pl.fired.ind:
				for _, fi := range w.c.inflight {
					if w.carried&(1<<fi.slot) == 0 {
						return nil, IntrinsicShape // the routine's own write outlives it
					}
				}
				w.c.br = fbr{}
				w.p.acct, w.p.reg = w.c.take(), pl.fired.reg
				w.p.exit = w.c.indirectExit(pl.fired.reg)
				paths = append(paths, &w.p)
				done = true
			case pl.fired.valid:
				w.c.br, w.pkt = fbr{}, pl.fired.tgt
			default:
				w.c.br, w.pkt = pl.brAfter, pl.next
			}
		}
	}
	if len(paths) != in.Paths {
		return nil, IntrinsicShape
	}
	return paths, IntrinsicCompiled
}

// validate runs every trial both ways — the interpreter over the
// routine's packets, and the effect function plus the folded path — and
// compares the complete machines: registers, clocks, statistics, pending
// window, branch state, memory image. It learns which path each effect
// label means on the way, and returns the paths indexed by label, or nil
// on any difference, an uncovered path or an ambiguous label.
func (f *fuser) validate(in *Intrinsic, st fstate, paths []*ipath) []*ipath {
	byLabel := make([]*ipath, in.Paths)
	for t := 0; t < in.Trials; t++ {
		ref, refImage := f.trialSim(in, st, paths, t)
		flushWindow(ref, st.inflight)
		ref.pc = in.Entry
		var trace []int32
		for !ref.halted && ref.pc >= in.Entry && ref.pc < in.End && len(trace) < maxIntrinsicSteps {
			trace = append(trace, int32(ref.pc))
			if ref.Step() != nil {
				return nil
			}
		}
		var p *ipath
		for _, q := range paths {
			if slices.Equal(q.pkts, trace) {
				p = q
			}
		}
		got, gotImage := f.trialSim(in, st, paths, t)
		l := in.Effect(got.mem, &got.Regs)
		if p == nil || l < 0 || l >= in.Paths || byLabel[l] != nil && byLabel[l] != p {
			return nil
		}
		byLabel[l] = p
		p.finish(got)
		leaveFused(got, p.exit.fl, got.brTgt, fbr{})
		if !sameMachine(ref, got) || !bytes.Equal(refImage(), gotImage()) {
			return nil
		}
	}
	for i, p := range byLabel {
		if p == nil || slices.Index(byLabel, p) != i {
			return nil // a label no trial took, or two labels on one path
		}
	}
	return byLabel
}

// trialSim builds trial t's scratch machine in entry state st (window
// values in the fused slots), returning to the packet after the routine.
func (f *fuser) trialSim(in *Intrinsic, st fstate, paths []*ipath, t int) (*Sim, func() []byte) {
	mem, regs, image := in.Trial(t)
	s := NewSim(f.prog, mem)
	s.Regs = regs
	for _, p := range paths {
		s.Regs[p.reg] = uint32(in.End)
	}
	for i, fi := range st.inflight {
		s.fslotOn[fi.slot], s.fslotVal[fi.slot] = true, 0xC0DE0000+uint32(i)
	}
	return s, image
}

// sameMachine compares two Sims' complete architectural states.
func sameMachine(a, b *Sim) bool {
	return a.Regs == b.Regs && a.pc == b.pc && a.halted == b.halted &&
		a.cycle == b.cycle && a.busy == b.busy && a.Stats() == b.Stats() &&
		a.brValid == b.brValid && (!a.brValid || a.brTgt == b.brTgt && a.brCnt == b.brCnt) &&
		slices.Equal(a.pending, b.pending)
}
