package core

import (
	"fmt"
	"sort"

	"repro/internal/c6x"
	"repro/internal/sched"
)

// This file generates the runtime routines appended to the translated
// program: the software divide (the C6x has no divide hardware) and the
// cache simulation subroutine of the paper's Figure 4, generated from the
// cache description. Routines are leaf and register-only: they use the
// reserved argument/scratch registers and return through the link
// register, so no runtime stack is needed.

// routineLabel returns (allocating on first use) the entry label of a
// named runtime routine.
func (t *translator) routineLabel(name string) int {
	if lbl, ok := t.routines[name]; ok {
		return lbl
	}
	lbl := t.newLabel()
	t.routines[name] = lbl
	return lbl
}

// emitRoutines emits all requested runtime routines after the translated
// blocks (they are reachable only through calls).
func (t *translator) emitRoutines() error {
	names := make([]string, 0, len(t.routines))
	for n := range t.routines {
		names = append(names, n)
	}
	sort.Strings(names)
	divDone := false
	for _, n := range names {
		switch n {
		case "sdiv", "udiv":
			if !divDone {
				t.emitDivComplex()
				divDone = true
			}
		case "probe":
			first := len(t.tblocks)
			if err := t.emitProbeRoutine(); err != nil {
				return err
			}
			t.probeTBs = [2]int{first, len(t.tblocks)}
		default:
			return fmt.Errorf("core: unknown runtime routine %q", n)
		}
	}
	return nil
}

// rb is a small builder for routine blocks.
type rb struct {
	t   *translator
	cur *tblock
}

func (b *rb) block(label string, defines ...int) {
	b.cur = b.t.newTBlock(label, defines...)
}

func (b *rb) emit(inst c6x.Inst) { b.cur.ins = append(b.cur.ins, sched.New(inst)) }

func (b *rb) branch(target int, pred c6x.Pred) {
	in := sched.New(c6x.Inst{Op: c6x.BPKT, Target: target, Pred: pred})
	in.Pin = sched.PinBranch
	b.cur.ins = append(b.cur.ins, in)
}

func (b *rb) ret() {
	in := sched.New(c6x.Inst{Op: c6x.BREG, Src1: c6x.R(regLink)})
	in.Pin = sched.PinBranch
	b.cur.ins = append(b.cur.ins, in)
}

func pred(r c6x.Reg) c6x.Pred  { return c6x.Pred{Valid: true, Reg: r} }
func npred(r c6x.Reg) c6x.Pred { return c6x.Pred{Valid: true, Reg: r, Neg: true} }

// emitDivComplex emits the shared signed/unsigned divide:
//
//	sdiv: A24/A25 signed   -> quotient A24, remainder A25
//	udiv: A24/A25 unsigned -> quotient A24, remainder A25
//
// TC32 semantics for division by zero (q=0, r=dividend) and
// MinInt32/-1 (q=MinInt32, r=0) fall out of the unsigned core.
func (t *translator) emitDivComplex() {
	sdiv := t.routineLabel("sdiv")
	udiv := t.routineLabel("udiv")
	core := t.newLabel()
	loop := t.newLabel()
	dz := t.newLabel()

	s0, s1 := regScratch[0], regScratch[1] // A26, A27: Q and R
	s2, s3 := regScratch[2], regScratch[3] // A28, A29: counter and temp

	b := &rb{t: t}
	// Signed entry: zero check, record signs, take magnitudes.
	b.block("sdiv", sdiv)
	b.emit(c6x.Inst{Op: c6x.CMPEQ, Dst: s0, Src1: c6x.R(regArg1), Src2: c6x.Imm(0)})
	b.branch(dz, pred(s0))
	b.block("sdiv.abs")
	b.emit(c6x.Inst{Op: c6x.CMPLT, Dst: regBScr0, Src1: c6x.R(regArg0), Src2: c6x.Imm(0)})
	b.emit(c6x.Inst{Op: c6x.CMPLT, Dst: regBScr1, Src1: c6x.R(regArg1), Src2: c6x.Imm(0)})
	b.emit(c6x.Inst{Op: c6x.NEG, Dst: regArg0, Src1: c6x.R(regArg0), Pred: pred(regBScr0)})
	b.emit(c6x.Inst{Op: c6x.NEG, Dst: regArg1, Src1: c6x.R(regArg1), Pred: pred(regBScr1)})
	b.branch(core, c6x.Pred{})

	// Unsigned entry: zero check, clear the sign flags.
	b.block("udiv", udiv)
	b.emit(c6x.Inst{Op: c6x.CMPEQ, Dst: s0, Src1: c6x.R(regArg1), Src2: c6x.Imm(0)})
	b.branch(dz, pred(s0))
	b.block("udiv.clr")
	b.emit(c6x.Inst{Op: c6x.MVK, Dst: regBScr0, Src2: c6x.Imm(0)})
	b.emit(c6x.Inst{Op: c6x.MVK, Dst: regBScr1, Src2: c6x.Imm(0)})
	// falls through to the core

	// Unsigned restoring divide: N=A24 D=A25, Q=A26 R=A27, i=A28, t=A29.
	b.block("udiv.core", core)
	b.emit(c6x.Inst{Op: c6x.MVK, Dst: s0, Src2: c6x.Imm(0)})
	b.emit(c6x.Inst{Op: c6x.MVK, Dst: s1, Src2: c6x.Imm(0)})
	b.emit(c6x.Inst{Op: c6x.MVK, Dst: s2, Src2: c6x.Imm(32)})
	// falls through into the loop
	b.block("udiv.loop", loop)
	b.emit(c6x.Inst{Op: c6x.SHR, Dst: s3, Src1: c6x.R(regArg0), Src2: c6x.Imm(31)})
	b.emit(c6x.Inst{Op: c6x.SHL, Dst: s1, Src1: c6x.R(s1), Src2: c6x.Imm(1)})
	b.emit(c6x.Inst{Op: c6x.OR, Dst: s1, Src1: c6x.R(s1), Src2: c6x.R(s3)})
	b.emit(c6x.Inst{Op: c6x.SHL, Dst: regArg0, Src1: c6x.R(regArg0), Src2: c6x.Imm(1)})
	b.emit(c6x.Inst{Op: c6x.CMPLTU, Dst: s3, Src1: c6x.R(s1), Src2: c6x.R(regArg1)})
	b.emit(c6x.Inst{Op: c6x.SHL, Dst: s0, Src1: c6x.R(s0), Src2: c6x.Imm(1)})
	b.emit(c6x.Inst{Op: c6x.SUB, Dst: s1, Src1: c6x.R(s1), Src2: c6x.R(regArg1), Pred: npred(s3)})
	b.emit(c6x.Inst{Op: c6x.ADD, Dst: s0, Src1: c6x.R(s0), Src2: c6x.Imm(1), Pred: npred(s3)})
	b.emit(c6x.Inst{Op: c6x.SUB, Dst: s2, Src1: c6x.R(s2), Src2: c6x.Imm(1)})
	b.branch(loop, pred(s2))

	// Sign fixup and return: quotient sign = nneg^dneg, remainder takes
	// the dividend's sign.
	b.block("div.tail")
	b.emit(c6x.Inst{Op: c6x.XOR, Dst: regBScr1, Src1: c6x.R(regBScr0), Src2: c6x.R(regBScr1)})
	b.emit(c6x.Inst{Op: c6x.NEG, Dst: s0, Src1: c6x.R(s0), Pred: pred(regBScr1)})
	b.emit(c6x.Inst{Op: c6x.NEG, Dst: s1, Src1: c6x.R(s1), Pred: pred(regBScr0)})
	b.emit(c6x.Inst{Op: c6x.MV, Dst: regArg0, Src1: c6x.R(s0)})
	b.emit(c6x.Inst{Op: c6x.MV, Dst: regArg1, Src1: c6x.R(s1)})
	b.ret()

	// Division by zero: quotient 0, remainder = dividend.
	b.block("div.dz", dz)
	b.emit(c6x.Inst{Op: c6x.MV, Dst: regArg1, Src1: c6x.R(regArg0)})
	b.emit(c6x.Inst{Op: c6x.MVK, Dst: regArg0, Src2: c6x.Imm(0)})
	b.ret()
}

// emitProbeRoutine generates the cache simulation subroutine of Figure 4
// from the cache description: look the tag/valid word up in the set; on a
// hit renew the LRU information; on a miss replace the LRU way, renew LRU,
// and add the miss penalty to the cycle correction counter.
//
// Arguments: A24 = expected tag word (valid|tag), A25 = set byte offset.
// For 1- and 2-way geometries the in-memory layout per set is
// [way0, way1, lru], 4 bytes each, with a single LRU index word; wider
// geometries get the generalized routine over the
// [tag0..tagN-1, age0..ageN-1] layout (see emitProbeNWay).
func (t *translator) emitProbeRoutine() error {
	g := t.desc.ICache
	if g.Ways < 1 || g.Ways > maxProbeWays {
		return fmt.Errorf("core: cache probe generation supports 1..%d ways, got %d", maxProbeWays, g.Ways)
	}
	if g.Ways > 2 {
		t.emitProbeNWay()
		return nil
	}
	entry := t.routineLabel("probe")
	pen := int32(g.MissPenalty)
	s0 := regScratch[0] // A26: loaded word
	s1 := regScratch[1] // A27: second way word
	s2 := regScratch[2] // A28: compare result
	s3 := regScratch[3] // A29: compare result 2

	b := &rb{t: t}
	if g.Ways == 1 {
		miss := t.newLabel()
		b.block("probe", entry)
		b.emit(c6x.Inst{Op: c6x.ADD, Dst: regBScr0, Src1: c6x.R(regCacheTab), Src2: c6x.R(regArg1)})
		b.emit(c6x.Inst{Op: c6x.LDW, Dst: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(0)})
		b.emit(c6x.Inst{Op: c6x.CMPEQ, Dst: s2, Src1: c6x.R(s0), Src2: c6x.R(regArg0)})
		b.branch(miss, npred(s2))
		b.block("probe.hit")
		b.ret()
		b.block("probe.miss", miss)
		b.emit(c6x.Inst{Op: c6x.STW, Data: regArg0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(0)})
		b.emit(c6x.Inst{Op: c6x.ADD, Dst: regCorr, Src1: c6x.R(regCorr), Src2: c6x.Imm(pen)})
		b.ret()
		return nil
	}

	hit0 := t.newLabel()
	hit1 := t.newLabel()
	repl0 := t.newLabel()

	b.block("probe", entry)
	b.emit(c6x.Inst{Op: c6x.ADD, Dst: regBScr0, Src1: c6x.R(regCacheTab), Src2: c6x.R(regArg1)})
	b.emit(c6x.Inst{Op: c6x.LDW, Dst: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(0)})
	b.emit(c6x.Inst{Op: c6x.LDW, Dst: s1, Src1: c6x.R(regBScr0), Src2: c6x.Imm(4)})
	b.emit(c6x.Inst{Op: c6x.CMPEQ, Dst: s2, Src1: c6x.R(s0), Src2: c6x.R(regArg0)})
	b.branch(hit0, pred(s2))
	b.block("probe.chk1")
	b.emit(c6x.Inst{Op: c6x.CMPEQ, Dst: s3, Src1: c6x.R(s1), Src2: c6x.R(regArg0)})
	b.branch(hit1, pred(s3))
	// Miss: replace the LRU way (Figure 4's "use lru information to find
	// out tag to overwrite ... add additional cycles").
	b.block("probe.miss")
	b.emit(c6x.Inst{Op: c6x.LDW, Dst: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(8)})
	b.emit(c6x.Inst{Op: c6x.CMPEQ, Dst: s2, Src1: c6x.R(s0), Src2: c6x.Imm(0)})
	b.branch(repl0, pred(s2))
	b.block("probe.repl1")
	b.emit(c6x.Inst{Op: c6x.STW, Data: regArg0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(4)})
	b.emit(c6x.Inst{Op: c6x.MVK, Dst: s0, Src2: c6x.Imm(0)})
	b.emit(c6x.Inst{Op: c6x.STW, Data: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(8)})
	b.emit(c6x.Inst{Op: c6x.ADD, Dst: regCorr, Src1: c6x.R(regCorr), Src2: c6x.Imm(pen)})
	b.ret()
	b.block("probe.repl0", repl0)
	b.emit(c6x.Inst{Op: c6x.STW, Data: regArg0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(0)})
	b.emit(c6x.Inst{Op: c6x.MVK, Dst: s0, Src2: c6x.Imm(1)})
	b.emit(c6x.Inst{Op: c6x.STW, Data: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(8)})
	b.emit(c6x.Inst{Op: c6x.ADD, Dst: regCorr, Src1: c6x.R(regCorr), Src2: c6x.Imm(pen)})
	b.ret()
	// Hits renew the LRU information only.
	b.block("probe.hit0", hit0)
	b.emit(c6x.Inst{Op: c6x.MVK, Dst: s0, Src2: c6x.Imm(1)})
	b.emit(c6x.Inst{Op: c6x.STW, Data: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(8)})
	b.ret()
	b.block("probe.hit1", hit1)
	b.emit(c6x.Inst{Op: c6x.MVK, Dst: s0, Src2: c6x.Imm(0)})
	b.emit(c6x.Inst{Op: c6x.STW, Data: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(8)})
	b.ret()
	return nil
}

// maxProbeWays bounds the generalized probe generator: way indices are
// compared against short immediates, and the generated code grows with
// the square of the associativity.
const maxProbeWays = 16

// emitProbeNWay generates the cache simulation subroutine for an N-way
// set-associative cache (N ≥ 3), implementing exactly the true-LRU
// policy of the reference model (march.Cache): per set the table holds
// the N tag/valid words followed by the N age words (0 = most recently
// used). A hit re-ages the set around the hit way; a miss victimizes the
// way with the greatest effective age — invalid ways, whose tag word
// lacks the valid bit, count as older than any valid way — installs the
// tag, re-ages, and adds the miss penalty to the correction counter.
//
// The routine is straight-line predicated code plus one branch per way
// for the hit checks and the victim dispatch; ages live in memory, so
// only the reserved argument/scratch registers are used.
func (t *translator) emitProbeNWay() {
	g := t.desc.ICache
	n := g.Ways
	entry := t.routineLabel("probe")
	pen := int32(g.MissPenalty)
	tagOff := func(w int) int32 { return int32(w) * 4 }
	ageOff := func(w int) int32 { return int32(n+w) * 4 }

	s0 := regScratch[0] // A26: loaded tag word
	s1 := regScratch[1] // A27: loaded/updated age
	s2 := regScratch[2] // A28: compare scratch
	s3 := regScratch[3] // A29: best age / old age
	best := regBScr1    // B25: victim way index

	b := &rb{t: t}

	// touch re-ages the set around way w: every younger way ages by one,
	// w becomes age 0. Identical to march.Cache.touch.
	touch := func(w int) {
		b.emit(c6x.Inst{Op: c6x.LDW, Dst: s3, Src1: c6x.R(regBScr0), Src2: c6x.Imm(ageOff(w))})
		for k := 0; k < n; k++ {
			if k == w {
				continue
			}
			b.emit(c6x.Inst{Op: c6x.LDW, Dst: s1, Src1: c6x.R(regBScr0), Src2: c6x.Imm(ageOff(k))})
			b.emit(c6x.Inst{Op: c6x.CMPLT, Dst: s2, Src1: c6x.R(s1), Src2: c6x.R(s3)})
			b.emit(c6x.Inst{Op: c6x.ADD, Dst: s1, Src1: c6x.R(s1), Src2: c6x.Imm(1), Pred: pred(s2)})
			b.emit(c6x.Inst{Op: c6x.STW, Data: s1, Src1: c6x.R(regBScr0), Src2: c6x.Imm(ageOff(k)), Pred: pred(s2)})
		}
		b.emit(c6x.Inst{Op: c6x.MVK, Dst: s1, Src2: c6x.Imm(0)})
		b.emit(c6x.Inst{Op: c6x.STW, Data: s1, Src1: c6x.R(regBScr0), Src2: c6x.Imm(ageOff(w))})
	}

	// Hit checks, one way per block.
	hit := make([]int, n)
	for w := range hit {
		hit[w] = t.newLabel()
	}
	b.block("probe", entry)
	b.emit(c6x.Inst{Op: c6x.ADD, Dst: regBScr0, Src1: c6x.R(regCacheTab), Src2: c6x.R(regArg1)})
	for w := 0; w < n; w++ {
		b.emit(c6x.Inst{Op: c6x.LDW, Dst: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(tagOff(w))})
		b.emit(c6x.Inst{Op: c6x.CMPEQ, Dst: s2, Src1: c6x.R(s0), Src2: c6x.R(regArg0)})
		b.branch(hit[w], pred(s2))
		b.block(fmt.Sprintf("probe.chk%d", w+1))
	}

	// Miss: select the victim — the way with the greatest effective age,
	// earliest way winning ties, as in the reference model's scan.
	b.emit(c6x.Inst{Op: c6x.MVK, Dst: s3, Src2: c6x.Imm(-1)})
	b.emit(c6x.Inst{Op: c6x.MVK, Dst: best, Src2: c6x.Imm(0)})
	for w := 0; w < n; w++ {
		b.emit(c6x.Inst{Op: c6x.LDW, Dst: s0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(tagOff(w))})
		b.emit(c6x.Inst{Op: c6x.LDW, Dst: s1, Src1: c6x.R(regBScr0), Src2: c6x.Imm(ageOff(w))})
		// Invalid tag words lack the valid bit (they are non-negative);
		// treat them as older than any valid way.
		b.emit(c6x.Inst{Op: c6x.CMPLT, Dst: s2, Src1: c6x.R(s0), Src2: c6x.Imm(0)})
		b.emit(c6x.Inst{Op: c6x.MVK, Dst: s1, Src2: c6x.Imm(int32(n)), Pred: npred(s2)})
		b.emit(c6x.Inst{Op: c6x.CMPLT, Dst: s2, Src1: c6x.R(s3), Src2: c6x.R(s1)})
		b.emit(c6x.Inst{Op: c6x.MV, Dst: s3, Src1: c6x.R(s1), Pred: pred(s2)})
		b.emit(c6x.Inst{Op: c6x.MVK, Dst: best, Src2: c6x.Imm(int32(w)), Pred: pred(s2)})
	}

	// Victim dispatch: branch to the per-way replacement block.
	repl := make([]int, n)
	for w := range repl {
		repl[w] = t.newLabel()
	}
	for w := 0; w < n-1; w++ {
		b.emit(c6x.Inst{Op: c6x.CMPEQ, Dst: s2, Src1: c6x.R(best), Src2: c6x.Imm(int32(w))})
		b.branch(repl[w], pred(s2))
		b.block(fmt.Sprintf("probe.disp%d", w+1))
	}
	b.branch(repl[n-1], c6x.Pred{})

	for w := 0; w < n; w++ {
		b.block(fmt.Sprintf("probe.repl%d", w), repl[w])
		b.emit(c6x.Inst{Op: c6x.STW, Data: regArg0, Src1: c6x.R(regBScr0), Src2: c6x.Imm(tagOff(w))})
		touch(w)
		b.emit(c6x.Inst{Op: c6x.ADD, Dst: regCorr, Src1: c6x.R(regCorr), Src2: c6x.Imm(pen)})
		b.ret()
	}
	for w := 0; w < n; w++ {
		b.block(fmt.Sprintf("probe.hit%d", w), hit[w])
		touch(w)
		b.ret()
	}
}
