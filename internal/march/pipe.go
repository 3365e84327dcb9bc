package march

import "repro/internal/tc32"

// Pipe replays the TC32 dual-issue in-order pipeline timing over an
// instruction stream. It tracks register availability and IP/LS pairing;
// control-flow bubbles and fetch stalls are injected by the caller, which
// is what lets the same model serve both the reference simulator (actual
// outcomes, live I-cache) and the translator's static prediction (clean
// entry state, predicted outcomes, no I-cache).
type Pipe struct {
	desc    *Desc
	next    int64               // earliest issue cycle of the next instruction
	readyAt [tc32.NumRegs]int64 // by tc32.Reg
	// Pairing state: an IP instruction that issued at pairCycle and has
	// not yet been paired with an LS instruction.
	pairOpen  bool
	pairCycle int64
}

// NewPipe returns a pipeline model in the reset state.
func NewPipe(desc *Desc) *Pipe {
	p := &Pipe{desc: desc}
	p.Reset()
	return p
}

// Reset restores the clean-entry state (all registers ready at cycle 0).
func (p *Pipe) Reset() {
	p.next = 0
	p.pairOpen = false
	p.pairCycle = 0
	for i := range p.readyAt {
		p.readyAt[i] = 0
	}
}

// Cycles returns the total number of cycles consumed so far: the earliest
// cycle at which a further instruction could issue. Write-back drain of
// in-flight results is deliberately not counted; the reference simulator
// and the static predictor agree on this convention.
func (p *Pipe) Cycles() int64 { return p.next }

// Issue issues one instruction and returns its issue cycle. Branch ops
// must be followed by a Control call to account for their bubbles.
func (p *Pipe) Issue(i *tc32.Inst) int64 {
	t := p.desc.TimingOf(i.Op)
	srcs, ns, dst := i.Regs()
	opReady := int64(0)
	for k := 0; k < ns; k++ {
		if r := p.readyAt[srcs[k]]; r > opReady {
			opReady = r
		}
	}
	var issue int64
	if p.pairOpen && t.Class == LS && !i.Op.IsBranch() && opReady <= p.pairCycle {
		// Dual issue: this LS instruction shares the cycle of the
		// preceding IP instruction.
		issue = p.pairCycle
		p.pairOpen = false
	} else {
		issue = p.next
		if opReady > issue {
			issue = opReady
		}
		p.next = issue + 1 + int64(t.Block)
		p.pairOpen = t.Class == IP && !i.Op.IsBranch() && t.Block == 0
		p.pairCycle = issue
	}
	if dst != tc32.NoReg {
		p.readyAt[dst] = issue + int64(t.Lat)
	}
	return issue
}

// Control accounts for a control transfer that issued at cycle issue with
// the given total cost in cycles (the next instruction can issue no
// earlier than issue+cost). It also closes any open pairing slot.
func (p *Pipe) Control(issue int64, cost uint8) {
	if n := issue + int64(cost); n > p.next {
		p.next = n
	}
	p.pairOpen = false
}

// Stall inserts n stall cycles before the next issue (fetch stalls such as
// I-cache miss penalties, or bus wait states). Pairing cannot span a stall.
func (p *Pipe) Stall(n int64) {
	if n <= 0 {
		return
	}
	p.next += n
	p.pairOpen = false
}

// Extend delays the result of the just-issued instruction by extra cycles
// (data-dependent execution units such as a Booth multiplier): consumers
// of the destination stall accordingly, while independent work still
// overlaps.
func (p *Pipe) Extend(i *tc32.Inst, extra int64) {
	if extra <= 0 {
		return
	}
	if dst := i.Dst(); dst != tc32.NoReg {
		p.readyAt[dst] += extra
	}
}
