package sched

import (
	"strings"
	"testing"

	"repro/internal/c6x"
)

func ins(i c6x.Inst) Ins { return New(i) }

// result is one block's schedule, as a fresh Scheduler emits it, and
// the core cycles its packets take.
type result struct {
	Packets []c6x.Packet
	Cycles  int
}

func schedule(b *Block) (*result, error) {
	var s Scheduler
	pk, err := s.Schedule(nil, b)
	if err != nil {
		return nil, err
	}
	return &result{Packets: pk, Cycles: cycles(pk)}, nil
}

func cycles(pk []c6x.Packet) int {
	n := 0
	for _, p := range pk {
		n += p.Cycles()
	}
	return n
}

func TestIndependentOpsParallelize(t *testing.T) {
	b := &Block{Label: "t", Ins: []Ins{
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(1), Src1: c6x.R(c6x.A(2)), Src2: c6x.R(c6x.A(3))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.B(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.R(c6x.B(3))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(4), Src1: c6x.R(c6x.A(5)), Src2: c6x.R(c6x.A(6))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.B(4), Src1: c6x.R(c6x.B(5)), Src2: c6x.R(c6x.B(6))}),
	}}
	r, err := schedule(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 1 {
		t.Errorf("4 independent adds = %d cycles, want 1 (L1,L2,S1,S2)", r.Cycles)
	}
	if len(r.Packets) != 1 || len(r.Packets[0].Insts) != 4 {
		t.Errorf("packets = %+v", r.Packets)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	b := &Block{Label: "t", Ins: []Ins{
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(1), Src1: c6x.R(c6x.A(2)), Src2: c6x.R(c6x.A(3))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(4), Src1: c6x.R(c6x.A(1)), Src2: c6x.R(c6x.A(3))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(5), Src1: c6x.R(c6x.A(4)), Src2: c6x.R(c6x.A(3))}),
	}}
	r, err := schedule(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 3 {
		t.Errorf("dependent chain = %d cycles, want 3", r.Cycles)
	}
}

func TestLoadLatencyPadded(t *testing.T) {
	// Load then use: the use must wait 5 cycles; trailing commit padding
	// must cover the load if its consumer is in the next block.
	b := &Block{Label: "t", Ins: []Ins{
		ins(c6x.Inst{Op: c6x.LDW, Dst: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0)}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(3), Src1: c6x.R(c6x.A(1)), Src2: c6x.R(c6x.A(1))}),
	}}
	r, err := schedule(b)
	if err != nil {
		t.Fatal(err)
	}
	// ldw at 0, add at 5 (load latency), commit of add at 6.
	if r.Cycles != 6 {
		t.Errorf("load-use block = %d cycles, want 6", r.Cycles)
	}
}

func TestTrailingCommitPadding(t *testing.T) {
	// A lone load must pad to its commit horizon so the next block can
	// read the register safely.
	b := &Block{Label: "t", Ins: []Ins{
		ins(c6x.Inst{Op: c6x.LDW, Dst: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0)}),
	}}
	r, err := schedule(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 5 {
		t.Errorf("lone load block = %d cycles, want 5 (commit padding)", r.Cycles)
	}
}

func TestBranchDelayFilling(t *testing.T) {
	// Enough independent work to fill the branch delay slots: the block
	// should cost branchCycle+6, with work inside the delay slots.
	var insns []Ins
	insns = append(insns, ins(c6x.Inst{Op: c6x.CMPEQ, Dst: c6x.A(1), Src1: c6x.R(c6x.A(2)), Src2: c6x.R(c6x.A(3))}))
	for k := 0; k < 6; k++ {
		insns = append(insns, ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(4 + k), Src1: c6x.R(c6x.A(4 + k)), Src2: c6x.Imm(1)}))
	}
	br := ins(c6x.Inst{Op: c6x.BPKT, Target: 0, Pred: c6x.Pred{Valid: true, Reg: c6x.A(1)}})
	br.Pin = PinBranch
	insns = append(insns, br)
	r, err := schedule(&Block{Label: "t", Ins: insns})
	if err != nil {
		t.Fatal(err)
	}
	// cmpeq+adds fit in ~2-3 cycles on L1/S1/D1 etc.; branch at cycle 1
	// (cond ready); block = branch+6 = 7.
	if r.Cycles > 8 {
		t.Errorf("branch block = %d cycles, want <= 8 (delay slots filled)", r.Cycles)
	}
	// The block must end exactly BranchDelay+1 cycles after the branch.
	branchCycle := -1
	cyc := 0
	for _, pk := range r.Packets {
		for _, in := range pk.Insts {
			if in.Op == c6x.BPKT {
				branchCycle = cyc
			}
		}
		cyc += pk.Cycles()
	}
	if branchCycle < 0 {
		t.Fatal("branch not emitted")
	}
	if r.Cycles != branchCycle+c6x.BranchDelay+1 {
		t.Errorf("block len %d, branch at %d: want len = branch+6", r.Cycles, branchCycle)
	}
}

func TestMemOrderPreserved(t *testing.T) {
	// Store then load of the same location must stay ordered.
	b := &Block{Label: "t", Ins: []Ins{
		ins(c6x.Inst{Op: c6x.STW, Data: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0)}),
		ins(c6x.Inst{Op: c6x.LDW, Dst: c6x.A(3), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0)}),
	}}
	r, err := schedule(b)
	if err != nil {
		t.Fatal(err)
	}
	var stCycle, ldCycle, cyc int
	for _, pk := range r.Packets {
		for _, in := range pk.Insts {
			if in.Op == c6x.STW {
				stCycle = cyc
			}
			if in.Op == c6x.LDW {
				ldCycle = cyc
			}
		}
		cyc += pk.Cycles()
	}
	if ldCycle <= stCycle {
		t.Errorf("load at %d not after store at %d", ldCycle, stCycle)
	}
}

func TestVolatileOrdering(t *testing.T) {
	// Two volatile loads (sync device reads) must not be reordered even
	// though plain loads could be.
	v1 := ins(c6x.Inst{Op: c6x.LDW, Dst: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0), Volatile: true})
	v2 := ins(c6x.Inst{Op: c6x.LDW, Dst: c6x.A(3), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(4), Volatile: true})
	r, err := schedule(&Block{Label: "t", Ins: []Ins{v1, v2}})
	if err != nil {
		t.Fatal(err)
	}
	var c1, c2, cyc = -1, -1, 0
	for _, pk := range r.Packets {
		for _, in := range pk.Insts {
			if in.Op == c6x.LDW && in.Src2.Imm == 0 {
				c1 = cyc
			}
			if in.Op == c6x.LDW && in.Src2.Imm == 4 {
				c2 = cyc
			}
		}
		cyc += pk.Cycles()
	}
	if c2 <= c1 {
		t.Errorf("volatile loads reordered: %d vs %d", c1, c2)
	}
}

func TestPinLastScheduledLate(t *testing.T) {
	// The sync-wait load must land at/after all body work despite being
	// ready early.
	wait := ins(c6x.Inst{Op: c6x.LDW, Dst: c6x.A(30), Src1: c6x.R(c6x.B(29)), Src2: c6x.Imm(0), Volatile: true})
	wait.Pin = PinLast
	b := &Block{Label: "t", Ins: []Ins{
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(1), Src1: c6x.R(c6x.A(2)), Src2: c6x.R(c6x.A(3))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(4), Src1: c6x.R(c6x.A(1)), Src2: c6x.R(c6x.A(3))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(5), Src1: c6x.R(c6x.A(4)), Src2: c6x.R(c6x.A(3))}),
		wait,
	}}
	r, err := schedule(b)
	if err != nil {
		t.Fatal(err)
	}
	var waitCycle, lastAdd, cyc = -1, -1, 0
	for _, pk := range r.Packets {
		for _, in := range pk.Insts {
			if in.Op == c6x.LDW {
				waitCycle = cyc
			} else if in.Op == c6x.ADD {
				lastAdd = cyc
			}
		}
		cyc += pk.Cycles()
	}
	if waitCycle < lastAdd {
		t.Errorf("sync wait at %d before last work at %d", waitCycle, lastAdd)
	}
	// No commit padding for the wait's destination (scratch register).
	if r.Cycles > waitCycle+1 {
		t.Errorf("block padded to %d for exempt wait at %d", r.Cycles, waitCycle)
	}
}

func TestHaltLastAndAlone(t *testing.T) {
	b := &Block{Label: "t", Ins: []Ins{
		ins(c6x.Inst{Op: c6x.STW, Data: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0)}),
		ins(c6x.Inst{Op: c6x.HALT}),
	}}
	r, err := schedule(b)
	if err != nil {
		t.Fatal(err)
	}
	last := r.Packets[len(r.Packets)-1]
	if len(last.Insts) != 1 || last.Insts[0].Op != c6x.HALT {
		t.Errorf("halt not alone in final packet: %+v", last)
	}
}

func TestScheduleRunsOnSimulator(t *testing.T) {
	// End-to-end: schedule a block and execute it on the contract-checking interpreter.
	var insns []Ins
	insns = append(insns,
		ins(c6x.Inst{Op: c6x.MVK, Dst: c6x.A(1), Src2: c6x.Imm(6)}),
		ins(c6x.Inst{Op: c6x.MVK, Dst: c6x.A(2), Src2: c6x.Imm(7)}),
		ins(c6x.Inst{Op: c6x.MPY, Dst: c6x.A(3), Src1: c6x.R(c6x.A(1)), Src2: c6x.R(c6x.A(2))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(4), Src1: c6x.R(c6x.A(3)), Src2: c6x.Imm(1)}),
		ins(c6x.Inst{Op: c6x.HALT}),
	)
	r, err := schedule(&Block{Label: "t", Ins: insns})
	if err != nil {
		t.Fatal(err)
	}
	s := c6x.NewSim(&c6x.Program{Packets: r.Packets}, nullMem{})
	if err := s.Run(); err != nil {
		t.Fatalf("simulation of scheduled block failed: %v", err)
	}
	if got := s.Reg(c6x.A(4)); got != 43 {
		t.Errorf("A4 = %d, want 43", got)
	}
}

func TestTwoBranchesRejected(t *testing.T) {
	br := ins(c6x.Inst{Op: c6x.BPKT})
	_, err := schedule(&Block{Label: "t", Ins: []Ins{br, br}})
	if err == nil {
		t.Error("two branches should be rejected")
	}
}

func TestEmptyBlock(t *testing.T) {
	r, err := schedule(&Block{Label: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 0 || len(r.Packets) != 0 {
		t.Errorf("empty block = %+v", r)
	}
}

type nullMem struct{}

func (nullMem) Load(addr uint32, size int, cycle int64) (uint32, int64, error) {
	return 0, cycle, nil
}
func (nullMem) Store(addr uint32, val uint32, size int, cycle int64) (int64, error) {
	return cycle, nil
}

func TestWAWShortThenLongLatency(t *testing.T) {
	// mvk A1 (lat 1) followed by ldw A1 (lat 5): the final value of A1
	// must be the load's. A negative-weight WAW edge is required; with no
	// edge the mvk can drift after the load commit and clobber it.
	b := &Block{Label: "t", Ins: []Ins{
		ins(c6x.Inst{Op: c6x.MVK, Dst: c6x.A(1), Src2: c6x.Imm(61)}),
		ins(c6x.Inst{Op: c6x.LDW, Dst: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0)}),
		// Filler that could otherwise let the scheduler delay the mvk.
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(3), Src1: c6x.R(c6x.A(4)), Src2: c6x.R(c6x.A(5))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(6), Src1: c6x.R(c6x.A(3)), Src2: c6x.R(c6x.A(5))}),
	}}
	r, err := schedule(b)
	if err != nil {
		t.Fatal(err)
	}
	var mvkCycle, ldwCycle, cyc = -1, -1, 0
	for _, pk := range r.Packets {
		for _, in := range pk.Insts {
			switch in.Op {
			case c6x.MVK:
				mvkCycle = cyc
			case c6x.LDW:
				ldwCycle = cyc
			}
		}
		cyc += pk.Cycles()
	}
	// Commit order: mvk at m commits m+1, ldw at l commits l+5; need
	// m+1 <= l+5 - 1 i.e. m <= l+3.
	if mvkCycle > ldwCycle+3 {
		t.Errorf("mvk at %d commits after ldw at %d", mvkCycle, ldwCycle)
	}
	// Run it: A1 must hold the loaded value.
	mem := nullMem{}
	s := c6x.NewSim(&c6x.Program{Packets: append(r.Packets, c6x.Packet{Insts: []c6x.Inst{{Op: c6x.HALT}}})}, mem)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Reg(c6x.A(1)); got != 0 { // nullMem loads 0
		t.Errorf("A1 = %d, want load result 0", got)
	}
}

// doubleCross is an instruction no packet can hold: its unit is on the
// destination's side, so both register operands need the one cross path.
func doubleCross() Ins {
	return ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.R(c6x.B(3))})
}

func wantErr(t *testing.T, b *Block, substr string) {
	t.Helper()
	_, err := schedule(b)
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("err = %v, want one containing %q", err, substr)
	}
}

func TestIllegalShapeRejected(t *testing.T) {
	body := ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(4), Src1: c6x.R(c6x.A(5)), Src2: c6x.R(c6x.A(6))})
	pinned := doubleCross()
	pinned.Pin = PinLast
	br := ins(c6x.Inst{Op: c6x.BPKT})
	br.Pin = PinBranch
	for name, b := range map[string][]Ins{
		"main loop":         {body, doubleCross()},
		"pin last":          {pinned},
		"pin last + branch": {body, pinned, br},
	} {
		t.Run(name, func(t *testing.T) {
			wantErr(t, &Block{Label: "t", Ins: b}, "illegal operand shape")
		})
	}
}

func TestDependenceOnDeferredRejected(t *testing.T) {
	// A body store after the PinLast wait must wait for it, but the wait
	// is placed after the body: no schedule exists.
	wait := ins(c6x.Inst{Op: c6x.LDW, Dst: c6x.A(30), Src1: c6x.R(c6x.B(29)), Src2: c6x.Imm(0), Volatile: true})
	wait.Pin = PinLast
	st := ins(c6x.Inst{Op: c6x.STW, Data: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0)})
	wantErr(t, &Block{Label: "t", Ins: []Ins{wait, st}}, "depends on deferred instruction 0")
}

func TestHaltAndBranchRejected(t *testing.T) {
	wantErr(t, &Block{Label: "t", Ins: []Ins{ins(c6x.Inst{Op: c6x.HALT}), ins(c6x.Inst{Op: c6x.BPKT})}}, "a halt and a branch")
}

func TestPlacementPastEndRejected(t *testing.T) {
	// Every path sizes the block to hold what it placed, so reach the
	// layout's check directly: lay out a scheduled block one cycle short.
	var s Scheduler
	b := &Block{Label: "t", Ins: []Ins{
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(1), Src1: c6x.R(c6x.A(2)), Src2: c6x.R(c6x.A(3))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(4), Src1: c6x.R(c6x.A(1)), Src2: c6x.R(c6x.A(3))}),
	}}
	if err := s.facts(b); err != nil {
		t.Fatal(err)
	}
	if err := s.depend(b); err != nil {
		t.Fatal(err)
	}
	n := s.place()
	if pk, err := s.layout(nil, b, n-1); err == nil || !strings.Contains(err.Error(), "outside [0, 1)") || len(pk) != 0 {
		t.Fatalf("layout one cycle short: packets %d, err %v", len(pk), err)
	}
}

// TestSchedulerAllocs: a warm Scheduler appending into a pre-sized slice
// allocates one thing per block, the block's instruction backing.
func TestSchedulerAllocs(t *testing.T) {
	// The shape of a Level-2 conditional-branch region: sync start,
	// body, condition, correction flush, sync wait, branch.
	sync, corr, wait := c6x.B(29), c6x.B(30), c6x.A(31)
	start := ins(c6x.Inst{Op: c6x.STW, Data: c6x.A(20), Src1: c6x.R(sync), Src2: c6x.Imm(0), Volatile: true})
	start.Pin = PinFirst
	w := ins(c6x.Inst{Op: c6x.LDW, Dst: wait, Src1: c6x.R(sync), Src2: c6x.Imm(0), Volatile: true})
	w.Pin = PinLast
	br := ins(c6x.Inst{Op: c6x.BPKT, Target: 3, Pred: c6x.Pred{Valid: true, Reg: c6x.A(16)}})
	br.Pin = PinBranch
	b := &Block{Label: "t", Ins: []Ins{
		ins(c6x.Inst{Op: c6x.MVK, Dst: c6x.A(20), Src2: c6x.Imm(7)}),
		start,
		ins(c6x.Inst{Op: c6x.LDW, Dst: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(4)}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(3), Src1: c6x.R(c6x.A(1)), Src2: c6x.R(c6x.A(3))}),
		ins(c6x.Inst{Op: c6x.STW, Data: c6x.A(3), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(8)}),
		ins(c6x.Inst{Op: c6x.CMPEQ, Dst: c6x.A(16), Src1: c6x.R(c6x.A(3)), Src2: c6x.Imm(0)}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: corr, Src1: c6x.R(corr), Src2: c6x.Imm(2), Pred: c6x.Pred{Valid: true, Reg: c6x.A(16)}}),
		ins(c6x.Inst{Op: c6x.STW, Data: corr, Src1: c6x.R(sync), Src2: c6x.Imm(4), Volatile: true}),
		ins(c6x.Inst{Op: c6x.MVK, Dst: corr, Src2: c6x.Imm(0)}),
		w, br,
	}}
	var s Scheduler
	pk := make([]c6x.Packet, 0, 64)
	if _, err := s.Schedule(pk, b); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { s.Schedule(pk[:0], b) }); n > 1 {
		t.Errorf("warm Schedule allocates %.1f times per block, want <= 1", n)
	}
}
