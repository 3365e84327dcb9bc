package sched

import (
	"testing"

	"repro/internal/c6x"
	"repro/internal/ir"
)

func ins(i c6x.Inst) ir.Ins { return ir.New(i) }

func TestIndependentOpsParallelize(t *testing.T) {
	b := &ir.Block{Label: "t", Ins: []ir.Ins{
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(1), Src1: c6x.R(c6x.A(2)), Src2: c6x.R(c6x.A(3))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.B(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.R(c6x.B(3))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(4), Src1: c6x.R(c6x.A(5)), Src2: c6x.R(c6x.A(6))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.B(4), Src1: c6x.R(c6x.B(5)), Src2: c6x.R(c6x.B(6))}),
	}}
	r, err := Schedule(b)
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
	b := &ir.Block{Label: "t", Ins: []ir.Ins{
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(1), Src1: c6x.R(c6x.A(2)), Src2: c6x.R(c6x.A(3))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(4), Src1: c6x.R(c6x.A(1)), Src2: c6x.R(c6x.A(3))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(5), Src1: c6x.R(c6x.A(4)), Src2: c6x.R(c6x.A(3))}),
	}}
	r, err := Schedule(b)
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
	b := &ir.Block{Label: "t", Ins: []ir.Ins{
		ins(c6x.Inst{Op: c6x.LDW, Dst: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0)}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(3), Src1: c6x.R(c6x.A(1)), Src2: c6x.R(c6x.A(1))}),
	}}
	r, err := Schedule(b)
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
	b := &ir.Block{Label: "t", Ins: []ir.Ins{
		ins(c6x.Inst{Op: c6x.LDW, Dst: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0)}),
	}}
	r, err := Schedule(b)
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
	var insns []ir.Ins
	insns = append(insns, ins(c6x.Inst{Op: c6x.CMPEQ, Dst: c6x.A(1), Src1: c6x.R(c6x.A(2)), Src2: c6x.R(c6x.A(3))}))
	for k := 0; k < 6; k++ {
		insns = append(insns, ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(4 + k), Src1: c6x.R(c6x.A(4 + k)), Src2: c6x.Imm(1)}))
	}
	br := ins(c6x.Inst{Op: c6x.BPKT, Target: 0, Pred: c6x.Pred{Valid: true, Reg: c6x.A(1)}})
	br.Pin = ir.PinBranch
	insns = append(insns, br)
	r, err := Schedule(&ir.Block{Label: "t", Ins: insns})
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
	b := &ir.Block{Label: "t", Ins: []ir.Ins{
		ins(c6x.Inst{Op: c6x.STW, Data: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0)}),
		ins(c6x.Inst{Op: c6x.LDW, Dst: c6x.A(3), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0)}),
	}}
	r, err := Schedule(b)
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
	r, err := Schedule(&ir.Block{Label: "t", Ins: []ir.Ins{v1, v2}})
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
	wait.Pin = ir.PinLast
	b := &ir.Block{Label: "t", Ins: []ir.Ins{
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(1), Src1: c6x.R(c6x.A(2)), Src2: c6x.R(c6x.A(3))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(4), Src1: c6x.R(c6x.A(1)), Src2: c6x.R(c6x.A(3))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(5), Src1: c6x.R(c6x.A(4)), Src2: c6x.R(c6x.A(3))}),
		wait,
	}}
	r, err := Schedule(b)
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
	b := &ir.Block{Label: "t", Ins: []ir.Ins{
		ins(c6x.Inst{Op: c6x.STW, Data: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0)}),
		ins(c6x.Inst{Op: c6x.HALT}),
	}}
	r, err := Schedule(b)
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
	var insns []ir.Ins
	insns = append(insns,
		ins(c6x.Inst{Op: c6x.MVK, Dst: c6x.A(1), Src2: c6x.Imm(6)}),
		ins(c6x.Inst{Op: c6x.MVK, Dst: c6x.A(2), Src2: c6x.Imm(7)}),
		ins(c6x.Inst{Op: c6x.MPY, Dst: c6x.A(3), Src1: c6x.R(c6x.A(1)), Src2: c6x.R(c6x.A(2))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(4), Src1: c6x.R(c6x.A(3)), Src2: c6x.Imm(1)}),
		ins(c6x.Inst{Op: c6x.HALT}),
	)
	r, err := Schedule(&ir.Block{Label: "t", Ins: insns})
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
	_, err := Schedule(&ir.Block{Label: "t", Ins: []ir.Ins{br, br}})
	if err == nil {
		t.Error("two branches should be rejected")
	}
}

func TestEmptyBlock(t *testing.T) {
	r, err := Schedule(&ir.Block{Label: "empty"})
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
	b := &ir.Block{Label: "t", Ins: []ir.Ins{
		ins(c6x.Inst{Op: c6x.MVK, Dst: c6x.A(1), Src2: c6x.Imm(61)}),
		ins(c6x.Inst{Op: c6x.LDW, Dst: c6x.A(1), Src1: c6x.R(c6x.B(2)), Src2: c6x.Imm(0)}),
		// Filler that could otherwise let the scheduler delay the mvk.
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(3), Src1: c6x.R(c6x.A(4)), Src2: c6x.R(c6x.A(5))}),
		ins(c6x.Inst{Op: c6x.ADD, Dst: c6x.A(6), Src1: c6x.R(c6x.A(3)), Src2: c6x.R(c6x.A(5))}),
	}}
	r, err := Schedule(b)
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
