package c6x

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// regions builds a RegionOf map for n packets with region starts at the
// given packet indices.
func regions(n int, starts ...int) []int32 {
	ro := make([]int32, n)
	for i := range ro {
		ro[i] = -1
	}
	for ri, p := range starts {
		ro[p] = int32(ri)
	}
	return ro
}

func mustFuse(t *testing.T, prog *Program, cfg FuseConfig) *FusedProgram {
	t.Helper()
	fp, err := Fuse(prog, cfg)
	if err != nil {
		t.Fatalf("fuse: %v", err)
	}
	return fp
}

// runTriple executes the same program on the interpreter and on the
// fuser under cfg, at one packet per segment and at cfg's own segment
// length, requiring bit-identical outcomes across all three: error
// presence and text, registers, cycle count, statistics, store sequences
// and memory. It returns the interpreter and the cfg run.
func runTriple(t *testing.T, cfg FuseConfig, packets ...Packet) (*Sim, *Sim) {
	t.Helper()
	unfused := cfg
	unfused.MaxSegPackets = 1
	runTripleMem(t, unfused, nil, packets...)
	return runTripleMem(t, cfg, nil, packets...)
}

// runTripleMem is runTriple's interpreter-vs-fused core with an optional
// memory configurator (stall regions etc.) applied to both sides.
func runTripleMem(t *testing.T, cfg FuseConfig, memCfg func(*testMem), packets ...Packet) (*Sim, *Sim) {
	t.Helper()

	im := newTestMem()
	if memCfg != nil {
		memCfg(im)
	}
	is := NewSim(&Program{Packets: packets}, im)
	ierr := is.Run()

	fprog := &Program{Packets: packets}
	fm := newTestMem()
	if memCfg != nil {
		memCfg(fm)
	}
	fs := NewSim(fprog, fm)
	fp := mustFuse(t, fprog, cfg)
	if err := fs.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	if !fs.Fused() {
		t.Fatal("fused engine not attached")
	}
	ferr := fs.RunFused()

	if (ierr == nil) != (ferr == nil) {
		t.Fatalf("error divergence: interp=%v fused=%v", ierr, ferr)
	}
	if ierr != nil && ierr.Error() != ferr.Error() {
		t.Fatalf("error text divergence:\n  interp: %v\n  fused:  %v", ierr, ferr)
	}
	if is.Regs != fs.Regs {
		t.Fatalf("register divergence:\n  interp: %v\n  fused:  %v", is.Regs, fs.Regs)
	}
	if is.Cycle() != fs.Cycle() {
		t.Fatalf("cycle divergence: interp=%d fused=%d", is.Cycle(), fs.Cycle())
	}
	if is.Stats() != fs.Stats() {
		t.Fatalf("stats divergence:\n  interp: %+v\n  fused:  %+v", is.Stats(), fs.Stats())
	}
	if is.Halted() != fs.Halted() {
		t.Fatalf("halt divergence: interp=%v fused=%v", is.Halted(), fs.Halted())
	}
	if ierr == nil && is.PC() != fs.PC() {
		t.Fatalf("pc divergence: interp=%d fused=%d", is.PC(), fs.PC())
	}
	if !reflect.DeepEqual(im.stores, fm.stores) {
		t.Fatalf("store-sequence divergence: interp=%v fused=%v", im.stores, fm.stores)
	}
	if !reflect.DeepEqual(im.ram, fm.ram) {
		t.Fatal("memory divergence")
	}
	return is, fs
}

func TestFusedMatchesInterpreterBasics(t *testing.T) {
	cases := map[string]struct {
		packets []Packet
		starts  []int
	}{
		"straight-line": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x5678)}),
				pk(Inst{Op: MVKH, Unit: S1, Dst: A(1), Src2: Imm(0x1234)}),
				pk(Inst{Op: ADD, Unit: L1, Dst: A(2), Src1: R(A(1)), Src2: Imm(1)}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0, 2},
		},
		"counted-loop": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(8), Src2: Imm(5)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(0)}),
				pk(Inst{Op: ADD, Unit: L1, Dst: A(9), Src1: R(A(9)), Src2: R(A(8))}), // loop head
				pk(Inst{Op: SUB, Unit: L1, Dst: A(8), Src1: R(A(8)), Src2: Imm(1)}),
				pk(Inst{Op: BPKT, Unit: S1, Target: 2, Pred: Pred{Valid: true, Reg: A(8)}}),
				pk(Inst{Op: NOP, NopCycles: 5}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0, 2},
		},
		"loop-with-memory": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(10), Src2: Imm(0x200)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(8), Src2: Imm(4)}),
				pk(Inst{Op: STW, Unit: D1, Data: A(8), Src1: R(A(10)), Src2: Imm(0)}), // loop head
				pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(10)), Src2: Imm(0)}),
				pk(Inst{Op: SUB, Unit: L1, Dst: A(8), Src1: R(A(8)), Src2: Imm(1)}),
				pk(Inst{Op: BPKT, Unit: S1, Target: 2, Pred: Pred{Valid: true, Reg: A(8)}}),
				pk(Inst{Op: NOP, NopCycles: 5}),
				pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: R(A(2))}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0, 2},
		},
		"branch-shortens-nop": {
			packets: []Packet{
				pk(Inst{Op: BPKT, Unit: S1, Target: 3}),
				pk(Inst{Op: NOP, NopCycles: 5}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(9)}), // skipped
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0},
		},
		"predication-mix": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(0)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(3), Src2: Imm(10), Pred: Pred{Valid: true, Reg: A(1)}}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(11), Pred: Pred{Valid: true, Reg: A(2)}}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(12), Pred: Pred{Valid: true, Neg: true, Reg: A(2)}}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0, 3},
		},
		"predicated-memory": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(10), Src2: Imm(0x100)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(0)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(3), Src2: Imm(0x2A)}),
				pk(Inst{Op: STW, Unit: D1, Data: A(3), Src1: R(A(10)), Src2: Imm(0), Pred: Pred{Valid: true, Reg: A(1)}}),
				pk(Inst{Op: STW, Unit: D1, Data: A(3), Src1: R(A(10)), Src2: Imm(4), Pred: Pred{Valid: true, Reg: A(2)}}), // off
				pk(Inst{Op: LDW, Unit: D1, Dst: A(4), Src1: R(A(10)), Src2: Imm(0), Pred: Pred{Valid: true, Reg: A(1)}}),
				pk(Inst{Op: LDW, Unit: D1, Dst: A(5), Src1: R(A(10)), Src2: Imm(4), Pred: Pred{Valid: true, Reg: A(2)}}), // off: no writeback
				pk(Inst{Op: NOP, NopCycles: 4}),
				pk(Inst{Op: ADD, Unit: L1, Dst: A(6), Src1: R(A(4)), Src2: R(A(5))}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0},
		},
		"subword-sext": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(-2)}),
				pk(Inst{Op: STB, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}),
				pk(Inst{Op: STH, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(4)}),
				pk(Inst{Op: LDB, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
				pk(Inst{Op: NOP, NopCycles: 4}),
				pk(Inst{Op: LDBU, Unit: D1, Dst: A(3), Src1: R(A(5)), Src2: Imm(0)}),
				pk(Inst{Op: NOP, NopCycles: 4}),
				pk(Inst{Op: LDH, Unit: D1, Dst: A(4), Src1: R(A(5)), Src2: Imm(4)}),
				pk(Inst{Op: NOP, NopCycles: 4}),
				pk(Inst{Op: LDHU, Unit: D1, Dst: A(6), Src1: R(A(5)), Src2: Imm(4)}),
				pk(Inst{Op: NOP, NopCycles: 4}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0, 4},
		},
		"mpy-delay-slot": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(6)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(7)}),
				pk(Inst{Op: MPY, Unit: M1, Dst: A(3), Src1: R(A(1)), Src2: R(A(2))}),
				pk(Inst{Op: NOP, NopCycles: 1}),
				pk(Inst{Op: ADD, Unit: L1, Dst: A(4), Src1: R(A(3)), Src2: R(A(3))}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0},
		},
		"predicated-halt-taken": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
				pk(Inst{Op: HALT, Pred: Pred{Valid: true, Reg: A(1)}}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}), // not reached
				pk(Inst{Op: HALT}),
			},
			starts: []int{0},
		},
		"predicated-halt-skipped": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0)}),
				pk(Inst{Op: HALT, Pred: Pred{Valid: true, Reg: A(1)}}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0},
		},
		"region-start-in-delay-slot": {
			// The branch is in flight when the trace crosses the region
			// start at packet 2: the boundary segment carries entry branch
			// state.
			packets: []Packet{
				pk(Inst{Op: BPKT, Unit: S1, Target: 5}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}), // region start, branch pending
				pk(Inst{Op: MVK, Unit: S1, Dst: A(3), Src2: Imm(3)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(4)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(9)}), // skipped
				pk(Inst{Op: HALT}),
			},
			starts: []int{0, 2},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			runTriple(t, FuseConfig{RegionOf: regions(len(tc.packets), tc.starts...)}, tc.packets...)
		})
	}
}

func TestFusedMatchesInterpreterErrors(t *testing.T) {
	cases := map[string][]Packet{
		"load-use-too-early": {
			pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
			pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
			pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: R(A(2))}),
			pk(Inst{Op: HALT}),
		},
		"overlapping-branches": {
			pk(Inst{Op: BPKT, Unit: S1, Target: 0}),
			pk(Inst{Op: BPKT, Unit: S1, Target: 0}),
			pk(Inst{Op: HALT}),
		},
		"writeback-collision": {
			pk(Inst{Op: MPY, Unit: M1, Dst: A(3), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: HALT}),
		},
		"fell-off-program": {
			pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
		},
		"unmapped-target": {
			pk(Inst{Op: BPKT, Unit: S1, Target: 99}),
			pk(Inst{Op: NOP, NopCycles: 5}),
			pk(Inst{Op: HALT}),
		},
	}
	for name, packets := range cases {
		t.Run(name, func(t *testing.T) {
			runTriple(t, FuseConfig{RegionOf: regions(len(packets), 0)}, packets...)
		})
	}
}

// TestFusedIndirectBranch: a BREG through a register dispatches at run
// time through the table of its register's return sites. A hit (the
// target is a SymImm label loaded into a ConstRegs register) chains to
// the continuation compiled there; a miss (a target no table holds, or
// a register with no table) materializes the interpreter state at the
// target. Both are bit-identical to the interpreter and the compiled
// engine, in the middle of a region and at a region start, with a
// writeback in flight across the exit.
func TestFusedIndirectBranch(t *testing.T) {
	gen := func(sym bool) []Packet {
		return []Packet{
			pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: B(3), Src2: Imm(9), SymImm: sym}),
			pk(Inst{Op: STW, Unit: D1, Data: B(3), Src1: R(A(5)), Src2: Imm(0)}),
			pk(Inst{Op: BREG, Unit: S1, Src1: R(B(3))}),
			pk(Inst{Op: NOP, NopCycles: 4}),
			pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}), // in flight at the exit
			pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(9)}),                // skipped
			pk(Inst{Op: HALT}), // skipped
			pk(Inst{Op: NOP}),  // skipped
			pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}), // BREG target
			pk(Inst{Op: NOP, NopCycles: 4}),
			pk(Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: HALT}),
		}
	}
	for _, tc := range []struct {
		name   string
		sym    bool
		consts []Reg
		starts []int
		misses int64
	}{
		{"hit", true, []Reg{B(3)}, []int{0}, 0},
		{"hit-at-region-start", true, []Reg{B(3)}, []int{0, 9}, 0},
		{"miss-plain-immediate", false, []Reg{B(3)}, []int{0}, 1},
		{"miss-at-region-start", false, []Reg{B(3)}, []int{0, 9}, 1},
		{"miss-no-table", true, nil, []int{0, 9}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			packets := gen(tc.sym)
			_, fs := runTriple(t, FuseConfig{RegionOf: regions(len(packets), tc.starts...), ConstRegs: tc.consts}, packets...)
			es := fs.EngineStats()
			if es.DeoptsBy[DeoptIndirectMiss] != tc.misses || es.Deopts() != tc.misses {
				t.Errorf("deopts %s, want %d indirect misses and nothing else", es.DeoptSummary(), tc.misses)
			}
			if tc.misses == 0 && es.GenericPackets != 0 {
				t.Errorf("table hit left fused code: %+v", es)
			}
			if fs.Reg(A(1)) != 10 {
				t.Errorf("A1 = %d, want 10 (the load in flight across the exit landed)", fs.Reg(A(1)))
			}
		})
	}
}

// TestFusedCapturedTargetWins: the branch target is the register's value
// when the BREG issues; a write to the register in the delay slots does
// not move it (Step reads the operand at issue).
func TestFusedCapturedTargetWins(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: B(3), Src2: Imm(7), SymImm: true}),
		pk(Inst{Op: BREG, Unit: S1, Src1: R(B(3))}),
		pk(Inst{Op: MVK, Unit: S1, Dst: B(3), Src2: Imm(9), SymImm: true}), // delay slot
		pk(Inst{Op: NOP, NopCycles: 4}),
		pk(Inst{Op: HALT}), // skipped
		pk(Inst{Op: NOP}),
		pk(Inst{Op: NOP}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(7)}), // the captured target
		pk(Inst{Op: HALT}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(9)}), // the overwritten link
		pk(Inst{Op: HALT}),
	}
	_, fs := runTriple(t, FuseConfig{RegionOf: regions(len(packets), 0), ConstRegs: []Reg{B(3)}}, packets...)
	if es := fs.EngineStats(); fs.Reg(A(1)) != 7 || es.Deopts() != 0 || es.GenericPackets != 0 {
		t.Fatalf("A1 = %d, %+v; want the target captured at issue (7), through the table", fs.Reg(A(1)), es)
	}
}

// TestFusedBREGStaysFused proves indirect loops through a return-site
// table execute without deoptimizing: the boundary hook keeps firing,
// which a deopt (StepFused returning) would cut short.
func TestFusedBREGStaysFused(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: B(3), Src2: Imm(0), SymImm: true}), // loop head and BREG target
		pk(Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(1)), Src2: Imm(1)}),
		pk(Inst{Op: BREG, Unit: S1, Src1: R(B(3))}),
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: HALT}), // never reached
	}
	prog := &Program{Packets: packets}
	fp := mustFuse(t, prog, FuseConfig{RegionOf: regions(len(packets), 0), ConstRegs: []Reg{B(3)}})
	s := NewSim(prog, newTestMem())
	if err := s.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	boundaries := 0
	stopped, err := s.StepFused(func() (bool, error) {
		boundaries++
		return boundaries >= 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Fatal("StepFused returned without the hook stopping: the loop deoptimized")
	}
	if boundaries != 10 {
		t.Fatalf("hook fired %d times, want 10", boundaries)
	}
	if s.Reg(A(1)) != 10 {
		t.Fatalf("A1 = %d, want 10 iterations", s.Reg(A(1)))
	}
}

// TestFusedMemoryStall: memory stalls accrued in fused code freeze the
// cycle clock exactly like the interpreter's per-packet accounting.
func TestFusedMemoryStall(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x300)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x2A)}),
		pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: NOP, NopCycles: 4}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: R(A(2))}),
		pk(Inst{Op: HALT}),
	}
	is, _ := runTripleMem(t, FuseConfig{RegionOf: regions(len(packets), 0, 3)}, func(m *testMem) {
		m.stallAddr = 0x300
		m.stallLen = 7
	}, packets...)
	if is.Stats().StallCycles == 0 {
		t.Fatal("test did not exercise memory stalls")
	}
}

// TestFusedInflightAcrossBoundary: a load writeback in flight across a
// region boundary rides the symbolic window through the boundary
// segment and commits on time.
func TestFusedInflightAcrossBoundary(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x2A)}),
		pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(6), Src2: Imm(6)}), // region start, load in flight
		pk(Inst{Op: NOP, NopCycles: 3}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: R(A(2))}),
		pk(Inst{Op: HALT}),
	}
	runTriple(t, FuseConfig{RegionOf: regions(len(packets), 0, 4)}, packets...)
}

// TestStepFusedHookStopResume: stopping at every boundary and resuming
// (fused when possible, generic otherwise) is bit-identical to a pure
// interpreter run.
func TestStepFusedHookStopResume(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(8), Src2: Imm(5)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(0)}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(9), Src1: R(A(9)), Src2: R(A(8))}), // loop head
		pk(Inst{Op: SUB, Unit: L1, Dst: A(8), Src1: R(A(8)), Src2: Imm(1)}),
		pk(Inst{Op: BPKT, Unit: S1, Target: 2, Pred: Pred{Valid: true, Reg: A(8)}}),
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: HALT}),
	}
	_, fs := stopEveryBoundary(t, FuseConfig{RegionOf: regions(len(packets), 0, 2)}, nil, packets...)
	if fs.EngineStats().HookStops == 0 {
		t.Fatal("hook never fired")
	}
}

// TestStepFusedHookRedirect: a hook that redirects the pc (interrupt
// delivery, debugger) gets a materialized state the generic engine
// continues from, identical to redirecting the interpreter at the same
// boundary.
func TestStepFusedHookRedirect(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}), // region start: redirect here
		pk(Inst{Op: MVK, Unit: S1, Dst: A(3), Src2: Imm(3)}), // skipped by the redirect
		pk(Inst{Op: HALT}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(4)}), // redirect target
		pk(Inst{Op: HALT}),
	}

	// Reference: interpret to the boundary, redirect, run out.
	is := NewSim(&Program{Packets: packets}, newTestMem())
	for is.PC() != 1 {
		if err := is.Step(); err != nil {
			t.Fatal(err)
		}
	}
	is.SetPC(4)
	if err := is.Run(); err != nil {
		t.Fatal(err)
	}

	fprog := &Program{Packets: packets}
	fs := NewSim(fprog, newTestMem())
	fp := mustFuse(t, fprog, FuseConfig{RegionOf: regions(len(packets), 1)})
	if err := fs.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	hook := func() (bool, error) {
		if fs.PC() == 1 {
			fs.SetPC(4)
		}
		return false, nil
	}
	for !fs.Halted() {
		if fs.FusedEntryOK() {
			if _, err := fs.StepFused(hook); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := fs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if is.Regs != fs.Regs || is.Cycle() != fs.Cycle() || is.Stats() != fs.Stats() {
		t.Fatalf("redirect divergence:\n  interp: regs=%v cycle=%d %+v\n  fused:  regs=%v cycle=%d %+v",
			is.Regs, is.Cycle(), is.Stats(), fs.Regs, fs.Cycle(), fs.Stats())
	}
	if fs.Reg(A(3)) != 0 || fs.Reg(A(4)) != 4 {
		t.Fatalf("redirect not honored: A3=%d A4=%d", fs.Reg(A(3)), fs.Reg(A(4)))
	}
}

// TestStepFusedHookError: hook errors surface with the boundary state
// materialized.
func TestStepFusedHookError(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}), // region start
		pk(Inst{Op: HALT}),
	}
	prog := &Program{Packets: packets}
	s := NewSim(prog, newTestMem())
	fp := mustFuse(t, prog, FuseConfig{RegionOf: regions(len(packets), 1)})
	if err := s.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	wantErr := &SimError{Packet: 1, Msg: "hook failure"}
	_, err := s.StepFused(func() (bool, error) { return false, wantErr })
	if err != wantErr {
		t.Fatalf("hook error not propagated: %v", err)
	}
	if s.PC() != 1 {
		t.Fatalf("pc = %d at hook error, want the boundary packet 1", s.PC())
	}
	if s.Reg(A(1)) != 1 {
		t.Fatal("state before the boundary not applied")
	}
}

// TestStepFusedStopWithInflight: stopping at a boundary with a load in
// flight materializes the pending writeback; the generic engine commits
// it on time.
func TestStepFusedStopWithInflight(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x2A)}),
		pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(6), Src2: Imm(6)}), // region start, load in flight
		pk(Inst{Op: NOP, NopCycles: 3}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: R(A(2))}),
		pk(Inst{Op: HALT}),
	}

	is := NewSim(&Program{Packets: packets}, newTestMem())
	if err := is.Run(); err != nil {
		t.Fatal(err)
	}

	fprog := &Program{Packets: packets}
	fs := NewSim(fprog, newTestMem())
	fp := mustFuse(t, fprog, FuseConfig{RegionOf: regions(len(packets), 4)})
	if err := fs.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	stopped, err := fs.StepFused(func() (bool, error) { return true, nil })
	if err != nil || !stopped {
		t.Fatalf("StepFused: stopped=%v err=%v", stopped, err)
	}
	if fs.PC() != 4 {
		t.Fatalf("pc = %d at stop, want boundary packet 4", fs.PC())
	}
	// The interpreter finishes the program from the materialized state.
	if err := fs.Run(); err != nil {
		t.Fatal(err)
	}
	if is.Regs != fs.Regs || is.Cycle() != fs.Cycle() || is.Stats() != fs.Stats() {
		t.Fatalf("inflight materialization divergence:\n  interp: regs=%v cycle=%d %+v\n  fused:  regs=%v cycle=%d %+v",
			is.Regs, is.Cycle(), is.Stats(), fs.Regs, fs.Cycle(), fs.Stats())
	}
	if fs.Reg(A(2)) != 0x2A || fs.Reg(A(3)) != 0x54 {
		t.Fatalf("load writeback lost: A2=%#x A3=%#x", fs.Reg(A(2)), fs.Reg(A(3)))
	}
}

// TestRunFusedCycleLimit: the fused engine honors MaxCycles at region
// boundaries. The overshoot is bounded by one region, so only the error
// kind is asserted, not its exact packet/cycle.
func TestRunFusedCycleLimit(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: BPKT, Unit: S1, Target: 0}), // endless loop
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: HALT}),
	}
	prog := &Program{Packets: packets}
	s := NewSim(prog, newTestMem())
	s.MaxCycles = 1000
	fp := mustFuse(t, prog, FuseConfig{RegionOf: regions(len(packets), 0)})
	if err := s.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	err := s.RunFused()
	if err == nil || !strings.Contains(err.Error(), "cycle limit exceeded") {
		t.Fatalf("want cycle limit error, got %v", err)
	}
}

// TestFuseBudgetStubs: the segment budget is not a reason to decline a
// program. States interned after it ran out compile as immediate-deopt
// stubs — zero-progress segments, which are excluded from the entry map
// so RunFused cannot livelock re-entering one — and the run degrades
// per state: what was traced runs fused, the rest on the generic
// engine, bit-identical, with the shortfall counted.
func TestFuseBudgetStubs(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(0), Src2: Imm(3)}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(1)), Src2: Imm(1)}), // region start: loop head
		pk(Inst{Op: SUB, Unit: L1, Dst: A(0), Src1: R(A(0)), Src2: Imm(1)}),
		pk(Inst{Op: BPKT, Unit: S1, Target: 1, Pred: Pred{Valid: true, Reg: A(0)}}),
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}), // region start
		pk(Inst{Op: HALT}),
	}
	cfg := FuseConfig{RegionOf: regions(len(packets), 0, 1, 5)}
	full := mustFuse(t, &Program{Packets: packets}, cfg)

	cfg.MaxSegments = 1
	prog := &Program{Packets: packets}
	fp := mustFuse(t, prog, cfg)
	if fp.Entries() != 1 || fp.Segments() >= full.Segments() {
		t.Fatalf("budget 1: %d entries, %d segments (unbounded: %d); want the program entry alone and stubs that trace no further",
			fp.Entries(), fp.Segments(), full.Segments())
	}
	s := NewSim(prog, newTestMem())
	if err := s.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	s.SetPC(1)
	if s.FusedEntryOK() {
		t.Fatal("stub advertised as a fused entry")
	}
	s.SetPC(0)
	if !s.FusedEntryOK() {
		t.Fatal("program entry not a fused entry")
	}
	_, fs := runTriple(t, cfg, packets...)
	es := fs.EngineStats()
	if es.DeoptsBy[DeoptBudgetStub] != 1 || es.Deopts() != 1 || es.GenericPackets == 0 {
		t.Fatalf("%+v, want one budget-stub deopt and the rest of the run on the generic engine", es)
	}
	if fs.Reg(A(1)) != 3 || fs.Reg(A(2)) != 2 {
		t.Fatalf("A1=%d A2=%d, want 3 and 2", fs.Reg(A(1)), fs.Reg(A(2)))
	}
}

func TestFuseRejectsIssueViolations(t *testing.T) {
	prog := &Program{Packets: []Packet{
		pk(Inst{Op: HALT}),
		pk( // unit conflict
			Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(2)), Src2: R(A(3))},
			Inst{Op: SUB, Unit: L1, Dst: A(4), Src1: R(A(5)), Src2: R(A(6))},
		),
	}}
	if _, err := Fuse(prog, FuseConfig{}); err == nil {
		t.Fatal("fuse accepted a unit conflict")
	} else if se, ok := err.(*SimError); !ok || se.Packet != 1 {
		t.Fatalf("want SimError at packet 1, got %v", err)
	}
}

func TestUseFusedRejectsForeignProgram(t *testing.T) {
	a := &Program{Packets: []Packet{pk(Inst{Op: HALT})}}
	b := &Program{Packets: []Packet{pk(Inst{Op: HALT})}}
	fp, err := Fuse(a, FuseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := NewSim(b, newTestMem()).UseFused(fp); err == nil {
		t.Fatal("attached a fused program to a different program's sim")
	}
}

// TestFuseCachedSharesFusion: FuseCached memoizes one build per program
// and segment length — a second caller gets the first build, and the
// unfused build of a program is not its fused one.
func TestFuseCachedSharesFusion(t *testing.T) {
	prog := &Program{Packets: []Packet{pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}), pk(Inst{Op: HALT})}}
	fuse := func(segPkts int) *FusedProgram {
		t.Helper()
		fp, err := FuseCached(prog, FuseConfig{MaxSegPackets: segPkts})
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	fused, unfused := fuse(64), fuse(1)
	if fuse(0) != fused || fuse(64) != fused || fuse(1) != unfused {
		t.Fatal("FuseCached rebuilt a memoized build")
	}
	if unfused == fused || unfused.LongestSegment() != 1 || fused.LongestSegment() != 2 {
		t.Fatalf("lengths 1 and 64 share a build (longest segments %d and %d, want 1 and 2)",
			unfused.LongestSegment(), fused.LongestSegment())
	}
}

// pktMem records Sim.MemPkt at every store: the contract platform's
// source-instruction attribution relies on.
type pktMem struct {
	*testMem
	s    *Sim
	pkts []int
}

func (m *pktMem) Store(addr uint32, val uint32, size int, cycle int64) (int64, error) {
	m.pkts = append(m.pkts, m.s.MemPkt())
	return m.testMem.Store(addr, val, size, cycle)
}

// TestMemPktOnStores: inside a Store callback MemPkt names the storing
// packet, identically on the interpreter and on fused code at one and at
// 64 packets per segment.
func TestMemPktOnStores(t *testing.T) {
	packets := genLegalProgram(rand.New(rand.NewSource(7)))
	run := func(segPkts int) []int {
		prog := &Program{Packets: packets}
		m := &pktMem{testMem: newTestMem()}
		m.s = NewSim(prog, m)
		if segPkts == 0 {
			if err := m.s.Run(); err != nil {
				t.Fatal(err)
			}
			return m.pkts
		}
		cfg := FuseConfig{RegionOf: regions(len(packets), 0), ConstRegs: []Reg{B(7)}, MaxSegPackets: segPkts}
		if err := m.s.UseFused(mustFuse(t, prog, cfg)); err != nil {
			t.Fatal(err)
		}
		if err := m.s.RunFused(); err != nil {
			t.Fatal(err)
		}
		if es := m.s.EngineStats(); es.GenericPackets != 0 {
			t.Fatalf("length %d left fused code: %+v", segPkts, es)
		}
		return m.pkts
	}
	want := run(0)
	if len(want) < 3 {
		t.Fatalf("program performed %d stores, want several", len(want))
	}
	for _, n := range []int{1, 64} {
		if got := run(n); !slices.Equal(got, want) {
			t.Errorf("length %d: store packets %v, interpreter %v", n, got, want)
		}
	}
}

// TestFusedMatchesInterpreterRandom: the engine-differential property
// test, with region starts sprinkled at random strides — segmentation
// must never change semantics.
func TestFusedMatchesInterpreterRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		packets := genLegalProgram(r)
		stride := 2 + r.Intn(6)
		var starts []int
		for i := 0; i < len(packets); i += stride {
			starts = append(starts, i)
		}
		cfg := FuseConfig{RegionOf: regions(len(packets), starts...)}
		if seed&1 == 0 {
			cfg.ConstRegs = []Reg{B(7)} // the subroutine returns through its table; else every return misses
		}
		is, _ := runTriple(t, cfg, packets...)
		return is.Halted()
	}
	cfg := &quick.Config{MaxCount: 120}
	if testing.Short() {
		cfg.MaxCount = 20
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFusedSteadyStateAllocs: steady-state fused execution performs zero
// heap allocations, including the boundary-hook path.
func TestFusedSteadyStateAllocs(t *testing.T) { fusedSteadyStateAllocs(t, 0) }

// fusedSteadyStateAllocs runs allocLoop, its loop head a region start,
// fused at segment length segPkts and fails on any steady-state
// allocation.
func fusedSteadyStateAllocs(t *testing.T, segPkts int) {
	prog := &Program{Packets: allocLoop}
	fp := mustFuse(t, prog, FuseConfig{RegionOf: regions(len(allocLoop), 2), MaxSegPackets: segPkts})
	s := NewSim(prog, newAllocFreeMem())
	s.MaxCycles = 1 << 50
	if err := s.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	n := 0
	hook := func() (bool, error) { n++; return n%16 == 0, nil }
	run := func() {
		if _, err := s.StepFused(hook); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm
	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 {
		t.Fatalf("steady-state fused execution allocates: %.1f allocs per 16 iterations", allocs)
	}
}

// TestFusedSelfReadWritesDirect: an instruction that reads its own
// destination at issue (MVKH always does) still writes the register
// file directly — one op — because its read precedes its write inside
// that op. Only another same-packet reader of the register forces the
// value through a slot and a commit op, since that reader must see the
// old value. Seeded from a constant in the same segment, B3 is known at
// fuse time instead: the same writes fold and cost no op of their own.
func TestFusedSelfReadWritesDirect(t *testing.T) {
	seed := pk(Inst{Op: MVK, Unit: S2, Dst: B(3), Src2: Imm(0x1234)})
	// ops returns the op count of the packets under test, in the segment
	// that starts at packet first (1: the second seed is in it, 2: it is
	// not) and ends in the halt exit.
	ops := func(first int, packets ...Packet) int {
		t.Helper()
		packets = append([]Packet{seed, seed}, packets...)
		packets = append(packets, pk(Inst{Op: HALT}))
		_, fs := runTriple(t, FuseConfig{RegionOf: regions(len(packets), 0, first)}, packets...)
		if fs.EngineStats().GenericPackets != 0 {
			t.Fatalf("left fused code: %+v", fs.EngineStats())
		}
		seg := fs.fused.segs[1]
		if seg.pkt != first {
			t.Fatalf("segment 1 starts at packet %d, want %d", seg.pkt, first)
		}
		return len(seg.ops) - 1 // the halt exit
	}
	mvkh := Inst{Op: MVKH, Unit: S2, Dst: B(3), Src2: Imm(0x5678)}
	inc := Inst{Op: ADD, Unit: L2, Dst: B(3), Src1: R(B(3)), Src2: Imm(1)}
	reader := Inst{Op: MV, Unit: L2, Dst: B(4), Src1: R(B(3))}
	for _, c := range []struct {
		name        string
		packet      Packet
		seeded, run int // ops after a non-constant seed (B3 unknown), after a constant one (folded)
	}{
		{"lone MVKH", pk(mvkh), 1, 0},
		{"self-incrementing ADD", pk(inc), 1, 0},
		{"MVKH with a foreign same-packet reader", pk(mvkh, reader), 3, 2}, // slot write, the reader, commit; folded: the reader
	} {
		if n := ops(2, c.packet); n != c.seeded {
			t.Errorf("%s on an unknown B3 lowered to %d ops, want %d", c.name, n, c.seeded)
		}
		if n := ops(1, c.packet); n != c.run {
			t.Errorf("%s on a constant B3 lowered to %d ops, want %d", c.name, n, c.run)
		}
	}
}

// TestFusedMemoryFaultExact: a memory op faulting inside a fused segment
// returns the interpreter's error — packet, cycle, text — and leaves the
// interpreter's Stats (no counter lags: memFault adds the faulting
// packet's share of the folded counts). What does differ is named here:
// an instruction issued earlier in the faulting packet whose result goes
// straight to the register file has already written it, where the
// interpreter drops the packet's writebacks; errors are terminal.
func TestFusedMemoryFaultExact(t *testing.T) {
	const bad = 0x300
	setup := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(bad)}, Inst{Op: MVK, Unit: S2, Dst: B(1), Src2: Imm(3)}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(1)), Src2: Imm(1)}, Inst{Op: ADD, Unit: L2, Dst: B(2), Src1: R(B(1)), Src2: Imm(1)}),
		pk(Inst{Op: NOP, NopCycles: 3}),
	}
	cases := map[string]struct {
		fault  Packet
		differ Reg // the one register allowed to differ (NoReg: none)
	}{
		"load":           {pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}), NoReg},
		"predicated":     {pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0), Pred: Pred{Valid: true, Reg: A(1)}}), NoReg},
		"store":          {pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}), NoReg},
		"after-parallel": {pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(1)), Src2: Imm(1)}, Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}), A(3)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			packets := append(append([]Packet(nil), setup...), tc.fault, pk(Inst{Op: NOP, NopCycles: 4}), pk(Inst{Op: HALT}))
			mem := func() *testMem { m := newTestMem(); m.faultAddr = bad; return m }
			is := NewSim(&Program{Packets: packets}, mem())
			ierr := is.Run()
			prog := &Program{Packets: packets}
			fs := NewSim(prog, mem())
			if err := fs.UseFused(mustFuse(t, prog, FuseConfig{RegionOf: regions(len(packets), 0)})); err != nil {
				t.Fatal(err)
			}
			ferr := fs.RunFused()
			if ierr == nil || ferr == nil || ierr.Error() != ferr.Error() {
				t.Fatalf("errors differ:\n  interp: %v\n  fused:  %v", ierr, ferr)
			}
			if se := ferr.(*SimError); se.Packet != len(setup) || se.Cycle != is.Cycle() {
				t.Fatalf("fault at packet %d cycle %d, want %d and %d", se.Packet, se.Cycle, len(setup), is.Cycle())
			}
			if is.Stats() != fs.Stats() || fs.EngineStats().GenericPackets != 0 {
				t.Fatalf("stats differ (or the fault ran on generic code):\n  interp: %+v\n  fused:  %+v", is.Stats(), fs.Stats())
			}
			for r := range is.Regs {
				if is.Regs[r] != fs.Regs[r] && Reg(r) != tc.differ {
					t.Errorf("%s = %#x, interpreter has %#x", Reg(r), fs.Regs[r], is.Regs[r])
				}
			}
			if tc.differ != NoReg && is.Regs[tc.differ] == fs.Regs[tc.differ] {
				t.Errorf("%s equal: the documented difference is gone, update the comment", tc.differ)
			}
		})
	}
}

// TestFusedDirectALUShapes runs every op the table gives a kernel in
// every operand shape — register/register, register/immediate,
// immediate/register, reading its own destination, predicated on and
// off, and a slot write (a same-packet reader of the destination) —
// against the interpreter and the unfused build, on operands that
// separate the signed, unsigned and shift-masking cases.
func TestFusedDirectALUShapes(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(-3)}, Inst{Op: MVK, Unit: S2, Dst: B(1), Src2: Imm(0x1234)}),
		pk(Inst{Op: MVKH, Unit: S2, Dst: B(1), Src2: Imm(0x8765)}, Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(37)}),
		pk(Inst{Op: MV, Unit: L1, Dst: A(3), Src1: R(B(1))}),
	}
	dst := 4
	for op := Op(0); op < NumOps; op++ {
		if op.IsMem() || opTable[op].kernel == nil {
			continue
		}
		u := UnitFor(op.UnitKinds()[0], SideA)
		on, off := Pred{Valid: true, Reg: A(2)}, Pred{Valid: true, Neg: true, Reg: A(2)}
		for _, sh := range []Inst{
			{Src1: R(A(1)), Src2: R(A(2))},
			{Src1: R(A(1)), Src2: R(A(3))},
			{Src1: R(A(1)), Src2: Imm(-3)},
			{Src1: R(A(1)), Src2: Imm(5)},
			{Src1: Imm(-3), Src2: R(A(3))},
			{Src1: R(A(dst)), Src2: R(A(1))},
			{Src1: R(A(1)), Src2: R(A(3)), Pred: on},
			{Src1: R(A(1)), Src2: R(A(3)), Pred: off},
		} {
			sh.Op, sh.Unit, sh.Dst = op, u, A(dst)
			packets = append(packets, pk(sh))
			if op.Latency() > 1 {
				packets = append(packets, pk(Inst{Op: NOP, NopCycles: op.Latency() - 1}))
			}
			dst = 4 + (dst-3)%20
		}
		packets = append(packets, pk(
			Inst{Op: op, Unit: u, Dst: A(dst), Src1: R(A(1)), Src2: R(A(3))},
			Inst{Op: MV, Unit: D1, Dst: A(24), Src1: R(A(dst))},
		), pk(Inst{Op: NOP, NopCycles: op.Latency()}))
	}
	packets = append(packets, pk(Inst{Op: HALT}))
	_, fs := runTriple(t, FuseConfig{RegionOf: regions(len(packets), 0)}, packets...)
	if es := fs.EngineStats(); es.GenericPackets != 0 || es.Deopts() != 0 {
		t.Fatalf("left fused code: %+v", es)
	}
}

// devMem is a test memory with a device at [devBase, devBase+16) that
// logs the cycle of every access and, like the sync device's drain,
// stalls a load there until an absolute cycle: a wrong clock shows.
type devMem struct {
	*testMem
	log []int64
}

const devBase, devDoneAt = 0x300, 40

func (m *devMem) Load(addr uint32, size int, cycle int64) (uint32, int64, error) {
	m.log = append(m.log, cycle)
	v, cont, err := m.testMem.Load(addr, size, cycle)
	if addr-devBase < 16 {
		cont = max(cont, devDoneAt)
	}
	return v, cont, err
}

func (m *devMem) Store(addr uint32, val uint32, size int, cycle int64) (int64, error) {
	m.log = append(m.log, cycle)
	return m.testMem.Store(addr, val, size, cycle)
}

// TestFusedBoundAccess: Volatile ops bound to a direct handler
// (FuseConfig.Bind) run it in place of the MemPort with the
// interpreter's clock, though their packets pay no accounting sync: the
// bound ops here follow a stalling unbound load in one segment. A
// handler that declines (the address is not its device) hands the
// access to the MemPort, and a fault there leaves the interpreter's
// error and Stats. The handler is the test memory itself, so only the
// binding is under test.
func TestFusedBoundAccess(t *testing.T) {
	const bad = 0x500
	vol := func(in Inst) Inst { in.Volatile = true; return in }
	program := func(base int32) []Packet {
		return []Packet{
			pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(base)}, Inst{Op: MVK, Unit: S2, Dst: B(6), Src2: Imm(devBase)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x2A)}),
			pk(Inst{Op: LDW, Unit: D2, Dst: B(7), Src1: R(B(6)), Src2: Imm(0)}), // unbound, stalls
			pk(vol(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(8)})),
			pk(vol(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)})),
			pk(Inst{Op: NOP, NopCycles: 4}),
			pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: R(A(2))}),
			pk(Inst{Op: STW, Unit: D2, Data: B(7), Src1: R(B(6)), Src2: Imm(12)}, vol(Inst{Op: STW, Unit: D1, Data: A(3), Src1: R(A(5)), Src2: Imm(4)})), // two memory ops: not bound
			pk(vol(Inst{Op: LDW, Unit: D1, Dst: A(4), Src1: R(A(5)), Src2: Imm(0)})),
			pk(Inst{Op: NOP, NopCycles: 4}),
			pk(Inst{Op: HALT}),
		}
	}
	calls := 0
	handler := func(mem MemPort, addr, val uint32, now int64) (uint32, int64, bool) {
		m, ok := mem.(*devMem)
		if !ok || addr-devBase >= 16 {
			return 0, 0, false
		}
		calls++
		if val != 0 {
			cont, _ := m.Store(addr, val, 4, now)
			return 0, cont, true
		}
		v, cont, _ := m.Load(addr, 4, now)
		return v, cont, true
	}
	cfg := FuseConfig{
		RegionOf: regions(11, 0),
		Bind: func(pkt int, in Inst) DeviceAccess {
			if in.Src1.Reg != A(5) {
				t.Errorf("packet %d: asked to bind %v", pkt, in)
			}
			return handler
		},
	}
	for _, c := range []struct {
		name      string
		base      int32
		calls     int
		fallbacks int64
	}{
		{"bound", devBase, 3, 0},
		{"declined", 0x600, 0, 3},
		{"load-fault", bad, 0, 2},
		{"store-fault", bad - 8, 0, 1},
	} {
		calls = 0
		prog := &Program{Packets: program(c.base)}
		newMem := func() *devMem { m := &devMem{testMem: newTestMem()}; m.faultAddr = bad; return m }
		im, fm := newMem(), newMem()
		is, fs := NewSim(prog, im), NewSim(prog, fm)
		if err := fs.UseFused(mustFuse(t, prog, cfg)); err != nil {
			t.Fatal(err)
		}
		ierr, ferr := is.Run(), fs.RunFused()
		if fmt.Sprint(ierr) != fmt.Sprint(ferr) || is.Regs != fs.Regs || is.Stats() != fs.Stats() || !reflect.DeepEqual(im.log, fm.log) || !reflect.DeepEqual(im.ram, fm.ram) {
			t.Errorf("%s: fused differs from the interpreter:\n  interp: %v %+v %v\n  fused:  %v %+v %v", c.name, ierr, is.Stats(), im.log, ferr, fs.Stats(), fm.log)
		}
		es := fs.EngineStats()
		if calls != c.calls || es.BoundSites != 3 || es.DeviceFallbacks != c.fallbacks || es.GenericPackets != 0 {
			t.Errorf("%s: %d handler calls, engine %+v; want %d calls, 3 sites, %d fallbacks", c.name, calls, es, c.calls, c.fallbacks)
		}
		if c.name == "bound" && is.Stats().StallCycles == 0 {
			t.Errorf("%s: no stall exercised", c.name)
		}
	}
}
