package c6x

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

const noFault = 0xFFFFFFFF // a faulting address no test program reaches

// The folding rule (fuse.go, fold and land): a constant register write
// emits no op, and its value reaches the register file at the first op
// that can observe it. The tests below put every kind of observer after
// every kind of producer and compare fused code with the interpreter
// where the observer runs.

// foldProducers are the writes that fold, each leaving a nonzero
// constant in A4; the first packet also folds the fault base A5.
func foldProducers(bad int32) map[string][]Packet {
	base := Inst{Op: MVK, Unit: S2, Dst: A(5), Src2: Imm(bad)}
	return map[string][]Packet{
		"mvk":     {pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(0x1234)}, base)},
		"mvkh":    {pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(0x1234)}, base), pk(Inst{Op: MVKH, Unit: S1, Dst: A(4), Src2: Imm(0xBEEF)})},
		"alu-imm": {pk(Inst{Op: ADD, Unit: L1, Dst: A(4), Src1: Imm(0x700), Src2: Imm(0x34)}, base)},
	}
}

// regMem is a test memory that records A4 as the core's register file
// holds it at every access: a MemPort may read the registers (the
// platform's bus time stamp reads the correction register).
type regMem struct {
	*testMem
	s    *Sim
	seen []uint32
}

func (m *regMem) Load(addr uint32, size int, cycle int64) (uint32, int64, error) {
	m.seen = append(m.seen, m.s.Regs[A(4)])
	return m.testMem.Load(addr, size, cycle)
}

func (m *regMem) Store(addr uint32, val uint32, size int, cycle int64) (int64, error) {
	m.seen = append(m.seen, m.s.Regs[A(4)])
	return m.testMem.Store(addr, val, size, cycle)
}

// foldRun runs packets on the interpreter and fused under cfg at one
// and at 64 packets per segment, and requires equal error texts,
// registers (but differ, which fused code has already written: see
// TestFusedMemoryFaultExact), Stats, cycles, memory, the A4 every memory
// access saw and, unless fused code itself errs (it flushes no window
// then), the pending window. bad is the faulting address.
func foldRun(t *testing.T, cfg FuseConfig, bad uint32, differ Reg, packets ...Packet) {
	t.Helper()
	run := func(fp func(*Program) *FusedProgram) (*Sim, *regMem, error) {
		prog := &Program{Packets: packets}
		m := &regMem{testMem: newTestMem()}
		m.faultAddr = bad
		m.s = NewSim(prog, m)
		if fp == nil {
			return m.s, m, m.s.Run()
		}
		if err := m.s.UseFused(fp(prog)); err != nil {
			t.Fatal(err)
		}
		return m.s, m, m.s.RunFused()
	}
	is, im, ierr := run(nil)
	for _, n := range []int{1, 64} {
		c := cfg
		c.MaxSegPackets = n
		fs, fm, ferr := run(func(p *Program) *FusedProgram { return mustFuse(t, p, c) })
		if fmt.Sprint(ierr) != fmt.Sprint(ferr) || is.Stats() != fs.Stats() || is.Cycle() != fs.Cycle() {
			t.Fatalf("length %d: interp %v %+v, fused %v %+v", n, ierr, is.Stats(), ferr, fs.Stats())
		}
		for r := range is.Regs {
			if is.Regs[r] != fs.Regs[r] && Reg(r) != differ {
				t.Errorf("length %d: %s = %#x, interpreter has %#x", n, Reg(r), fs.Regs[r], is.Regs[r])
			}
		}
		if !slices.Equal(im.seen, fm.seen) || !reflect.DeepEqual(im.ram, fm.ram) {
			t.Errorf("length %d: memory saw A4 %#x, interpreter %#x (or memory differs)", n, fm.seen, im.seen)
		}
		if (ferr == nil || fs.EngineStats().GenericPackets != 0) && !slices.Equal(is.pending, fs.pending) {
			t.Errorf("length %d: pending %+v, interpreter %+v", n, fs.pending, is.pending)
		}
	}
}

// TestFusedFoldedProducers: each producer alone, then HALT, is one op:
// the exit, which lands the constants.
func TestFusedFoldedProducers(t *testing.T) {
	for name, prod := range foldProducers(0x300) {
		packets := append(slices.Clone(prod), pk(Inst{Op: HALT}))
		fp := mustFuse(t, &Program{Packets: packets}, FuseConfig{})
		if n := len(fp.segs[0].ops); n != 1 {
			t.Errorf("%s: %d ops, want 1 (the halt exit)", name, n)
		}
		foldRun(t, FuseConfig{}, noFault, NoReg, packets...)
	}
}

// TestFusedFoldMemoryFault: a faulting load and a faulting store after
// each producer, zero to two packets later, first or second in their
// packet beside a folded MVK B2. The fault sees the landed constants;
// B2 differs only where it precedes the fault in the packet, the
// difference TestFusedMemoryFaultExact names for a direct write.
func TestFusedFoldMemoryFault(t *testing.T) {
	const bad = 0x300
	fill := pk(Inst{Op: ADD, Unit: L2, Dst: B(1), Src1: R(B(1)), Src2: Imm(1)})
	mvk := Inst{Op: MVK, Unit: S2, Dst: B(2), Src2: Imm(7)}
	faults := map[string]Inst{
		"load":  {Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)},
		"store": {Op: STW, Unit: D1, Data: A(4), Src1: R(A(5)), Src2: Imm(0)},
	}
	for pname, prod := range foldProducers(bad) {
		for fname, fault := range faults {
			for gap := 0; gap < 3; gap++ {
				for _, first := range []bool{true, false} {
					t.Run(fmt.Sprintf("%s/%s/gap%d/first=%v", pname, fname, gap, first), func(t *testing.T) {
						packets := slices.Clone(prod)
						for i := 0; i < gap; i++ {
							packets = append(packets, fill)
						}
						differ := NoReg
						if first {
							packets = append(packets, pk(fault, mvk))
						} else {
							packets = append(packets, pk(mvk, fault))
							differ = B(2)
						}
						packets = append(packets, pk(Inst{Op: NOP, NopCycles: 4}), pk(Inst{Op: HALT}))
						foldRun(t, FuseConfig{}, bad, differ, packets...)
					})
				}
			}
		}
	}
}

// TestFusedFoldObservers: the other observers after each producer, in a
// later packet: a bound device access, predicated readers (an ALU op,
// a HALT, a branch), conditional forks on a branch and on a HALT, a
// same-packet reader, overwrites by a load, an ALU op, a predicated-off
// ALU op and a commit, and a deopt (an in-flight read, on which the
// interpreter errors). A reader of A4 follows each.
func TestFusedFoldObservers(t *testing.T) {
	vol := Inst{Op: STW, Unit: D1, Data: A(4), Src1: R(A(6)), Src2: Imm(devBase), Volatile: true}
	on, off := Pred{Valid: true, Reg: A(4)}, Pred{Valid: true, Neg: true, Reg: A(4)}
	observers := map[string][]Packet{
		"bound":           {pk(vol)},
		"predicated-on":   {pk(Inst{Op: ADD, Unit: L2, Pred: on, Dst: B(3), Src1: R(B(3)), Src2: Imm(1)})},
		"predicated-off":  {pk(Inst{Op: ADD, Unit: L2, Pred: off, Dst: B(3), Src1: R(B(3)), Src2: Imm(1)})},
		"predicated-halt": {pk(Inst{Op: HALT, Pred: on})},
		"same-packet":     {pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(99)}, Inst{Op: ADD, Unit: L2, Dst: B(3), Src1: R(A(4)), Src2: Imm(1)})},
		"load":            {pk(Inst{Op: LDW, Unit: D1, Dst: A(4), Src1: R(A(6)), Src2: Imm(0x40)}), pk(Inst{Op: NOP, NopCycles: 4})},
		"alu":             {pk(Inst{Op: ADD, Unit: L1, Dst: A(4), Src1: R(A(7)), Src2: Imm(1)})},
		"alu-pred-off":    {pk(Inst{Op: MV, Unit: L1, Pred: Pred{Valid: true, Reg: B(0)}, Dst: A(4), Src1: R(A(7))})},
		"commit":          {pk(Inst{Op: MPY, Unit: M1, Dst: A(4), Src1: R(A(7)), Src2: R(A(7))}), pk(Inst{Op: NOP})},
		"deopt":           {pk(Inst{Op: MPY, Unit: M1, Dst: A(2), Src1: R(A(7)), Src2: R(A(7))}), pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: Imm(1)})},
	}
	reader := pk(Inst{Op: ADD, Unit: L2, Dst: B(4), Src1: R(A(4)), Src2: Imm(2)}) // after the observer: A4 is as known as it should be
	calls := 0
	cfg := FuseConfig{Bind: func(int, Inst) DeviceAccess {
		return func(mem MemPort, addr, val uint32, now int64) (uint32, int64, bool) {
			calls++
			cont, err := mem.Store(addr, val, 4, now)
			return 0, cont, err == nil
		}
	}}
	for pname, prod := range foldProducers(0x300) {
		// Taken, a branch skips the MVK after its delay slots. The fork on
		// B0 (zero) reads no pending register: its terminal lands A4, as
		// the guarded HALT's does.
		skip := func(p Pred) []Packet {
			return []Packet{pk(Inst{Op: BPKT, Unit: S1, Pred: p, Target: len(prod) + 3}), pk(Inst{Op: NOP, NopCycles: 5}), pk(Inst{Op: MVK, Unit: S2, Dst: B(5), Src2: Imm(1)})}
		}
		observers["predicated-branch"] = skip(on)
		observers["fork"] = skip(Pred{Valid: true, Neg: true, Reg: B(0)})
		observers["halt-fork"] = []Packet{pk(Inst{Op: HALT, Pred: Pred{Valid: true, Neg: true, Reg: B(0)}})}
		for oname, obs := range observers {
			t.Run(pname+"/"+oname, func(t *testing.T) {
				packets := append(append(slices.Clone(prod), obs...), reader, pk(Inst{Op: HALT}))
				foldRun(t, cfg, noFault, NoReg, packets...)
			})
		}
	}
	if calls == 0 {
		t.Error("the bound access never ran its handler")
	}
}

// TestFusedFoldHookStop: a region boundary right after each producer,
// with a load issued before it in flight across it: at the hook stop the
// constants have landed and the window is flushed, as the interpreter
// has them there.
func TestFusedFoldHookStop(t *testing.T) {
	for pname, prod := range foldProducers(0x300) {
		packets := append([]Packet{pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(6)), Src2: Imm(0)})}, prod...)
		packets = append(packets, pk(Inst{Op: NOP, NopCycles: 4}), pk(Inst{Op: HALT}))
		type stop struct {
			pc      int
			regs    [2 * NumRegs]uint32
			pending []writeback
		}
		var stops [2][]stop // interpreter, fused
		cfg := FuseConfig{RegionOf: regions(len(packets), 0, 1+len(prod))}
		is, fs := stopEveryBoundary(t, cfg, func(s *Sim) {
			i := 0
			if s.Fused() {
				i = 1
			}
			stops[i] = append(stops[i], stop{s.PC(), s.Regs, slices.Clone(s.pending)})
		}, packets...)
		if !reflect.DeepEqual(stops[0], stops[1]) || len(stops[0]) != 1 || len(stops[0][0].pending) != 1 {
			t.Errorf("%s: stops differ (want one, with the load in flight):\n  interp: %+v\n  fused:  %+v", pname, stops[0], stops[1])
		}
		if is.Regs[A(4)] == 0 || fs.EngineStats().HookStops != 1 {
			t.Errorf("%s: A4 %#x, %d hook stops", pname, is.Regs[A(4)], fs.EngineStats().HookStops)
		}
	}
}
