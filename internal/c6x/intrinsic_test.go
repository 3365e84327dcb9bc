package c6x

import (
	"encoding/binary"
	"testing"
)

// The intrinsic contract (intrinsic.go): a declared routine becomes one
// op only after fuse-time validation, every other outcome keeps the
// generic lowering, and either way the run is bit-identical to the
// interpreter. The fixture is a two-path "install" routine over testMem
// — compare the word at *B24 with A24; on a difference store A24 there
// and add 8 to B30 — called from several sites with both outcomes. Each
// test reads the counters (sites by outcome, IntrinsicRuns), so none can
// pass by silently running the other lowering.

const (
	fakeAddr = 0x100
	fakeTag  = 7
)

// fakeInstall is the routine's effect. broken drops the penalty add on
// the miss path, the deliberate one-path bug.
func fakeInstall(broken bool) func(MemPort, *[2 * NumRegs]uint32) int {
	return func(mem MemPort, r *[2 * NumRegs]uint32) int {
		m := mem.(*testMem)
		if r[B(24)] != fakeAddr {
			return -1 // models one word only
		}
		w, _, _ := m.Load(fakeAddr, 4, 0)
		r[A(26)] = w
		if w == r[A(24)] {
			r[A(28)], r[A(27)] = 1, 1
			return 0
		}
		r[A(28)] = 0
		m.Store(fakeAddr, r[A(24)], 4, 0)
		if !broken {
			r[B(30)] += 8
		}
		return 1
	}
}

// fakeTrial drives the hit path (i = 0) or the miss path (i = 1).
func fakeTrial(i int) (MemPort, [2 * NumRegs]uint32, func() []byte) {
	m := newTestMem()
	m.Store(fakeAddr, uint32(fakeTag+i), 4, 0)
	m.Store(fakeAddr+4, 0xEEEEEEEE, 4, 0)
	var regs [2 * NumRegs]uint32
	for k := range regs {
		regs[k] = 0x5A5A0000 + uint32(k)
	}
	regs[A(24)], regs[B(24)], regs[B(30)] = fakeTag, fakeAddr, 5
	return m, regs, func() []byte {
		var b []byte
		for a := uint32(fakeAddr); a < fakeAddr+8; a += 4 {
			w, _, _ := m.Load(a, 4, 0)
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
}

// fakeProgram calls the routine three times — miss (memory starts
// zero), hit, miss with a new tag — plus once more at another address
// when stray is set. lastSlot fills the final delay slot of the second
// call (nil = NOP): an instruction issued there is in flight at the
// routine's entry. body, if non-nil, replaces the routine's first packet.
func fakeProgram(effect func(MemPort, *[2 * NumRegs]uint32) int, lastSlot *Inst, stray bool, body *Packet) ([]Packet, FuseConfig) {
	var packets []Packet
	emit := func(insts ...Inst) { packets = append(packets, pk(insts...)) }
	var calls []int
	call := func(slot *Inst) {
		emit(Inst{Op: MVK, Unit: S2, Dst: B(26), Src2: Imm(int32(len(packets) + 4)), SymImm: true})
		calls = append(calls, len(packets))
		emit(Inst{Op: BPKT, Unit: S1})
		if slot == nil {
			emit(Inst{Op: NOP, NopCycles: 5})
			emit(Inst{Op: NOP, NopCycles: 1}) // keeps both shapes four packets
		} else {
			emit(Inst{Op: NOP, NopCycles: 4})
			emit(*slot)
		}
	}
	emit(Inst{Op: MVK, Unit: S1, Dst: A(24), Src2: Imm(fakeTag)}, Inst{Op: MVK, Unit: S2, Dst: B(24), Src2: Imm(fakeAddr)})
	emit(Inst{Op: MVK, Unit: S2, Dst: B(30), Src2: Imm(0)}, Inst{Op: MVK, Unit: S1, Dst: A(10), Src2: Imm(fakeAddr)})
	call(nil)
	call(lastSlot)
	emit(Inst{Op: MVK, Unit: S1, Dst: A(24), Src2: Imm(fakeTag + 2)})
	call(nil)
	if stray {
		emit(Inst{Op: MVK, Unit: S2, Dst: B(24), Src2: Imm(fakeAddr + 0x40)})
		call(nil)
	}
	emit(Inst{Op: NOP, NopCycles: 5}) // lets a carried load land before the halt
	emit(Inst{Op: HALT})

	entry := len(packets)
	for _, c := range calls {
		packets[c].Insts[0].Target = entry
	}
	if body != nil {
		packets = append(packets, *body)
	} else {
		emit(Inst{Op: LDW, Unit: D2, Dst: A(26), Src1: R(B(24)), Src2: Imm(0)})
	}
	emit(Inst{Op: NOP, NopCycles: 4})
	emit(Inst{Op: CMPEQ, Unit: L1, Dst: A(28), Src1: R(A(26)), Src2: R(A(24))})
	emit(Inst{Op: BPKT, Unit: S1, Target: entry + 7, Pred: Pred{Valid: true, Reg: A(28)}})
	emit(Inst{Op: NOP, NopCycles: 5})
	emit(Inst{Op: STW, Unit: D2, Data: A(24), Src1: R(B(24)), Src2: Imm(0)},
		Inst{Op: ADD, Unit: L2, Dst: B(30), Src1: R(B(30)), Src2: Imm(8)},
		Inst{Op: BREG, Unit: S2, Src1: R(B(26))})
	emit(Inst{Op: NOP, NopCycles: 5})
	emit(Inst{Op: MVK, Unit: S1, Dst: A(27), Src2: Imm(1)}, Inst{Op: BREG, Unit: S2, Src1: R(B(26))})
	emit(Inst{Op: NOP, NopCycles: 5})

	in := Intrinsic{Entry: entry, End: len(packets), Effect: effect, Paths: 2, Trials: 2, Trial: fakeTrial}
	return packets, FuseConfig{RegionOf: regions(len(packets), 0, 2), ConstRegs: []Reg{B(26)}, Intrinsics: []Intrinsic{in}}
}

func TestIntrinsic(t *testing.T) {
	carried := Inst{Op: LDW, Unit: D1, Dst: A(5), Src1: R(A(10)), Src2: Imm(4)}   // lands inside the routine, in no register of it
	touching := Inst{Op: LDW, Unit: D1, Dst: A(27), Src1: R(A(10)), Src2: Imm(4)} // lands in a register the hit path writes later
	predicated := pk(Inst{Op: LDW, Unit: D2, Dst: A(26), Src1: R(B(24)), Src2: Imm(0)},
		Inst{Op: MVK, Unit: S1, Dst: A(29), Src2: Imm(3), Pred: Pred{Valid: true, Reg: A(24)}})
	uncovered := func(int) (MemPort, [2 * NumRegs]uint32, func() []byte) { return fakeTrial(0) }

	cases := []struct {
		name     string
		effect   func(MemPort, *[2 * NumRegs]uint32) int
		lastSlot *Inst
		stray    bool
		body     *Packet
		trial    func(int) (MemPort, [2 * NumRegs]uint32, func() []byte)
		sites    [NumIntrinsicOutcomes]int64
		runs     int64
	}{
		{name: "compiled", effect: fakeInstall(false), sites: [NumIntrinsicOutcomes]int64{IntrinsicCompiled: 1}, runs: 3},
		{name: "declined-call-runs-generic", effect: fakeInstall(false), stray: true, sites: [NumIntrinsicOutcomes]int64{IntrinsicCompiled: 1}, runs: 3},
		{name: "window-carried-through", effect: fakeInstall(false), lastSlot: &carried, sites: [NumIntrinsicOutcomes]int64{IntrinsicCompiled: 2}, runs: 3},
		{name: "window-touches-routine", effect: fakeInstall(false), lastSlot: &touching, sites: [NumIntrinsicOutcomes]int64{IntrinsicCompiled: 1, IntrinsicEntryState: 1}, runs: 2},
		{name: "wrong-on-one-path", effect: fakeInstall(true), sites: [NumIntrinsicOutcomes]int64{IntrinsicRejected: 1}},
		{name: "path-no-trial-takes", effect: fakeInstall(false), trial: uncovered, sites: [NumIntrinsicOutcomes]int64{IntrinsicRejected: 1}},
		{name: "no-effect", sites: [NumIntrinsicOutcomes]int64{IntrinsicNoEffect: 1}},
		{name: "predicated-instruction", effect: fakeInstall(false), body: &predicated, sites: [NumIntrinsicOutcomes]int64{IntrinsicShape: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			packets, cfg := fakeProgram(tc.effect, tc.lastSlot, tc.stray, tc.body)
			if tc.trial != nil {
				cfg.Intrinsics[0].Trial = tc.trial
			}
			for _, run := range []func(*testing.T, FuseConfig, ...Packet) (*Sim, *Sim){runTriple, func(t *testing.T, cfg FuseConfig, p ...Packet) (*Sim, *Sim) {
				return stopEveryBoundary(t, cfg, nil, p...)
			}} {
				_, fs := run(t, cfg, packets...)
				es := fs.EngineStats()
				if es.IntrinsicSites != tc.sites || es.IntrinsicRuns != tc.runs {
					t.Fatalf("sites %v runs %d, want %v and %d", es.IntrinsicSites, es.IntrinsicRuns, tc.sites, tc.runs)
				}
				if es.GenericPackets != 0 || es.Deopts() != 0 {
					t.Fatalf("left fused code: %+v", es)
				}
			}
		})
	}
}

// TestIntrinsicRollback: the run count is part of the checkpointed
// engine statistics, like every other counter there.
func TestIntrinsicRollback(t *testing.T) {
	packets, cfg := fakeProgram(fakeInstall(false), nil, false, nil)
	prog := &Program{Packets: packets}
	s := NewSim(prog, newTestMem())
	if err := s.UseFused(mustFuse(t, prog, cfg)); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint()
	if err := s.RunFused(); err != nil {
		t.Fatal(err)
	}
	if s.EngineStats().IntrinsicRuns != 3 {
		t.Fatalf("runs = %d, want 3", s.EngineStats().IntrinsicRuns)
	}
	s.Rollback()
	if s.EngineStats().IntrinsicRuns != 0 {
		t.Fatalf("runs after rollback = %d, want 0", s.EngineStats().IntrinsicRuns)
	}
}
