package c6x

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The entry rule (FusedEntryOK): fused code is entered wherever a
// compiled segment's entry state equals the Sim's dynamic state. The
// tests below stop at every region boundary — the quantum scheduler's
// worst case — and read the engine counters, so none of them can pass
// by quietly staying on the generic engine.

// stopEveryBoundary runs packets on the fused engine with a hook that
// stops at every region boundary, re-entering wherever FusedEntryOK
// allows and stepping generically elsewhere, against a pure interpreter
// run. atStop, if non-nil, is applied to both sides whenever they sit
// at a region boundary (the interpreter is stepped there packet-wise).
func stopEveryBoundary(t *testing.T, cfg FuseConfig, atStop func(*Sim), packets ...Packet) (is, fs *Sim) {
	t.Helper()
	boundary := func(s *Sim) bool {
		return s.PC() >= 0 && s.PC() < len(cfg.RegionOf) && cfg.RegionOf[s.PC()] >= 0
	}

	is = NewSim(&Program{Packets: packets}, newTestMem())
	for !is.Halted() {
		if err := is.Step(); err != nil {
			t.Fatalf("interp: %v", err)
		}
		if atStop != nil && !is.Halted() && boundary(is) {
			atStop(is)
		}
	}

	fprog := &Program{Packets: packets}
	fs = NewSim(fprog, newTestMem())
	if err := fs.UseFused(mustFuse(t, fprog, cfg)); err != nil {
		t.Fatal(err)
	}
	hook := func() (bool, error) { return true, nil }
	for !fs.Halted() {
		if fs.FusedEntryOK() {
			stopped, err := fs.StepFused(hook)
			if err != nil {
				t.Fatalf("fused: %v", err)
			}
			if stopped && atStop != nil {
				atStop(fs)
			}
			continue
		}
		if err := fs.Step(); err != nil {
			t.Fatalf("generic: %v", err)
		}
		if atStop != nil && !fs.Halted() && boundary(fs) {
			atStop(fs)
		}
	}
	if is.Regs != fs.Regs || is.Cycle() != fs.Cycle() || is.Stats() != fs.Stats() || is.PC() != fs.PC() {
		t.Fatalf("state divergence:\n  interp: regs=%v cycle=%d pc=%d %+v\n  fused:  regs=%v cycle=%d pc=%d %+v",
			is.Regs, is.Cycle(), is.PC(), is.Stats(), fs.Regs, fs.Cycle(), fs.PC(), fs.Stats())
	}
	return is, fs
}

// TestFusedEntryPredicatedProducer: a predicated producer in flight
// across the boundary may or may not have executed. Either way the
// stopped core re-enters the one segment compiled for that window —
// with the producer's slot switched off when its write is absent from
// the pending list — in both window orders.
func TestFusedEntryPredicatedProducer(t *testing.T) {
	predLoad := func(pred uint32) []Packet {
		return []Packet{
			pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(3)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(0), Src2: Imm(int32(pred))}),
			pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}),
			// Window order at the boundary: [A2 predicated, A3].
			pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0), Pred: Pred{Valid: true, Reg: A(0)}}),
			pk(Inst{Op: MPY, Unit: M1, Dst: A(3), Src1: R(A(1)), Src2: R(A(1))}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(6), Src2: Imm(6)}), // region start
			pk(Inst{Op: NOP, NopCycles: 4}),
			pk(Inst{Op: ADD, Unit: L1, Dst: A(4), Src1: R(A(2)), Src2: R(A(3))}),
			pk(Inst{Op: HALT}),
		}
	}
	predMpy := func(pred uint32) []Packet {
		return []Packet{
			pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(3)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(0), Src2: Imm(int32(pred))}),
			pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}),
			// Window order at the boundary: [A2, A3 predicated].
			pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
			pk(Inst{Op: MPY, Unit: M1, Dst: A(3), Src1: R(A(1)), Src2: R(A(1)), Pred: Pred{Valid: true, Reg: A(0)}}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(6), Src2: Imm(6)}), // region start
			pk(Inst{Op: NOP, NopCycles: 4}),
			pk(Inst{Op: ADD, Unit: L1, Dst: A(4), Src1: R(A(2)), Src2: R(A(3))}),
			pk(Inst{Op: HALT}),
		}
	}
	for name, gen := range map[string]func(uint32) []Packet{"pred-first": predLoad, "pred-last": predMpy} {
		for pred := uint32(0); pred <= 1; pred++ {
			packets := gen(pred)
			_, fs := stopEveryBoundary(t, FuseConfig{RegionOf: regions(len(packets), 0, 6)}, nil, packets...)
			es := fs.EngineStats()
			if es.HookStops != 1 || es.EntriesMatched != 1 || es.GenericPackets != 0 {
				t.Errorf("%s pred=%d: %+v, want one hook stop re-entered through a matched window and no generic packet", name, pred, es)
			}
		}
	}
}

// TestFusedEntryFactMismatch: a segment compiled under a register
// constant is not entered when the register file no longer holds it.
// With an in-flight write keeping the clean seed out as well, nothing
// matches: the generic engine carries on from the boundary and the run
// stays bit-identical.
func TestFusedEntryFactMismatch(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
		pk(Inst{Op: MVK, Unit: S2, Dst: B(3), Src2: Imm(11)}),
		pk(Inst{Op: MVKH, Unit: S2, Dst: B(3), Src2: Imm(0)}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: BREG, Unit: S2, Src1: R(B(3))}), // region start: fact B3=11, A2 in flight
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: HALT}),
		pk(Inst{Op: NOP}),
		pk(Inst{Op: NOP}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(9)}), // the debugger's target
		pk(Inst{Op: HALT}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(11)}), // the compiled target
		pk(Inst{Op: HALT}),
	}
	cfg := FuseConfig{RegionOf: regions(len(packets), 0, 4), ConstRegs: []Reg{B(3)}}

	_, fs := stopEveryBoundary(t, cfg, nil, packets...)
	if es := fs.EngineStats(); es.EntriesMatched != 1 || es.GenericPackets != 0 || fs.Reg(A(1)) != 11 {
		t.Fatalf("facts intact: %+v A1=%d, want a matched re-entry and the compiled target", es, fs.Reg(A(1)))
	}

	retarget := func(s *Sim) {
		if s.PC() == 4 {
			s.SetReg(B(3), 9)
		}
	}
	_, fs = stopEveryBoundary(t, cfg, retarget, packets...)
	if es := fs.EngineStats(); es.EntriesMatched != 0 || es.GenericPackets == 0 || fs.Reg(A(1)) != 9 {
		t.Fatalf("fact broken: %+v A1=%d, want no re-entry, generic packets and the new target", es, fs.Reg(A(1)))
	}
}

// TestFusedEntryPendingBranch: a branch in its delay slots at the
// boundary is part of the entry state — target and remaining delay
// both.
func TestFusedEntryPendingBranch(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
		pk(Inst{Op: BPKT, Unit: S1, Target: 7}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(3), Src2: Imm(3)}), // region start, branch pending
		pk(Inst{Op: NOP, NopCycles: 4}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(9)}), // skipped
		pk(Inst{Op: HALT}), // skipped
		pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(4)}),
		pk(Inst{Op: HALT}),
	}
	cfg := FuseConfig{RegionOf: regions(len(packets), 0, 3)}
	_, fs := stopEveryBoundary(t, cfg, nil, packets...)
	if es := fs.EngineStats(); es.HookStops != 1 || es.EntriesMatched != 1 || es.GenericPackets != 0 {
		t.Fatalf("%+v, want the pending branch matched at re-entry and no generic packet", es)
	}
	if fs.Reg(A(9)) != 0 || fs.Reg(A(4)) != 4 {
		t.Fatalf("branch lost across the stop: A9=%d A4=%d", fs.Reg(A(9)), fs.Reg(A(4)))
	}

	// The same stop with the delay counter or the target off by one
	// matches nothing.
	prog := &Program{Packets: packets}
	s := NewSim(prog, newTestMem())
	if err := s.UseFused(mustFuse(t, prog, cfg)); err != nil {
		t.Fatal(err)
	}
	if stopped, err := s.StepFused(func() (bool, error) { return true, nil }); err != nil || !stopped {
		t.Fatalf("StepFused: stopped=%v err=%v", stopped, err)
	}
	if !s.brValid || !s.FusedEntryOK() {
		t.Fatalf("stop at the boundary: brValid=%v entryOK=%v, want both", s.brValid, s.FusedEntryOK())
	}
	s.brCnt--
	if s.FusedEntryOK() {
		t.Error("entered with a different remaining branch delay")
	}
	s.brCnt++
	s.brTgt++
	if s.FusedEntryOK() {
		t.Error("entered with a different branch target")
	}
}

// TestFusedEntryPicksByFacts: a callee reached from two call sites has
// one boundary segment per link constant plus the fact-free seed. A
// core stopped at the callee re-enters the segment whose constant the
// register file holds, so the return stays a resolved branch: no deopt,
// no generic packet.
func TestFusedEntryPicksByFacts(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S2, Dst: B(3), Src2: Imm(5)}),
		pk(Inst{Op: MVKH, Unit: S2, Dst: B(3), Src2: Imm(0)}),
		pk(Inst{Op: BPKT, Unit: S1, Target: 11}),
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: HALT}),
		pk(Inst{Op: MVK, Unit: S2, Dst: B(3), Src2: Imm(10)}), // region start: first return
		pk(Inst{Op: MVKH, Unit: S2, Dst: B(3), Src2: Imm(0)}),
		pk(Inst{Op: BPKT, Unit: S1, Target: 11}),
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: HALT}),
		pk(Inst{Op: HALT}),                                                  // region start: second return
		pk(Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(1)), Src2: Imm(1)}), // region start: callee
		pk(Inst{Op: BREG, Unit: S2, Src1: R(B(3))}),
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: HALT}),
	}
	cfg := FuseConfig{RegionOf: regions(len(packets), 0, 5, 10, 11), ConstRegs: []Reg{B(3)}}
	fp := mustFuse(t, &Program{Packets: packets}, cfg)
	if n := len(fp.candidates(11)); n != 3 {
		t.Fatalf("%d candidate segments at the callee, want 3 (two link constants and the seed)", n)
	}
	_, fs := stopEveryBoundary(t, cfg, nil, packets...)
	if es := fs.EngineStats(); es.HookStops != 4 || es.Deopts != 0 || es.GenericPackets != 0 {
		t.Fatalf("%+v, want 4 hook stops, every return resolved (no deopt) and no generic packet", es)
	}
	if fs.Reg(A(1)) != 2 {
		t.Fatalf("A1 = %d, want 2 calls", fs.Reg(A(1)))
	}
}

// TestFusedEntryRandom: the engine-differential property test with a
// stop at every boundary, so every window, branch state and fact set
// the generator produces is flushed, matched (or not) and resumed.
func TestFusedEntryRandom(t *testing.T) {
	var matched, generic, total int64
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		packets := genLegalProgram(r)
		stride := 2 + r.Intn(6)
		var starts []int
		for i := 0; i < len(packets); i += stride {
			starts = append(starts, i)
		}
		is, fs := stopEveryBoundary(t, FuseConfig{RegionOf: regions(len(packets), starts...)}, nil, packets...)
		matched += fs.EngineStats().EntriesMatched
		generic += fs.EngineStats().GenericPackets
		total += fs.Stats().Packets
		return is.Halted()
	}
	cfg := &quick.Config{MaxCount: 120}
	if testing.Short() {
		cfg.MaxCount = 20
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	if matched == 0 {
		t.Error("no generated program was re-entered through a matched window")
	}
	t.Logf("matched entries %d, generic packets %d of %d", matched, generic, total)
}

// TestEngineStatsRollback: the counters describe the committed
// execution, like Stats.
func TestEngineStatsRollback(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}),
		pk(Inst{Op: HALT}),
	}
	prog := &Program{Packets: packets}
	s := NewSim(prog, newTestMem())
	if err := s.UseFused(mustFuse(t, prog, FuseConfig{RegionOf: regions(len(packets), 0)})); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint()
	before := s.EngineStats()
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if s.EngineStats().GenericPackets != before.GenericPackets+1 {
		t.Fatalf("Step not counted: %+v", s.EngineStats())
	}
	s.Rollback()
	if s.EngineStats() != before {
		t.Fatalf("after rollback %+v, want %+v", s.EngineStats(), before)
	}
}
