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

// TestFusedEntryCapturedBranch: a branch through a register has no
// static target; the value captured at issue is run-time data that
// crosses segment ends, hook stops and rollbacks in brTgt. A core
// stopped in the delay slots re-enters the one segment compiled for the
// pending capture whatever the target is, and the firing terminal
// dispatches on the value it finds — also one a debugger put there.
func TestFusedEntryCapturedBranch(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S2, Dst: B(3), Src2: Imm(9), SymImm: true}),
		pk(Inst{Op: BREG, Unit: S2, Src1: R(B(3))}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(3), Src2: Imm(3)}), // region start, capture pending
		pk(Inst{Op: NOP, NopCycles: 3}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(9)}), // skipped
		pk(Inst{Op: HALT}), // skipped
		pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(7)}), // the debugger's target
		pk(Inst{Op: HALT}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(9)}), // the captured target
		pk(Inst{Op: HALT}),
	}
	cfg := FuseConfig{RegionOf: regions(len(packets), 0, 3), ConstRegs: []Reg{B(3)}}

	_, fs := stopEveryBoundary(t, cfg, nil, packets...)
	if es := fs.EngineStats(); es.HookStops != 1 || es.EntriesMatched != 1 || es.GenericPackets != 0 || es.Deopts() != 0 || fs.Reg(A(4)) != 9 {
		t.Fatalf("%+v A4=%d, want the capture carried across the stop, a table hit and no generic packet", es, fs.Reg(A(4)))
	}

	retarget := func(s *Sim) {
		if s.PC() == 3 {
			s.brTgt = 7
		}
	}
	_, fs = stopEveryBoundary(t, cfg, retarget, packets...)
	if es := fs.EngineStats(); es.EntriesMatched != 1 || es.DeoptsBy[DeoptIndirectMiss] != 1 || fs.Reg(A(4)) != 7 {
		t.Fatalf("retargeted: %+v A4=%d, want the same segment entered and the new target reached through a table miss", es, fs.Reg(A(4)))
	}

	// The remaining delay is part of the entry state; the target is not.
	// A rollback to the stop restores the capture with everything else.
	prog := &Program{Packets: packets}
	s := NewSim(prog, newTestMem())
	if err := s.UseFused(mustFuse(t, prog, cfg)); err != nil {
		t.Fatal(err)
	}
	if stopped, err := s.StepFused(func() (bool, error) { return true, nil }); err != nil || !stopped {
		t.Fatalf("StepFused: stopped=%v err=%v", stopped, err)
	}
	if !s.brValid || s.brTgt != 9 || !s.FusedEntryOK() {
		t.Fatalf("stop at the boundary: brValid=%v brTgt=%d entryOK=%v, want the capture materialized and enterable", s.brValid, s.brTgt, s.FusedEntryOK())
	}
	s.brCnt--
	if s.FusedEntryOK() {
		t.Error("entered with a different remaining branch delay")
	}
	s.brCnt++
	s.Checkpoint()
	if err := s.RunFused(); err != nil {
		t.Fatal(err)
	}
	regs, cycle := s.Regs, s.Cycle()
	s.Rollback()
	if s.Halted() || !s.brValid || s.brTgt != 9 {
		t.Fatalf("after rollback: halted=%v brValid=%v brTgt=%d", s.Halted(), s.brValid, s.brTgt)
	}
	if err := s.RunFused(); err != nil {
		t.Fatal(err)
	}
	if s.Regs != regs || s.Cycle() != cycle || s.Reg(A(4)) != 9 {
		t.Fatalf("re-execution after rollback diverged: A4=%d cycle %d vs %d", s.Reg(A(4)), s.Cycle(), cycle)
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

// TestFusedRoutineCompiledOnce: segments are context-free. A callee
// reached from n call sites is one segment, entered in one state, and
// its return dispatches through the link register's table to the return
// sites — which are the region seeds. So the program costs one segment
// per region however many sites call, every call and return stays fused
// with a stop at every boundary, and nothing deoptimizes.
func TestFusedRoutineCompiledOnce(t *testing.T) {
	gen := func(n int) ([]Packet, FuseConfig) {
		var packets []Packet
		var starts []int
		for i := 0; i < n; i++ {
			starts = append(starts, len(packets))
			packets = append(packets,
				pk(Inst{Op: MVK, Unit: S2, Dst: B(3), Src2: Imm(int32(3 * (i + 1))), SymImm: true}),
				pk(Inst{Op: BPKT, Unit: S1, Target: 3*n + 1}),
				pk(Inst{Op: NOP, NopCycles: 5}))
		}
		starts = append(starts, len(packets), len(packets)+1)
		packets = append(packets,
			pk(Inst{Op: HALT}), // last return site
			pk(Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(1)), Src2: Imm(1)}), // callee
			pk(Inst{Op: BREG, Unit: S2, Src1: R(B(3))}),
			pk(Inst{Op: NOP, NopCycles: 5}))
		return packets, FuseConfig{RegionOf: regions(len(packets), starts...), ConstRegs: []Reg{B(3)}}
	}
	for _, n := range []int{2, 50} {
		packets, cfg := gen(n)
		fp := mustFuse(t, &Program{Packets: packets}, cfg)
		if fp.Segments() != n+2 || len(fp.candidates(3*n+1)) != 1 {
			t.Fatalf("%d call sites: %d segments, %d at the callee; want %d (one per region) and 1",
				n, fp.Segments(), len(fp.candidates(3*n+1)), n+2)
		}
		_, fs := stopEveryBoundary(t, cfg, nil, packets...)
		if es := fs.EngineStats(); es.HookStops != int64(2*n) || es.Deopts() != 0 || es.GenericPackets != 0 {
			t.Fatalf("%d call sites: %+v, want %d hook stops, no deopt and no generic packet", n, es, 2*n)
		}
		if fs.Reg(A(1)) != uint32(n) {
			t.Fatalf("A1 = %d, want %d calls", fs.Reg(A(1)), n)
		}
	}
}

// TestFusedEntryRandom: the engine-differential property test with a
// stop at every boundary, so every window and branch state the
// generator produces is flushed, matched (or not) and resumed.
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
		cfg := FuseConfig{RegionOf: regions(len(packets), starts...)}
		if seed&1 == 0 {
			cfg.ConstRegs = []Reg{B(7)} // table hits; else every return misses
		}
		is, fs := stopEveryBoundary(t, cfg, nil, packets...)
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
