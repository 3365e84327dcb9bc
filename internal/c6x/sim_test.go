package c6x

import (
	"fmt"
	"strings"
	"testing"
)

// testMem is a flat RAM MemPort with an optional stalling region.
type testMem struct {
	ram       map[uint32]byte
	stallAddr uint32
	stallLen  int64
	faultAddr uint32 // accesses here fail (unmapped)
	stores    []uint32
}

func newTestMem() *testMem {
	return &testMem{ram: map[uint32]byte{}, stallAddr: 0xFFFFFFFF, faultAddr: 0xFFFFFFFF}
}

func (m *testMem) Load(addr uint32, size int, cycle int64) (uint32, int64, error) {
	if addr == m.faultAddr {
		return 0, cycle, fmt.Errorf("testmem: unmapped load @%#x", addr)
	}
	var v uint32
	for i := 0; i < size; i++ {
		v |= uint32(m.ram[addr+uint32(i)]) << (8 * i)
	}
	if addr == m.stallAddr {
		return v, cycle + m.stallLen, nil
	}
	return v, cycle, nil
}

func (m *testMem) Store(addr uint32, val uint32, size int, cycle int64) (int64, error) {
	if addr == m.faultAddr {
		return cycle, fmt.Errorf("testmem: unmapped store @%#x", addr)
	}
	for i := 0; i < size; i++ {
		m.ram[addr+uint32(i)] = byte(val >> (8 * i))
	}
	m.stores = append(m.stores, addr)
	return cycle, nil
}

func pk(insts ...Inst) Packet { return Packet{Insts: insts} }

func runProg(t *testing.T, packets ...Packet) *Sim {
	t.Helper()
	s := NewSim(&Program{Packets: packets}, newTestMem())
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOpTableComplete: every op has a name and the unit kinds that
// execute it (NOP and HALT occupy no unit), and every op that computes a
// register value has a kernel — a new opcode without semantics fails
// here, not as a no-kernel deopt at run time.
func TestOpTableComplete(t *testing.T) {
	for op := INVALID + 1; op < NumOps; op++ {
		row := opTable[op]
		if row.name == "" || row.units == "" && op != NOP && op != HALT {
			t.Errorf("op %d: name %q, unit kinds %q", op, row.name, row.units)
		}
		if row.use&useDst != 0 && row.mem == 0 && row.kernel == nil {
			t.Errorf("%v writes a register but has no kernel", op)
		}
	}
}

func TestMvkPair(t *testing.T) {
	s := runProg(t,
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x5678)}),
		pk(Inst{Op: MVKH, Unit: S1, Dst: A(1), Src2: Imm(0x1234)}),
		pk(Inst{Op: HALT}),
	)
	if got := s.Reg(A(1)); got != 0x12345678 {
		t.Errorf("A1 = %#x, want 0x12345678", got)
	}
}

func TestMvkNegative(t *testing.T) {
	s := runProg(t,
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(-5)}),
		pk(Inst{Op: HALT}),
	)
	if got := int32(s.Reg(A(1))); got != -5 {
		t.Errorf("A1 = %d, want -5", got)
	}
}

func TestParallelPacket(t *testing.T) {
	// Four independent instructions in one packet, one cycle.
	s := runProg(t,
		pk(
			Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)},
			Inst{Op: MVK, Unit: S2, Dst: B(1), Src2: Imm(2)},
			Inst{Op: ADD, Unit: L1, Dst: A(2), Src1: R(A(3)), Src2: R(A(4))},
			Inst{Op: ADD, Unit: L2, Dst: B(2), Src1: R(B(3)), Src2: R(B(4))},
		),
		pk(Inst{Op: HALT}),
	)
	if s.Stats().Packets != 2 {
		t.Errorf("packets = %d", s.Stats().Packets)
	}
	if s.Reg(A(1)) != 1 || s.Reg(B(1)) != 2 {
		t.Error("parallel MVKs failed")
	}
}

func TestSamePacketReadsOldValue(t *testing.T) {
	// mv A1->A2 in parallel with mvk 9->A1: A2 gets the OLD A1.
	s := NewSim(&Program{Packets: []Packet{
		pk(
			Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(9)},
			Inst{Op: MV, Unit: L1, Dst: A(2), Src1: R(A(1))},
		),
		pk(Inst{Op: HALT}),
	}}, newTestMem())
	s.SetReg(A(1), 42)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Reg(A(2)); got != 42 {
		t.Errorf("A2 = %d, want old value 42", got)
	}
	if got := s.Reg(A(1)); got != 9 {
		t.Errorf("A1 = %d, want 9", got)
	}
}

func TestMpyDelaySlot(t *testing.T) {
	// Reading the MPY result too early is a contract error.
	s := NewSim(&Program{Packets: []Packet{
		pk(Inst{Op: MPY, Unit: M1, Dst: A(1), Src1: R(A(2)), Src2: R(A(3))}),
		pk(Inst{Op: MV, Unit: L1, Dst: A(4), Src1: R(A(1))}), // 1 delay slot violated
		pk(Inst{Op: HALT}),
	}}, newTestMem())
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Errorf("err = %v, want in-flight read error", err)
	}
	// With a NOP in between it is legal.
	s2 := NewSim(&Program{Packets: []Packet{
		pk(Inst{Op: MPY, Unit: M1, Dst: A(1), Src1: R(A(2)), Src2: R(A(3))}),
		pk(Inst{Op: NOP, NopCycles: 1}),
		pk(Inst{Op: MV, Unit: L1, Dst: A(4), Src1: R(A(1))}),
		pk(Inst{Op: HALT}),
	}}, newTestMem())
	s2.SetReg(A(2), 6)
	s2.SetReg(A(3), 7)
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Reg(A(4)); got != 42 {
		t.Errorf("A4 = %d, want 42", got)
	}
}

func TestLoadDelaySlots(t *testing.T) {
	mem := newTestMem()
	mem.ram[0x100] = 0x2A
	prog := &Program{Packets: []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(1), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: NOP, NopCycles: 4}),
		pk(Inst{Op: MV, Unit: L1, Dst: A(2), Src1: R(A(1))}),
		pk(Inst{Op: HALT}),
	}}
	s := NewSim(prog, mem)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Reg(A(2)); got != 0x2A {
		t.Errorf("A2 = %#x, want 0x2A", got)
	}
	// 1 (mvk) + 1 (ldw) + 4 (nop) + 1 (mv) + 1 (halt) = 8 cycles.
	if got := s.Stats().Cycles; got != 8 {
		t.Errorf("cycles = %d, want 8", got)
	}
}

func TestLoadUseTooEarlyFails(t *testing.T) {
	s := NewSim(&Program{Packets: []Packet{
		pk(Inst{Op: LDW, Unit: D1, Dst: A(1), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: NOP, NopCycles: 3}), // one short
		pk(Inst{Op: MV, Unit: L1, Dst: A(2), Src1: R(A(1))}),
	}}, newTestMem())
	if err := s.Run(); err == nil {
		t.Error("reading load result after 3 cycles should fail")
	}
}

// TestWritebackCommitOrder: writes landing at the end of one multi-cycle
// packet commit by landing cycle, not by issue order — the later-issued
// multiply lands first, and the earlier-issued load overwrites it.
func TestWritebackCommitOrder(t *testing.T) {
	s := runProg(t,
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x2A)}),
		pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),  // lands 5 cycles on
		pk(Inst{Op: MPY, Unit: M1, Dst: A(2), Src1: R(A(1)), Src2: R(A(1))}), // lands 2 cycles on
		pk(Inst{Op: NOP, NopCycles: 4}),
		pk(Inst{Op: HALT}),
	)
	if got := s.Reg(A(2)); got != 0x2A {
		t.Errorf("A2 = %#x, want the load's 0x2A (it lands last)", got)
	}
}

// TestWritebackCollisionFails: two writes to one register landing in the
// same cycle violate the schedule contract.
func TestWritebackCollisionFails(t *testing.T) {
	s := NewSim(&Program{Packets: []Packet{
		pk(Inst{Op: MPY, Unit: M1, Dst: A(3), Src1: R(A(1)), Src2: R(A(2))}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(1)), Src2: R(A(2))}),
		pk(Inst{Op: HALT}),
	}}, newTestMem())
	if err := s.Run(); err == nil || !strings.Contains(err.Error(), "packet 1 cycle 2: writeback collision on A3") {
		t.Errorf("err = %v, want a writeback collision on A3 at packet 1", err)
	}
}

func TestBranchDelaySlots(t *testing.T) {
	// Branch at P0; delay slots P1..P5 execute; target P7 skips P6.
	var adds []Packet
	adds = append(adds, pk(Inst{Op: BPKT, Unit: S1, Target: 7}))
	for i := 1; i <= 5; i++ {
		adds = append(adds, pk(Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(1)), Src2: Imm(1)}))
	}
	adds = append(adds, pk(Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(1)), Src2: Imm(100)})) // skipped
	adds = append(adds, pk(Inst{Op: HALT}))
	s := runProg(t, adds...)
	if got := s.Reg(A(1)); got != 5 {
		t.Errorf("A1 = %d, want 5 (delay slots executed, fall-through skipped)", got)
	}
}

func TestBranchWithNop5(t *testing.T) {
	s := runProg(t,
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(7)}),
		pk(Inst{Op: BPKT, Unit: S1, Target: 4}),
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0)}), // skipped
		pk(Inst{Op: HALT}),
	)
	if got := s.Reg(A(1)); got != 7 {
		t.Errorf("A1 = %d, want 7", got)
	}
	// mvk 1 + branch 1 + nop cut to 5 + halt 1.
	if got := s.Stats().Cycles; got != 8 {
		t.Errorf("cycles = %d, want 8", got)
	}
}

func TestBranchToRegister(t *testing.T) {
	s := runProg(t,
		pk(Inst{Op: MVK, Unit: S1, Dst: A(3), Src2: Imm(4)}),
		pk(Inst{Op: BREG, Unit: S2, Src1: R(A(3))}),
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0)}), // skipped
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(9)}),
		pk(Inst{Op: HALT}),
	)
	if got := s.Reg(A(1)); got != 9 {
		t.Errorf("A1 = %d, want 9", got)
	}
}

func TestPredication(t *testing.T) {
	s := NewSim(&Program{Packets: []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}), // pred true
		pk(Inst{Op: MVK, Unit: S2, Dst: B(1), Src2: Imm(0)}), // pred false
		pk(Inst{Op: ADD, Unit: L1, Pred: Pred{Valid: true, Reg: A(1)}, Dst: A(2), Src1: R(A(2)), Src2: Imm(5)}),
		pk(Inst{Op: ADD, Unit: L2, Pred: Pred{Valid: true, Reg: B(1)}, Dst: B(2), Src1: R(B(2)), Src2: Imm(5)}),
		pk(Inst{Op: ADD, Unit: L2, Pred: Pred{Valid: true, Neg: true, Reg: B(1)}, Dst: B(3), Src1: R(B(3)), Src2: Imm(7)}),
		pk(Inst{Op: HALT}),
	}}, newTestMem())
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Reg(A(2)) != 5 {
		t.Errorf("A2 = %d, want 5 (pred true)", s.Reg(A(2)))
	}
	if s.Reg(B(2)) != 0 {
		t.Errorf("B2 = %d, want 0 (pred false)", s.Reg(B(2)))
	}
	if s.Reg(B(3)) != 7 {
		t.Errorf("B3 = %d, want 7 (negated pred)", s.Reg(B(3)))
	}
}

func TestStoreAndLoadRoundTrip(t *testing.T) {
	mem := newTestMem()
	prog := &Program{Packets: []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x200)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(-77)}),
		pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(8)}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(8)}),
		pk(Inst{Op: NOP, NopCycles: 4}),
		pk(Inst{Op: HALT}),
	}}
	s := NewSim(prog, mem)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := int32(s.Reg(A(2))); got != -77 {
		t.Errorf("A2 = %d, want -77", got)
	}
}

func TestMemoryStallFreezesLatencies(t *testing.T) {
	mem := newTestMem()
	mem.stallAddr = 0x300
	mem.stallLen = 10
	prog := &Program{Packets: []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x300)}),
		// MPY in flight while the load stalls: its latency must not be
		// consumed by the stall.
		pk(
			Inst{Op: MPY, Unit: M1, Dst: A(7), Src1: R(A(8)), Src2: R(A(9))},
			Inst{Op: LDW, Unit: D2, Dst: B(1), Src1: R(B(5)), Src2: Imm(0)},
		),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(1), Src1: R(A(5)), Src2: Imm(0)}), // stalls 10
		pk(Inst{Op: MV, Unit: L1, Dst: A(6), Src1: R(A(7))}),                // MPY result ready
		pk(Inst{Op: NOP, NopCycles: 2}),
		pk(Inst{Op: HALT}),
	}}
	s := NewSim(prog, mem)
	s.SetReg(A(8), 3)
	s.SetReg(A(9), 5)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Reg(A(6)); got != 15 {
		t.Errorf("A6 = %d, want 15", got)
	}
	st := s.Stats()
	if st.StallCycles != 10 {
		t.Errorf("stalls = %d, want 10", st.StallCycles)
	}
	if st.Cycles != 6+2-1+10 {
		t.Errorf("cycles = %d, want 17", st.Cycles)
	}
}

func TestStrictUnitConflict(t *testing.T) {
	s := NewSim(&Program{Packets: []Packet{
		pk(
			Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(2)), Src2: R(A(3))},
			Inst{Op: SUB, Unit: L1, Dst: A(4), Src1: R(A(5)), Src2: R(A(6))},
		),
	}}, newTestMem())
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "used twice") {
		t.Errorf("err = %v, want unit conflict", err)
	}
}

func TestStrictCrossPathLimit(t *testing.T) {
	// Two side-A instructions both reading B registers: two cross reads.
	s := NewSim(&Program{Packets: []Packet{
		pk(
			Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(2)), Src2: R(B(3))},
			Inst{Op: SUB, Unit: S1, Dst: A(4), Src1: R(A(5)), Src2: R(B(6))},
		),
	}}, newTestMem())
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "cross path") {
		t.Errorf("err = %v, want cross-path error", err)
	}
	// One cross read per side is legal.
	s2 := NewSim(&Program{Packets: []Packet{
		pk(
			Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(2)), Src2: R(B(3))},
			Inst{Op: SUB, Unit: L2, Dst: B(4), Src1: R(B(5)), Src2: R(A(6))},
		),
		pk(Inst{Op: HALT}),
	}}, newTestMem())
	if err := s2.Run(); err != nil {
		t.Errorf("one cross read per side should be legal: %v", err)
	}
}

func TestStrictUnitKind(t *testing.T) {
	s := NewSim(&Program{Packets: []Packet{
		pk(Inst{Op: MPY, Unit: L1, Dst: A(1), Src1: R(A(2)), Src2: R(A(3))}),
	}}, newTestMem())
	if err := s.Run(); err == nil {
		t.Error("MPY on .L unit should be rejected")
	}
}

func TestStrictMemBaseSide(t *testing.T) {
	s := NewSim(&Program{Packets: []Packet{
		pk(Inst{Op: LDW, Unit: D1, Dst: A(1), Src1: R(B(5)), Src2: Imm(0)}),
	}}, newTestMem())
	if err := s.Run(); err == nil {
		t.Error("load with base on wrong side should be rejected")
	}
}

func TestStrictTwoMemSameTPath(t *testing.T) {
	s := NewSim(&Program{Packets: []Packet{
		pk(
			Inst{Op: LDW, Unit: D1, Dst: A(1), Src1: R(A(5)), Src2: Imm(0)},
			Inst{Op: LDW, Unit: D2, Dst: A(2), Src1: R(B(5)), Src2: Imm(0)},
		),
	}}, newTestMem())
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "data path") {
		t.Errorf("err = %v, want T-path conflict", err)
	}
}

func TestFallOffProgram(t *testing.T) {
	s := NewSim(&Program{Packets: []Packet{
		pk(Inst{Op: NOP, NopCycles: 1}),
	}}, newTestMem())
	if err := s.Run(); err == nil {
		t.Error("running past the last packet should fail")
	}
}

func TestDisassembleSmoke(t *testing.T) {
	p := &Program{Packets: []Packet{
		pk(
			Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(10)},
			Inst{Op: LDW, Unit: D2, Dst: A(2), Src1: R(B(3)), Src2: Imm(4)},
		),
		pk(Inst{Op: BPKT, Unit: S2, Target: 0, Pred: Pred{Valid: true, Neg: true, Reg: B(0)}}),
		pk(Inst{Op: NOP, NopCycles: 5}),
	}}
	text := Disassemble(p)
	for _, want := range []string{"mvk", "ldw", "[!B0]", "nop 5", "P0", "||"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}
