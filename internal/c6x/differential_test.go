package c6x

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// runBoth executes the same program on the interpreter and on the
// fuser at one packet per segment (the unfused build) and at the default
// 64, each with its own memory, and requires bit-identical outcomes
// (runTripleMem): error presence and text, registers, cycles, statistics,
// store sequence and memory. B7 is genLegalProgram's link register.
func runBoth(t *testing.T, packets ...Packet) *Sim {
	t.Helper()
	var is *Sim
	for _, n := range []int{1, 64} {
		is, _ = runTripleMem(t, FuseConfig{MaxSegPackets: n, ConstRegs: []Reg{B(7)}}, nil, packets...)
	}
	return is
}

func TestCompiledMatchesInterpreterBasics(t *testing.T) {
	cases := map[string][]Packet{
		"mvk-pair": {
			pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x5678)}),
			pk(Inst{Op: MVKH, Unit: S1, Dst: A(1), Src2: Imm(0x1234)}),
			pk(Inst{Op: HALT}),
		},
		"parallel-packet": {
			pk(
				Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)},
				Inst{Op: MVK, Unit: S2, Dst: B(1), Src2: Imm(2)},
				Inst{Op: ADD, Unit: L1, Dst: A(2), Src1: R(A(3)), Src2: R(A(4))},
				Inst{Op: ADD, Unit: L2, Dst: B(2), Src1: R(B(3)), Src2: R(B(4))},
			),
			pk(Inst{Op: HALT}),
		},
		"mpy-delay-slot": {
			pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(6)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(7)}),
			pk(Inst{Op: MPY, Unit: M1, Dst: A(3), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: NOP, NopCycles: 1}),
			pk(Inst{Op: ADD, Unit: L1, Dst: A(4), Src1: R(A(3)), Src2: R(A(3))}),
			pk(Inst{Op: HALT}),
		},
		"load-use-delay": {
			pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x2A)}),
			pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}),
			pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
			pk(Inst{Op: NOP, NopCycles: 4}),
			pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: R(A(2))}),
			pk(Inst{Op: HALT}),
		},
		"subword-sext": {
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
		"branch-delay": {
			pk(Inst{Op: BPKT, Unit: S1, Target: 7}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(3), Src2: Imm(3)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(4)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(5)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(6), Src2: Imm(6)}), // not reached
			pk(Inst{Op: HALT}),
		},
		"branch-with-nop5": {
			pk(Inst{Op: BPKT, Unit: S1, Target: 3}),
			pk(Inst{Op: NOP, NopCycles: 5}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(9)}), // skipped
			pk(Inst{Op: HALT}),
		},
		"breg": {
			pk(Inst{Op: MVK, Unit: S1, Dst: A(7), Src2: Imm(4)}),
			pk(Inst{Op: BREG, Unit: S1, Src1: R(A(7))}),
			pk(Inst{Op: NOP, NopCycles: 5}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(8), Src2: Imm(8)}), // skipped
			pk(Inst{Op: HALT}),
		},
		"predication": {
			pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(0)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(3), Src2: Imm(10), Pred: Pred{Valid: true, Reg: A(1)}}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(11), Pred: Pred{Valid: true, Reg: A(2)}}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(12), Pred: Pred{Valid: true, Neg: true, Reg: A(2)}}),
			pk(Inst{Op: HALT}),
		},
		"imm-base-memory": {
			// Immediate base addresses are legal (issueViolation skips the
			// side rule for them) even though the translator emits register
			// bases; both engines must use the immediate, not a register.
			pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x2A)}),
			pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: Imm(0x100), Src2: Imm(4)}),
			pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: Imm(0x100), Src2: Imm(4)}),
			pk(Inst{Op: NOP, NopCycles: 4}),
			pk(Inst{Op: STB, Unit: D1, Data: A(2), Src1: Imm(0x80), Src2: Imm(0)}),
			pk(Inst{Op: LDB, Unit: D1, Dst: A(3), Src1: Imm(0x80), Src2: Imm(0)}),
			pk(Inst{Op: NOP, NopCycles: 4}),
			pk(Inst{Op: HALT}),
		},
		"alu-mix": {
			pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(-7)}),
			pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(3)}),
			pk(Inst{Op: SUB, Unit: L1, Dst: A(3), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: SAR, Unit: S1, Dst: A(4), Src1: R(A(1)), Src2: Imm(1)}),
			pk(Inst{Op: SHR, Unit: S1, Dst: A(5), Src1: R(A(1)), Src2: Imm(1)}),
			pk(Inst{Op: ANDN, Unit: L1, Dst: A(6), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: NEG, Unit: L1, Dst: A(7), Src1: R(A(1))}),
			pk(Inst{Op: EXTB, Unit: S1, Dst: A(8), Src1: R(A(1))}),
			pk(Inst{Op: EXTH, Unit: S1, Dst: A(9), Src1: R(A(1))}),
			pk(Inst{Op: CMPLT, Unit: L1, Dst: A(10), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: CMPLTU, Unit: L1, Dst: A(11), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: CMPGT, Unit: L1, Dst: A(12), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: CMPGTU, Unit: L1, Dst: A(13), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: CMPEQ, Unit: L1, Dst: A(14), Src1: R(A(1)), Src2: R(A(1))}),
			pk(Inst{Op: MV, Unit: L1, Dst: B(1), Src1: R(A(3))}),
			pk(Inst{Op: HALT}),
		},
	}
	for name, packets := range cases {
		t.Run(name, func(t *testing.T) { runBoth(t, packets...) })
	}
}

// TestCompiledMatchesInterpreterErrors checks that runtime contract
// violations produce the same error from every build.
func TestCompiledMatchesInterpreterErrors(t *testing.T) {
	t.Run("load-use-too-early", func(t *testing.T) {
		runBoth(t,
			pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
			pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
			pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: R(A(2))}),
			pk(Inst{Op: HALT}),
		)
	})
	t.Run("overlapping-branches", func(t *testing.T) {
		runBoth(t,
			pk(Inst{Op: BPKT, Unit: S1, Target: 0}),
			pk(Inst{Op: BPKT, Unit: S1, Target: 0}),
			pk(Inst{Op: HALT}),
		)
	})
	t.Run("writeback-collision", func(t *testing.T) {
		// MPY (latency 2) issued one cycle before ADD (latency 1): both
		// land on A3 in the same cycle.
		runBoth(t,
			pk(Inst{Op: MPY, Unit: M1, Dst: A(3), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: HALT}),
		)
	})
	t.Run("fell-off-program", func(t *testing.T) {
		runBoth(t, pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}))
	})
	t.Run("unmapped-target", func(t *testing.T) {
		runBoth(t,
			pk(Inst{Op: BPKT, Unit: S1, Target: 99}),
			pk(Inst{Op: NOP, NopCycles: 5}),
			pk(Inst{Op: HALT}),
		)
	})
}

// TestCompileRejectsIssueViolations: malformed packets fail at compile
// time with the packet index, where the interpreter faults at runtime.
func TestCompileRejectsIssueViolations(t *testing.T) {
	prog := &Program{Packets: []Packet{
		pk(Inst{Op: HALT}),
		pk( // unreachable unit conflict
			Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(2)), Src2: R(A(3))},
			Inst{Op: SUB, Unit: L1, Dst: A(4), Src1: R(A(5)), Src2: R(A(6))},
		),
	}}
	if _, err := Compile(prog); err == nil {
		t.Fatal("compile accepted a unit conflict")
	} else if se, ok := err.(*SimError); !ok || se.Packet != 1 {
		t.Fatalf("want SimError at packet 1, got %v", err)
	}
}

// genLegalProgram builds a random schedule-contract-respecting program:
// straight-line packets of ALU, memory and predicated operations and
// constant chains, with conservative NOP padding covering every
// in-flight latency, plus a counted loop, ending in HALT, with a
// subroutine called through the link register B7 (a SymImm return
// label, a BREG return) from straight-line code and from the loop. Every
// build must run it without error.
func genLegalProgram(r *rand.Rand) []Packet {
	var packets []Packet
	emit := func(in Inst) { packets = append(packets, pk(in)) }
	pad := func(n int) { packets = append(packets, pk(Inst{Op: NOP, NopCycles: n})) }
	var calls []int // the call branches, targeted once the subroutine is placed
	call := func() {
		emit(Inst{Op: MVK, Unit: S2, Dst: B(7), Src2: Imm(int32(len(packets) + 3)), SymImm: true})
		calls = append(calls, len(packets))
		emit(Inst{Op: BPKT, Unit: S1})
		pad(5)
		pad(4) // the subroutine's load may still be in flight at the return
		emit(Inst{Op: ADD, Unit: L1, Dst: A(13), Src1: R(A(12)), Src2: R(A(11))})
	}

	// Seed a few registers on both sides.
	for i := 0; i < 6; i++ {
		emit(Inst{Op: MVK, Unit: S1, Dst: A(i), Src2: Imm(int32(r.Intn(4000) - 2000))})
		emit(Inst{Op: MVK, Unit: S2, Dst: B(i), Src2: Imm(int32(r.Intn(4000) - 2000))})
	}
	emit(Inst{Op: MVK, Unit: S1, Dst: A(10), Src2: Imm(0x200)}) // scratch base

	var binOps []Op // the single-cycle two-source ops
	for op := Op(0); op < NumOps; op++ {
		if opTable[op].use == useSrc1|useSrc2|useDst && op.Latency() == 1 {
			binOps = append(binOps, op)
		}
	}
	pickBin := func() (Op, Unit) {
		op := binOps[r.Intn(len(binOps))]
		return op, UnitFor(op.UnitKinds()[0], SideA)
	}
	n := 5 + r.Intn(25)
	for k := 0; k < n; k++ {
		dst := A(r.Intn(6))
		s1, s2 := A(r.Intn(6)), A(r.Intn(6))
		switch r.Intn(9) {
		case 0, 1, 2:
			op, u := pickBin()
			emit(Inst{Op: op, Unit: u, Dst: dst, Src1: R(s1), Src2: R(s2)})
		case 3:
			op, u := pickBin()
			emit(Inst{Op: op, Unit: u, Dst: dst, Src1: R(s1), Src2: Imm(int32(r.Intn(31)))})
		case 4:
			emit(Inst{Op: MPY, Unit: M1, Dst: dst, Src1: R(s1), Src2: R(s2)})
			pad(1) // multiply delay slot
		case 5:
			off := int32(4 * r.Intn(16))
			emit(Inst{Op: STW, Unit: D1, Data: s1, Src1: R(A(10)), Src2: Imm(off)})
			emit(Inst{Op: LDW, Unit: D1, Dst: dst, Src1: R(A(10)), Src2: Imm(off)})
			pad(4) // load delay slots
		case 6:
			off := int32(r.Intn(32))
			emit(Inst{Op: STB, Unit: D1, Data: s1, Src1: R(A(10)), Src2: Imm(off)})
			emit(Inst{Op: LDB, Unit: D1, Dst: dst, Src1: R(A(10)), Src2: Imm(off)})
			pad(4)
		case 7:
			pred := Pred{Valid: true, Neg: r.Intn(2) == 0, Reg: A(r.Intn(6))}
			op, u := pickBin()
			emit(Inst{Op: op, Unit: u, Pred: pred, Dst: dst, Src1: R(s1), Src2: R(s2)})
		case 8: // a constant chain, folded at fuse time: MVK, MVKH and ALU ops on constants
			op, u := pickBin()
			emit(Inst{Op: MVK, Unit: S1, Dst: dst, Src2: Imm(int32(r.Intn(4000) - 2000))})
			emit(Inst{Op: MVKH, Unit: S1, Dst: dst, Src2: Imm(int32(r.Intn(1 << 16)))})
			emit(Inst{Op: op, Unit: u, Dst: s1, Src1: Imm(int32(r.Intn(64))), Src2: Imm(int32(r.Intn(31)))})
			op, u = pickBin()
			emit(Inst{Op: op, Unit: u, Dst: s2, Src1: R(dst), Src2: R(s1)})
		}
	}

	// Counted loop: A8 iterations accumulating into A9, closed by a
	// predicated backward branch with its five delay slots padded.
	emit(Inst{Op: MVK, Unit: S1, Dst: A(8), Src2: Imm(int32(2 + r.Intn(5)))})
	emit(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(0)})
	call()
	loop := len(packets)
	emit(Inst{Op: ADD, Unit: L1, Dst: A(9), Src1: R(A(9)), Src2: R(A(8))})
	emit(Inst{Op: SUB, Unit: L1, Dst: A(8), Src1: R(A(8)), Src2: Imm(1)})
	call()
	emit(Inst{Op: BPKT, Unit: S1, Target: loop, Pred: Pred{Valid: true, Reg: A(8)}})
	pad(5)
	emit(Inst{Op: HALT})

	// The subroutine: its return's five delay slots hold a load at a
	// random position, so the branch fires with the load 0–4 cycles from
	// landing.
	for _, c := range calls {
		packets[c].Insts[0].Target = len(packets)
	}
	emit(Inst{Op: ADD, Unit: L1, Dst: A(11), Src1: R(A(11)), Src2: Imm(1)})
	emit(Inst{Op: BREG, Unit: S2, Src1: R(B(7))})
	k := r.Intn(5)
	if k > 0 {
		pad(k)
	}
	emit(Inst{Op: LDW, Unit: D1, Dst: A(12), Src1: R(A(10)), Src2: Imm(0)})
	if k < 4 {
		pad(4 - k)
	}
	return packets
}

// TestCompiledMatchesInterpreterRandom is the engine-differential
// property test: random legal programs must produce bit-identical
// registers, cycles, stats and memory traffic on the interpreter and on
// both builds.
func TestCompiledMatchesInterpreterRandom(t *testing.T) {
	f := func(seed int64) bool {
		packets := genLegalProgram(rand.New(rand.NewSource(seed)))
		is := runBoth(t, packets...)
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

// FuzzCompiledVsInterpreter drives the same differential through the
// fuzzer, letting it explore generator seeds beyond the property test's
// fixed budget.
func FuzzCompiledVsInterpreter(f *testing.F) {
	// 1815, 907 and 1149 generate the most constant chains (8-9 each).
	for _, seed := range []int64{0, 1, 42, 1 << 40, 1815, 907, 1149} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		packets := genLegalProgram(rand.New(rand.NewSource(seed)))
		runBoth(t, packets...)
	})
}

// malformedPacket decodes fuzz bytes into one packet, ten bytes per
// instruction (at most nine): Op, Unit, Dst, Src1.Reg, Src2.Reg, Data,
// Pred.Reg, flags (bit 0 Src1.IsImm, 1 Src2.IsImm, 2 Pred.Valid, 3
// Pred.Neg), Src1.Imm (its low bits also the Target) and Src2.Imm (its
// low bits also NopCycles). Fields are taken raw, so ops, units and
// registers outside the ISA come up.
func malformedPacket(b []byte) Packet {
	var p Packet
	for ; len(b) >= 10 && len(p.Insts) < 9; b = b[10:] {
		p.Insts = append(p.Insts, Inst{
			Op: Op(b[0]), Unit: Unit(b[1]), Dst: Reg(b[2]), Data: Reg(b[5]),
			Src1:   Operand{IsImm: b[7]&1 != 0, Reg: Reg(b[3]), Imm: int32(int8(b[8]))},
			Src2:   Operand{IsImm: b[7]&2 != 0, Reg: Reg(b[4]), Imm: int32(int8(b[9]))},
			Pred:   Pred{Valid: b[7]&4 != 0, Neg: b[7]&8 != 0, Reg: Reg(b[6])},
			Target: int(b[8] & 3), NopCycles: int(b[9] & 15),
		})
	}
	return p
}

// FuzzMalformedPacket feeds one raw packet, followed by HALT, to both
// sides of the packet decode boundary: Fuse validates it at load, Step as
// it executes. Neither may panic; a packet Fuse rejects the interpreter
// rejects with the same message, and one it accepts runs bit-identically
// on the interpreter and on both builds. Its addresses lie within 256
// bytes of 0, so the memory never faults: a fault mid-packet is where
// fused code documents a difference (TestFusedMemoryFaultExact).
func FuzzMalformedPacket(f *testing.F) {
	for _, seed := range [][]byte{
		{byte(ADD), byte(L1), 1, 2, 3, 0, 0, 0, 0, 0},
		{byte(MVKH), byte(S2), 33, 0, 0, 0, 1, 2 | 4, 0, 7},
		{byte(LDB), byte(D1), 4, 5, 0, 0, 0, 2, 0, 3, byte(STH), byte(D2), 0, 0, 0, 40, 0, 1 | 2, -4 & 0xFF, 2},
		{byte(BREG), byte(S1), 0, 1, 0, 0, 0, 0, 0, 0},
		{byte(ADD), 9, 1, 2, 3, 0, 0, 0, 0, 0},
		{byte(ADD), byte(L1), 100, 2, 3, 0, 0, 0, 0, 0},
		{byte(ADD), byte(L1), 1, 100, 3, 0, 0, 0, 0, 0},
		{byte(NOP), 0, 0, 0, 0, 0, byte(NoReg), 4, 0, 5},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		packets := []Packet{malformedPacket(b), pk(Inst{Op: HALT})}
		cfg := FuseConfig{RegionOf: regions(len(packets), 0)}
		if _, err := Fuse(&Program{Packets: packets}, cfg); err != nil {
			var se *SimError
			ierr := NewSim(&Program{Packets: packets}, newTestMem()).Run()
			if !errors.As(err, &se) || ierr == nil || !strings.Contains(ierr.Error(), se.Msg) {
				t.Fatalf("Fuse rejected the packet (%v), the interpreter returned %v", err, ierr)
			}
			return
		}
		for _, n := range []int{1, 0} {
			cfg.MaxSegPackets = n
			runTripleMem(t, cfg, func(m *testMem) { m.faultAddr = 1 << 31 }, packets...)
		}
	})
}

// allocLoop is a tight endless loop with in-flight loads and multiplies,
// so the writeback machinery is exercised every iteration.
var allocLoop = []Packet{
	pk(Inst{Op: MVK, Unit: S1, Dst: A(10), Src2: Imm(0x200)}),
	pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(3)}),
	// loop (packet 2):
	pk(Inst{Op: MPY, Unit: M1, Dst: A(2), Src1: R(A(1)), Src2: R(A(1))}),
	pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(10)), Src2: Imm(0)}),
	pk(Inst{Op: LDW, Unit: D1, Dst: A(3), Src1: R(A(10)), Src2: Imm(0)}),
	pk(Inst{Op: BPKT, Unit: S1, Target: 2}),
	pk(Inst{Op: NOP, NopCycles: 5}),
	pk(Inst{Op: HALT}), // never reached
}

// TestStepSteadyStateAllocs: once warm, the interpreter performs zero
// heap allocations per packet (interrupt detours, wfi and debugger
// single-steps run here).
func TestStepSteadyStateAllocs(t *testing.T) {
	s := NewSim(&Program{Packets: allocLoop}, newAllocFreeMem())
	for i := 0; i < 256; i++ { // warm the scratch buffers
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates: %.1f allocs per 64 packets", allocs)
	}
}

// TestCompiledSteadyStateAllocs: the unfused build (one packet per
// segment) runs allocation-free once warm, like the default one.
func TestCompiledSteadyStateAllocs(t *testing.T) { fusedSteadyStateAllocs(t, 1) }

// allocFreeMem is a fixed-array MemPort (the map-backed testMem
// allocates on writes, which would mask engine allocations).
type allocFreeMem struct {
	ram [4096]byte
}

func newAllocFreeMem() *allocFreeMem { return &allocFreeMem{} }

func (m *allocFreeMem) Load(addr uint32, size int, cycle int64) (uint32, int64, error) {
	var v uint32
	for i := 0; i < size; i++ {
		v |= uint32(m.ram[(addr+uint32(i))%4096]) << (8 * i)
	}
	return v, cycle, nil
}

func (m *allocFreeMem) Store(addr uint32, val uint32, size int, cycle int64) (int64, error) {
	for i := 0; i < size; i++ {
		m.ram[(addr+uint32(i))%4096] = byte(val >> (8 * i))
	}
	return cycle, nil
}
