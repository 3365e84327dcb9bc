package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/iss"
	"repro/internal/platform"
	"repro/internal/rtlsim"
	"repro/internal/tc32"
)

// genProgram builds a random but safe TC32 program: a prologue pins the
// data base and stack, a straight-line body of random ALU and memory
// operations works on a 256-byte scratch window, an optional counted loop
// exercises control flow, and an epilogue emits every data register to
// the debug port.
func genProgram(r *rand.Rand) *elf32.File {
	var code []byte
	emit := func(i tc32.Inst) {
		var b [4]byte
		n, err := tc32.Encode(i, b[:])
		if err != nil {
			panic(err)
		}
		code = append(code, b[:n]...)
	}
	// Prologue: a2 -> scratch RAM, a15 -> debug port, registers seeded.
	emit(tc32.Inst{Op: tc32.MOVHA, Rd: 2, Imm: 0x1000})
	emit(tc32.Inst{Op: tc32.MOVHA, Rd: 15, Imm: 0xF000})
	emit(tc32.Inst{Op: tc32.LEA, Rd: 15, Rs1: 15, Imm: 0xF00})
	for d := uint8(0); d < 8; d++ {
		emit(tc32.Inst{Op: tc32.MOVI, Rd: d, Imm: int32(r.Intn(2000) - 1000)})
	}

	aluOps := []tc32.Op{
		tc32.ADD, tc32.SUB, tc32.MUL, tc32.AND, tc32.OR, tc32.XOR, tc32.ANDN,
		tc32.SHL, tc32.SHR, tc32.SAR, tc32.EQ, tc32.NE, tc32.LT, tc32.LTU,
		tc32.GE, tc32.GEU, tc32.MIN, tc32.MAX, tc32.DIV, tc32.DIVU,
		tc32.REM, tc32.REMU,
	}
	immOps := []tc32.Op{
		tc32.ADDI, tc32.RSUBI, tc32.ANDI, tc32.ORI, tc32.XORI, tc32.EQI,
		tc32.LTI, tc32.SHLI, tc32.SHRI, tc32.SARI,
	}
	shortOps := []tc32.Op{tc32.MOV16, tc32.ADD16, tc32.SUB16, tc32.MOVI16, tc32.ADDI16}

	n := 10 + r.Intn(40)
	for k := 0; k < n; k++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			op := aluOps[r.Intn(len(aluOps))]
			emit(tc32.Inst{Op: op, Rd: uint8(r.Intn(8)), Rs1: uint8(r.Intn(8)), Rs2: uint8(r.Intn(8))})
		case 4, 5:
			op := immOps[r.Intn(len(immOps))]
			imm := int32(r.Intn(100))
			if op == tc32.SHLI || op == tc32.SHRI || op == tc32.SARI {
				imm = int32(r.Intn(31))
			}
			emit(tc32.Inst{Op: op, Rd: uint8(r.Intn(8)), Rs1: uint8(r.Intn(8)), Imm: imm})
		case 6:
			op := shortOps[r.Intn(len(shortOps))]
			in := tc32.Inst{Op: op, Rd: uint8(r.Intn(8)), Rs1: uint8(r.Intn(8))}
			if op == tc32.MOVI16 || op == tc32.ADDI16 {
				in.Rs1 = 0
				in.Imm = int32(r.Intn(15)) - 8
			}
			emit(in)
		case 7:
			// Store then load through the scratch window.
			off := int32(4 * r.Intn(64))
			emit(tc32.Inst{Op: tc32.STW, Rd: uint8(r.Intn(8)), Rs1: 2, Imm: off})
			emit(tc32.Inst{Op: tc32.LDW, Rd: uint8(r.Intn(8)), Rs1: 2, Imm: off})
		case 8:
			// Sub-word memory.
			off := int32(r.Intn(200))
			emit(tc32.Inst{Op: tc32.STB, Rd: uint8(r.Intn(8)), Rs1: 2, Imm: off})
			emit(tc32.Inst{Op: tc32.LDBU, Rd: uint8(r.Intn(8)), Rs1: 2, Imm: off})
		case 9:
			emit(tc32.Inst{Op: tc32.SEXTB, Rd: uint8(r.Intn(8)), Rs1: uint8(r.Intn(8))})
		}
	}
	// A counted loop with a data-dependent body (exercises branch
	// prediction and correction): d9 iterations, accumulate into d1.
	iters := int32(2 + r.Intn(6))
	emit(tc32.Inst{Op: tc32.MOVI, Rd: 9, Imm: iters})
	loopStart := uint32(len(code))
	emit(tc32.Inst{Op: tc32.ADD, Rd: 1, Rs1: 1, Rs2: 9})
	emit(tc32.Inst{Op: tc32.ADDI, Rd: 9, Rs1: 9, Imm: -1})
	body := int32(uint32(len(code)) - loopStart)
	emit(tc32.Inst{Op: tc32.JNZ, Rs1: 9, Imm: -body})

	// Epilogue: emit d0..d7.
	for d := uint8(0); d < 8; d++ {
		emit(tc32.Inst{Op: tc32.STW, Rd: d, Rs1: 15, Imm: 0})
	}
	emit(tc32.Inst{Op: tc32.HALT})

	return &elf32.File{
		Entry: 0,
		Sections: []elf32.Section{
			{Name: ".text", Type: elf32.SHTProgbits, Flags: elf32.SHFAlloc | elf32.SHFExecinstr, Addr: 0, Data: code},
			{Name: ".data", Type: elf32.SHTProgbits, Flags: elf32.SHFAlloc | elf32.SHFWrite, Addr: 0x1000_0000, Data: make([]byte, 1024)},
		},
	}
}

// TestRandomProgramsAgreeAcrossAllEngines is the cross-simulator
// differential property: for random programs, the interpreter, the
// RT-level proxy and the translation at levels 0 and 3 must produce
// identical outputs and final register files (both files),
// and the level-3 generated cycle count must track the reference.
func TestRandomProgramsAgreeAcrossAllEngines(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prog := genProgram(r)

		ref, err := iss.New(prog, iss.Config{CycleAccurate: true})
		if err != nil {
			t.Log(err)
			return false
		}
		if err := ref.Run(); err != nil {
			t.Log(err)
			return false
		}
		want := ref.Output()

		// RT-level proxy.
		rtl, err := rtlsim.New(prog)
		if err != nil {
			t.Log(err)
			return false
		}
		if err := rtl.Run(0); err != nil {
			t.Logf("rtl: %v", err)
			return false
		}
		if !equalU32(rtl.Output(), want) || rtl.R != ref.Arch.R {
			t.Logf("seed %d: rtl diverged", seed)
			return false
		}

		// Translated, functional and full-detail. The default engine is
		// the compiled one; the interpreter run below must match it bit
		// for bit (the engine-differential property).
		for _, level := range []core.Level{core.Level0, core.Level3} {
			tp, err := core.Translate(prog, core.Options{Level: level})
			if err != nil {
				t.Logf("seed %d: translate: %v", seed, err)
				return false
			}
			sys := platform.New(tp)
			if sys.Engine() != platform.EngineCompiled {
				t.Logf("seed %d L%d: translator output did not compile", seed, int(level))
				return false
			}
			if err := sys.Run(); err != nil {
				t.Logf("seed %d L%d: %v", seed, int(level), err)
				return false
			}
			isys := platform.NewWithEngine(tp, platform.EngineInterp)
			if err := isys.Run(); err != nil {
				t.Logf("seed %d L%d interp: %v", seed, int(level), err)
				return false
			}
			if isys.Stats() != sys.Stats() || !equalU32(isys.Output, sys.Output) || isys.CPU.Regs != sys.CPU.Regs {
				t.Logf("seed %d L%d: compiled engine diverged from interpreter", seed, int(level))
				return false
			}
			if !equalU32(sys.Output, want) {
				t.Logf("seed %d L%d: output %v want %v", seed, int(level), sys.Output, want)
				return false
			}
			// The clock is checked below, within tolerance. genProgram
			// makes no calls, so all 32 registers must match.
			got, want := sys.State(), ref.State()
			got.Cycles = want.Cycles
			if d := got.Diff(want); d != nil || got.R != want.R {
				t.Logf("seed %d L%d: state %v, registers %#x want %#x", seed, int(level), d, got.R, want.R)
				return false
			}
			if level == core.Level3 {
				gen := sys.Stats().GeneratedCycles
				refC := ref.Stats().Cycles
				diff := gen - refC
				if diff < 0 {
					diff = -diff
				}
				if float64(diff) > 0.08*float64(refC)+4 {
					t.Logf("seed %d: L3 generated %d vs reference %d", seed, gen, refC)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
