package tc32_test

import (
	"math/rand"
	"testing"

	"repro/internal/elf32"
	"repro/internal/iss"
	"repro/internal/rtlsim"
	"repro/internal/tc32"
	"repro/internal/tc32asm"
)

// FuzzTC32Decode feeds arbitrary bytes to Decode. Every instruction it
// accepts must re-encode to itself, print as assembler text that
// re-assembles to it (branches aside: their text is an absolute target),
// and — for every op that neither touches memory nor transfers control —
// execute identically on the reference ISS and the RT-level proxy from
// the same seeded register file.
func FuzzTC32Decode(f *testing.F) {
	for op := tc32.Op(1); op < tc32.NumOps; op++ {
		var buf [4]byte
		n, err := tc32.Encode(tc32.Inst{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: 4}, buf[:])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[:n], int64(op))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		const addr = 0x100
		in, err := tc32.Decode(data, addr)
		if err != nil {
			return
		}
		var buf [4]byte
		n, err := tc32.Encode(in, buf[:])
		if err != nil {
			t.Fatalf("%v: re-encode: %v", in, err)
		}
		if back, err := tc32.Decode(buf[:n], addr); err != nil || back != in {
			t.Fatalf("%+v: re-decodes to %+v (%v)", in, back, err)
		}
		if !in.Op.Format().PCRelative() {
			checkReassembles(t, in)
		}
		if !in.Op.IsMem() && !in.Op.IsBranch() {
			checkISSMatchesRTL(t, in, buf[:n], seed)
		}
	})
}

// checkReassembles assembles in.String() and compares the result with in,
// whose fields the op does not name are dropped first: the text cannot
// carry them.
func checkReassembles(t *testing.T, in tc32.Inst) {
	t.Helper()
	rd, rs1, rs2 := in.Op.RegFiles()
	for _, f := range []struct {
		file tc32.RegFile
		v    *uint8
	}{{rd, &in.Rd}, {rs1, &in.Rs1}, {rs2, &in.Rs2}} {
		if f.file == tc32.NoFile {
			*f.v = 0
		}
	}
	obj, err := tc32asm.Assemble(in.String() + "\n")
	if err != nil {
		t.Fatalf("%q does not assemble: %v", in.String(), err)
	}
	got, err := tc32.Decode(obj.Section(".text").Data, in.Addr)
	if err != nil || got != in {
		t.Fatalf("%q assembles to %+v, want %+v (%v)", in.String(), got, in, err)
	}
}

// checkISSMatchesRTL runs the one instruction enc on both simulators from
// the same register file and compares both files afterwards.
func checkISSMatchesRTL(t *testing.T, in tc32.Inst, enc []byte, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	edges := []uint32{0, 1, 0xFFFFFFFF, 0x8000_0000, 0x7FFF_FFFF, 31, 32, 33}
	var regs [tc32.NumRegs]uint32
	for k := range regs {
		regs[k] = r.Uint32()
		if r.Intn(3) == 0 {
			regs[k] = edges[r.Intn(len(edges))]
		}
	}
	arch := iss.Arch{R: regs, PC: in.Addr}
	if _, err := arch.Exec(&in, 0); err != nil {
		t.Fatalf("%v: iss: %v", in, err)
	}
	cpu, err := rtlsim.New(&elf32.File{
		Entry:    in.Addr,
		Sections: []elf32.Section{{Name: ".text", Type: elf32.SHTProgbits, Addr: in.Addr, Data: enc}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cpu.R = regs
	for cpu.Retired == 0 {
		if err := cpu.Clock(); err != nil {
			t.Fatalf("%v: rtlsim: %v", in, err)
		}
	}
	for k := range regs {
		if cpu.R[k] != arch.R[k] {
			t.Errorf("%v: %v = %#x on rtlsim, %#x on the ISS (was %#x)", in, tc32.Reg(k), cpu.R[k], arch.R[k], regs[k])
		}
	}
}
