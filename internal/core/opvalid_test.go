package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/c6x"
	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/platform"
	"repro/internal/tc32"
)

// TestOpLoweringMatchesKernel is op-level translation validation: every
// TC32 op the op table gives a value kernel or a branch condition is
// translated alone at Level 0 and run on the C6x interpreter from seeded
// and edge register values (0, 1, -1, INT_MIN, INT_MAX, shift amounts
// 31..33, hence also divisor 0 and INT_MIN / -1) and edge immediates.
// The final TC32 register file must be the seeded one with the
// destination replaced by the kernel's value, or, for a branch, with a
// marker register recording the condition's outcome. The test walks the
// table, so an op added without a correct lowering fails here.
func TestOpLoweringMatchesKernel(t *testing.T) {
	edges := []uint32{0, 1, 0xFFFF_FFFF, 0x8000_0000, 0x7FFF_FFFF, 31, 32, 33}
	nrand := 16
	if testing.Short() {
		edges, nrand = edges[:5], 4
	}
	r := rand.New(rand.NewSource(1))
	var pairs [][2]uint32
	for _, a := range edges {
		for _, b := range edges {
			pairs = append(pairs, [2]uint32{a, b})
		}
	}
	for k := 0; k < nrand; k++ {
		pairs = append(pairs, [2]uint32{r.Uint32(), r.Uint32()})
	}
	for op := tc32.Op(1); op < tc32.NumOps; op++ {
		if op.Kernel() == nil && op.Cond() == nil {
			continue
		}
		t.Run(op.String(), func(t *testing.T) {
			for _, in := range opVariants(op) {
				prog, err := core.Translate(oneInstProgram(t, in), core.Options{Level: core.Level0})
				if err != nil {
					t.Fatalf("%v: %v", in, err)
				}
				for _, p := range pairs {
					regs := seedRegs(r, in, p)
					want := regs
					if c := op.Cond(); c != nil {
						want[branchMarker] = 0
						if c(in.Operands(&regs)) {
							want[branchMarker] = 1
						}
					} else {
						want[in.Dst()] = op.Kernel()(in.Operands(&regs))
					}
					if got, err := runTranslated(prog, regs); err != nil {
						t.Fatalf("%v from %v: %v", in, p, err)
					} else if got != want {
						t.Fatalf("%v from operands %#x: registers\n got %#x\nwant %#x", in, p, got, want)
					}
				}
			}
		})
	}
}

// branchMarker is the register a conditional-branch test program sets to
// 1 on the taken path and 0 on the fall-through path.
const branchMarker = tc32.Reg(0)

// opVariants returns op with its register fields spread (d1/a1 = Rd,
// Rs1 = 2, Rs2 = 3) and with Rd aliasing a source, each over the edge
// immediates of its format.
func opVariants(op tc32.Op) []tc32.Inst {
	var imms []int32
	switch f := op.Format(); {
	case f == tc32.FmtSRC:
		imms = []int32{0, 1, -1, -8, 7}
	case f == tc32.FmtRI || f == tc32.FmtLS:
		imms = []int32{0, 1, -1, -1 << 15, 1<<15 - 1, 31, 32, 33}
		if !signedImm(op) { // zero-extended or high half
			imms = []int32{0, 1, 0xFFFF, 0x8000, 0x7FFF, 31, 32, 33}
		}
	case f.PCRelative():
		imms = []int32{int32(tc32.EncodedSize(op)) + 6} // past the fall-through path
	default:
		imms = []int32{0}
	}
	var out []tc32.Inst
	for _, regs := range [][3]uint8{{1, 2, 3}, {2, 2, 3}, {3, 2, 3}} {
		for _, imm := range imms {
			out = append(out, tc32.Inst{Op: op, Rd: regs[0], Rs1: regs[1], Rs2: regs[2], Imm: imm})
		}
	}
	return out
}

// signedImm reports whether op's immediate decodes sign-extended: -1
// survives an encode/decode round trip only then.
func signedImm(op tc32.Op) bool {
	var b [4]byte
	n, _ := tc32.Encode(tc32.Inst{Op: op, Imm: -1}, b[:])
	in, err := tc32.Decode(b[:n], 0)
	return err == nil && in.Imm == -1
}

// oneInstProgram places in at address 0 and ends it with halt; a
// conditional branch gets a fall-through path and a taken path that set
// the marker register to 0 and 1.
func oneInstProgram(t *testing.T, in tc32.Inst) *elf32.File {
	t.Helper()
	code := []tc32.Inst{in, {Op: tc32.HALT}}
	if in.Op.IsCondBranch() {
		mark := uint8(branchMarker)
		code = []tc32.Inst{in,
			{Op: tc32.MOVI16, Rd: mark, Imm: 0}, {Op: tc32.HALT},
			{Op: tc32.MOVI16, Rd: mark, Imm: 1}, {Op: tc32.HALT}}
	}
	var text []byte
	for _, i := range code {
		var b [4]byte
		n, err := tc32.Encode(i, b[:])
		if err != nil {
			t.Fatalf("%v: %v", i, err)
		}
		text = append(text, b[:n]...)
	}
	return &elf32.File{Sections: []elf32.Section{
		{Name: ".text", Type: elf32.SHTProgbits, Flags: elf32.SHFAlloc | elf32.SHFExecinstr, Data: text},
	}}
}

// seedRegs returns a random register file with in's register operands set
// to the pair's values, in the order Operands gathers them.
func seedRegs(r *rand.Rand, in tc32.Inst, p [2]uint32) (regs [tc32.NumRegs]uint32) {
	for k := range regs {
		regs[k] = r.Uint32()
	}
	src, n, _ := in.Regs()
	for k := n - 1; k >= 0; k-- {
		regs[src[k]] = p[k]
	}
	return regs
}

// runTranslated runs prog on the C6x interpreter from the TC32 register
// file regs (d → A0..A15, a → B0..B15) and returns the final one.
func runTranslated(prog *core.Program, regs [tc32.NumRegs]uint32) (out [tc32.NumRegs]uint32, err error) {
	sys := platform.NewWithEngine(prog, platform.EngineInterp)
	for k := 0; k < 16; k++ {
		sys.CPU.SetReg(c6x.A(k), regs[tc32.D(uint8(k))])
		sys.CPU.SetReg(c6x.B(k), regs[tc32.A(uint8(k))])
	}
	if err := sys.Run(); err != nil {
		return out, err
	}
	if !sys.CPU.Halted() {
		return out, fmt.Errorf("did not halt")
	}
	for k := 0; k < 16; k++ {
		out[tc32.D(uint8(k))] = sys.CPU.Reg(c6x.A(k))
		out[tc32.A(uint8(k))] = sys.CPU.Reg(c6x.B(k))
	}
	return out, nil
}
