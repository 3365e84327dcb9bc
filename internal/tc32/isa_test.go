package tc32

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpNamesUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(1); op < NumOps; op++ {
		name := op.String()
		if name == "" || name == "<invalid>" {
			t.Fatalf("op %d has no name", op)
		}
		if prev, ok := seen[name]; ok {
			t.Fatalf("duplicate mnemonic %q for ops %d and %d", name, prev, op)
		}
		seen[name] = op
	}
}

func TestOpByName(t *testing.T) {
	for op := Op(1); op < NumOps; op++ {
		if got := OpByName(op.String()); got != op {
			t.Errorf("OpByName(%q) = %v, want %v", op.String(), got, op)
		}
	}
	if got := OpByName("frobnicate"); got != BAD {
		t.Errorf("OpByName(frobnicate) = %v, want BAD", got)
	}
}

func TestEncodingWidthBit(t *testing.T) {
	for op := Op(1); op < NumOps; op++ {
		enc := opTable[op].enc
		if op.Is16Bit() != (enc&1 == 1) {
			t.Errorf("%v: width bit mismatch (enc=%#x, is16=%v)", op, enc, op.Is16Bit())
		}
		if EncodedSize(op) != map[bool]uint8{true: 2, false: 4}[op.Is16Bit()] {
			t.Errorf("%v: EncodedSize mismatch", op)
		}
	}
}

// randomInst generates a valid random instruction for property testing.
func randomInst(r *rand.Rand) Inst {
	for {
		op := Op(1 + r.Intn(int(NumOps)-1))
		i := Inst{Op: op, Addr: uint32(r.Intn(1<<16) * 2)}
		switch op.Format() {
		case FmtRI:
			i.Rd = uint8(r.Intn(16))
			i.Rs1 = uint8(r.Intn(16))
			i.Imm = int32(r.Intn(1 << 16))
			if opTable[op].ext == extSign {
				i.Imm -= 1 << 15
			}
		case FmtRR:
			i.Rd = uint8(r.Intn(16))
			i.Rs1 = uint8(r.Intn(16))
			i.Rs2 = uint8(r.Intn(16))
		case FmtLS:
			i.Rd = uint8(r.Intn(16))
			i.Rs1 = uint8(r.Intn(16))
			i.Imm = int32(r.Intn(1<<16)) - 1<<15
		case FmtBR:
			i.Rs1 = uint8(r.Intn(16))
			i.Rs2 = uint8(r.Intn(16))
			i.Imm = 2 * (int32(r.Intn(1<<16)) - 1<<15)
		case FmtJ:
			i.Imm = 2 * (int32(r.Intn(1<<24)) - 1<<23)
		case FmtJR:
			i.Rs1 = uint8(r.Intn(16))
		case FmtSRR:
			i.Rd = uint8(r.Intn(16))
			i.Rs1 = uint8(r.Intn(16))
		case FmtSRC:
			i.Rd = uint8(r.Intn(16))
			i.Imm = int32(r.Intn(16)) - 8
		case FmtSB:
			i.Imm = 2 * (int32(r.Intn(256)) - 128)
		}
		return i
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		want := randomInst(r)
		var buf [4]byte
		n, err := Encode(want, buf[:])
		if err != nil {
			t.Logf("encode %+v: %v", want, err)
			return false
		}
		if n != int(EncodedSize(want.Op)) {
			t.Logf("encode size %d != %d", n, EncodedSize(want.Op))
			return false
		}
		got, err := Decode(buf[:n], want.Addr)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		want.Size = uint8(n)
		if got != want {
			t.Logf("round trip mismatch:\n got %+v\nwant %+v", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{0x00, 0x00}, 0); err == nil {
		t.Error("decoding opcode 0 should fail")
	}
	if _, err := Decode([]byte{0x02}, 0); err == nil {
		t.Error("decoding truncated instruction should fail")
	}
	if _, err := Decode([]byte{0x02, 0x00, 0x00}, 0); err == nil {
		t.Error("decoding truncated 32-bit instruction should fail")
	}
	if _, err := Decode(nil, 0); err == nil {
		t.Error("decoding empty buffer should fail")
	}
}

func TestEncodeRangeChecks(t *testing.T) {
	cases := []Inst{
		{Op: MOVI, Rd: 16},
		{Op: MOVI, Rd: 0, Imm: 1 << 17},
		{Op: ADD, Rd: 0, Rs1: 16},
		{Op: ADD, Rd: 0, Rs2: 16},
		{Op: LDW, Rd: 0, Rs1: 0, Imm: 1 << 16},
		{Op: JEQ, Imm: 3},       // odd displacement
		{Op: JEQ, Imm: 1 << 18}, // out of range
		{Op: J16, Imm: 600},     // out of 8-bit range
		{Op: MOVI16, Imm: 9},    // out of const4 range
		{Op: BAD},
	}
	var buf [4]byte
	for _, c := range cases {
		if _, err := Encode(c, buf[:]); err == nil {
			t.Errorf("Encode(%+v) should fail", c)
		}
	}
}

func TestBranchTargets(t *testing.T) {
	i := Inst{Op: JEQ, Rs1: 1, Rs2: 2, Imm: -8, Addr: 0x100}
	if got := i.Target(); got != 0xF8 {
		t.Errorf("Target = %#x, want 0xF8", got)
	}
	if !i.Backward() {
		t.Error("negative displacement should be backward")
	}
	fwd := Inst{Op: JNE, Imm: 12, Addr: 0x100}
	if fwd.Backward() {
		t.Error("positive displacement should be forward")
	}
}

func TestClassPredicates(t *testing.T) {
	checks := []struct {
		op                                     Op
		branch, cond, call, indir, load, store bool
	}{
		{J, true, false, false, false, false, false},
		{JL, true, false, true, false, false, false},
		{JI, true, false, false, true, false, false},
		{RET, true, false, false, true, false, false},
		{RET16, true, false, false, true, false, false},
		{JEQ, true, true, false, false, false, false},
		{JZ16, true, true, false, false, false, false},
		{HALT, true, false, false, false, false, false},
		{LDW, false, false, false, false, true, false},
		{LDA, false, false, false, false, true, false},
		{STW, false, false, false, false, false, true},
		{STA, false, false, false, false, false, true},
		{ADD, false, false, false, false, false, false},
	}
	for _, c := range checks {
		if c.op.IsBranch() != c.branch {
			t.Errorf("%v.IsBranch() = %v", c.op, c.op.IsBranch())
		}
		if c.op.IsCondBranch() != c.cond {
			t.Errorf("%v.IsCondBranch() = %v", c.op, c.op.IsCondBranch())
		}
		if c.op.IsCall() != c.call {
			t.Errorf("%v.IsCall() = %v", c.op, c.op.IsCall())
		}
		if c.op.IsIndirect() != c.indir {
			t.Errorf("%v.IsIndirect() = %v", c.op, c.op.IsIndirect())
		}
		if c.op.IsLoad() != c.load {
			t.Errorf("%v.IsLoad() = %v", c.op, c.op.IsLoad())
		}
		if c.op.IsStore() != c.store {
			t.Errorf("%v.IsStore() = %v", c.op, c.op.IsStore())
		}
	}
}

func TestDivSemantics(t *testing.T) {
	cases := []struct {
		a, b, q, r int32
	}{
		{7, 2, 3, 1},
		{-7, 2, -3, -1},
		{7, -2, -3, 1},
		{5, 0, 0, 5},
		{-1 << 31, -1, -1 << 31, 0},
		{0, 3, 0, 0},
	}
	for _, c := range cases {
		if q := DivQuot(c.a, c.b); q != c.q {
			t.Errorf("DivQuot(%d, %d) = %d, want %d", c.a, c.b, q, c.q)
		}
		if r := DivRem(c.a, c.b); r != c.r {
			t.Errorf("DivRem(%d, %d) = %d, want %d", c.a, c.b, r, c.r)
		}
	}
	if q := DivQuotU(10, 0); q != 0 {
		t.Errorf("DivQuotU(10,0) = %d, want 0", q)
	}
	if r := DivRemU(10, 0); r != 10 {
		t.Errorf("DivRemU(10,0) = %d, want 10", r)
	}
	if q := DivQuotU(10, 3); q != 3 {
		t.Errorf("DivQuotU(10,3) = %d, want 3", q)
	}
	if r := DivRemU(10, 3); r != 1 {
		t.Errorf("DivRemU(10,3) = %d, want 1", r)
	}
}

func TestDecodeAll(t *testing.T) {
	var buf []byte
	insts := []Inst{
		{Op: MOVI, Rd: 1, Imm: 42},
		{Op: ADD16, Rd: 1, Rs1: 2},
		{Op: HALT},
	}
	for _, i := range insts {
		var b [4]byte
		n, err := Encode(i, b[:])
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b[:n]...)
	}
	got, err := DecodeAll(buf, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d insts, want 3", len(got))
	}
	if got[0].Addr != 0x1000 || got[1].Addr != 0x1004 || got[2].Addr != 0x1006 {
		t.Errorf("addresses wrong: %#x %#x %#x", got[0].Addr, got[1].Addr, got[2].Addr)
	}
	if got[1].Op != ADD16 || got[2].Op != HALT {
		t.Errorf("ops wrong: %v %v", got[1].Op, got[2].Op)
	}
}

func TestStringSmoke(t *testing.T) {
	// Every op should render without panicking and include its mnemonic.
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		i := randomInst(r)
		s := i.String()
		if s == "" {
			t.Fatalf("empty disassembly for %+v", i)
		}
	}
}

// TestOpTableComplete checks every row of the op table for a shape its
// consumers can derive from: each op has semantics (a kernel, a branch
// condition, a memory access, or it is one of the control and interrupt
// ops each consumer spells out), and names only the fields its format
// encodes, with at most two operands and two source registers.
func TestOpTableComplete(t *testing.T) {
	explicit := map[Op]bool{J: true, JL: true, JI: true, RET: true, J16: true, RET16: true,
		HALT: true, NOP: true, NOP16: true, EI: true, DI: true, RETI: true, WFI: true}
	hasRd := map[Format]bool{FmtRI: true, FmtRR: true, FmtLS: true, FmtSRR: true, FmtSRC: true}
	hasRs1 := map[Format]bool{FmtRI: true, FmtRR: true, FmtLS: true, FmtBR: true, FmtJR: true, FmtSRR: true}
	hasRs2 := map[Format]bool{FmtRR: true, FmtBR: true}
	for op := Op(1); op < NumOps; op++ {
		r := opTable[op]
		kinds := 0
		for _, k := range []bool{r.kernel != nil, r.cond != nil, r.mem != 0, explicit[op]} {
			if k {
				kinds++
			}
		}
		if kinds != 1 {
			t.Errorf("%v: needs exactly one of kernel, condition, memory access or explicit control (has %d)", op, kinds)
		}
		if (r.kernel != nil || r.mem != 0 && r.use&useStore == 0) != (r.use&useDst != 0) {
			t.Errorf("%v: writes Rd iff it has a kernel or loads", op)
		}
		if r.mem != 0 && (r.format != FmtLS || r.rs1 != AFile || r.rd == NoFile) {
			t.Errorf("%v: memory op must be LS-format with an address base and a data register", op)
		}
		if r.use&useSigned != 0 && (r.mem == 0 || r.use&useStore != 0) {
			t.Errorf("%v: only a load can sign-extend", op)
		}
		if r.rd != NoFile && !hasRd[r.format] || r.rs1 != NoFile && !hasRs1[r.format] || r.rs2 != NoFile && !hasRs2[r.format] {
			t.Errorf("%v: names a register field format %d does not encode", op, r.format)
		}
		if r.use&useMerge != 0 && r.rd == NoFile {
			t.Errorf("%v: merges an Rd it does not name", op)
		}
		if r.ext != extSign && r.format != FmtRI {
			t.Errorf("%v: immediate extension on a non-RI format", op)
		}
		operands := 0
		for _, k := range []bool{r.use&useMerge != 0, r.rs1 != NoFile, r.rs2 != NoFile,
			r.use&useRA != 0, r.use&useCond15 != 0, r.format.hasOperandImm()} {
			if k {
				operands++
			}
		}
		if operands > 2 {
			t.Errorf("%v: %d kernel operands, want at most 2", op, operands)
		}
		in := Inst{Op: op}
		if _, n, _ := in.Regs(); n > 2 {
			t.Errorf("%v: %d source registers, want at most 2", op, n)
		}
	}
}

func TestInstRegsSpotChecks(t *testing.T) {
	cases := []struct {
		in   Inst
		srcs []Reg
		dst  Reg
	}{
		{Inst{Op: STW, Rd: 3, Rs1: 2, Imm: 8}, []Reg{A(2), D(3)}, NoReg},
		{Inst{Op: STA, Rd: 3, Rs1: 4}, []Reg{A(4), A(3)}, NoReg},
		{Inst{Op: LDW, Rd: 3, Rs1: 2}, []Reg{A(2)}, D(3)},
		{Inst{Op: LDA, Rd: 3, Rs1: 4}, []Reg{A(4)}, A(3)},
		{Inst{Op: LEA, Rd: 1, Rs1: 2, Imm: 4}, []Reg{A(2)}, A(1)},
		{Inst{Op: MOVHA, Rd: 5, Imm: 1}, nil, A(5)},
		{Inst{Op: MOVD2A, Rd: 1, Rs1: 2}, []Reg{D(2)}, A(1)},
		{Inst{Op: MOVA2D, Rd: 1, Rs1: 2}, []Reg{A(2)}, D(1)},
		{Inst{Op: ADDA, Rd: 1, Rs1: 2, Rs2: 3}, []Reg{A(2), A(3)}, A(1)},
		{Inst{Op: MOVI, Rd: 5, Rs1: 9}, nil, D(5)},
		{Inst{Op: ADDI, Rd: 5, Rs1: 9}, []Reg{D(9)}, D(5)},
		{Inst{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3}, []Reg{D(2), D(3)}, D(1)},
		{Inst{Op: ABS, Rd: 1, Rs1: 2, Rs2: 3}, []Reg{D(2)}, D(1)},
		{Inst{Op: ADD16, Rd: 1, Rs1: 2}, []Reg{D(1), D(2)}, D(1)},
		{Inst{Op: MOV16, Rd: 1, Rs1: 2}, []Reg{D(2)}, D(1)},
		{Inst{Op: ADDI16, Rd: 1, Imm: -1}, []Reg{D(1)}, D(1)},
		{Inst{Op: JEQ, Rs1: 1, Rs2: 2}, []Reg{D(1), D(2)}, NoReg},
		{Inst{Op: JZ, Rs1: 1, Rs2: 2}, []Reg{D(1)}, NoReg},
		{Inst{Op: JZ16}, []Reg{D(ImplicitCond)}, NoReg},
		{Inst{Op: JL}, nil, A(RA)},
		{Inst{Op: JI, Rs1: 4}, []Reg{A(4)}, NoReg},
		{Inst{Op: RET16}, []Reg{A(RA)}, NoReg},
		{Inst{Op: EI}, nil, NoReg},
		{Inst{Op: HALT}, nil, NoReg},
		{Inst{Op: BAD, Rd: 3, Rs1: 4, Rs2: 5}, nil, NoReg},
		{Inst{Op: NumOps, Rd: 3, Rs1: 4, Rs2: 5}, nil, NoReg},
	}
	for _, c := range cases {
		src, n, dst := c.in.Regs()
		if n != len(c.srcs) || dst != c.dst {
			t.Errorf("%v: regs %v -> %v, want %v -> %v", c.in, src[:n], dst, c.srcs, c.dst)
			continue
		}
		for k := range c.srcs {
			if src[k] != c.srcs[k] {
				t.Errorf("%v: source %d is %v, want %v", c.in, k, src[k], c.srcs[k])
			}
		}
	}
}
