// Package tc32 defines the TC32 instruction-set architecture: a
// TriCore-class 32-bit embedded processor used as the source processor of
// the cycle-accurate binary translator.
//
// Like Infineon's TriCore, TC32 has a split register file (16 data
// registers d0..d15 and 16 address registers a0..a15, with a10 as stack
// pointer and a11 as return address), little-endian memory, and mixed
// 16-bit/32-bit instruction encodings.  The mixed encoding is what makes
// instruction-cache analysis blocks non-trivial, exactly as in the paper.
//
// # The ISA
//
// Each opcode is one row of opTable, and that row is the single statement
// of what the op is: its mnemonic, encoding format and opcode byte; the
// register file each of its Rd, Rs1 and Rs2 fields names; whether it
// writes Rd, reads it as well, or stores it; its implicit registers (a11
// for jl and ret, d15 for jz16 and jnz16); how an RI immediate is
// extended; a memory op's access size and sign; and its value kernel or
// branch condition.
//
// Everything else derives from the row: Decode's immediate extension,
// String and the assembler's operand syntax (internal/tc32asm), the
// operand use the pipeline model times ([Inst.Regs], internal/march), the
// ALU, address and branch units of the reference ISS and the RT-level
// proxy ([Inst.Operands], [Op.Kernel], [Op.Cond]; internal/iss,
// internal/rtlsim) and the translator's register dataflow
// (internal/core). Those consumers spell out only control transfer and
// the interrupt ops. What the table does not hold is timing
// (march.Desc.TimingOf) and the translation to C6x code
// (internal/core), which is checked against the kernels op by op.
package tc32

import "strconv"

// Register file indices.
const (
	// SP is the stack pointer (address register a10).
	SP = 10
	// RA is the return-address register (address register a11).
	RA = 11
	// ImplicitCond is the data register tested by the 16-bit jz16/jnz16
	// forms (d15, as in TriCore's SB format).
	ImplicitCond = 15
)

// NumRegs is the number of registers in both files together.
const NumRegs = 32

// Reg is a register in the unified namespace of both files: 0..15 are
// d0..d15 and 16..31 are a0..a15.
type Reg uint8

// NoReg marks the absence of a register.
const NoReg Reg = 0xFF

// D returns data register dn.
func D(n uint8) Reg { return Reg(n) }

// A returns address register an.
func A(n uint8) Reg { return Reg(16 + n) }

// String returns the assembler name ("d3", "a11"; "-" for NoReg).
func (r Reg) String() string {
	switch {
	case r < 16:
		return "d" + strconv.Itoa(int(r))
	case r < NumRegs:
		return "a" + strconv.Itoa(int(r-16))
	}
	return "-"
}

// RegFile is the register file an instruction field names.
type RegFile uint8

// The register files.
const (
	NoFile RegFile = iota // the field is not an operand
	DFile                 // data registers
	AFile                 // address registers
)

// Reg returns register n of the file.
func (f RegFile) Reg(n uint8) Reg {
	if f == AFile {
		return A(n)
	}
	return D(n)
}

// Letter returns the prefix of the file's register names ('d' or 'a').
func (f RegFile) Letter() byte { return "-da"[f] }

// Op identifies a TC32 operation (mnemonic level, not encoding level).
// What each one does is its row of opTable.
type Op uint8

// TC32 operations. Ops with a "16" suffix use the 16-bit encoding.
const (
	BAD Op = iota // illegal/unknown encoding

	// Data-register ALU, immediate forms.
	MOVI  // d[rd] = sext16(imm)
	MOVHI // d[rd] = imm << 16
	ADDI  // d[rd] = d[rs1] + sext16(imm)
	RSUBI // d[rd] = sext16(imm) - d[rs1]
	ANDI  // d[rd] = d[rs1] & zext16(imm)
	ORI   // d[rd] = d[rs1] | zext16(imm)
	XORI  // d[rd] = d[rs1] ^ zext16(imm)
	EQI   // d[rd] = d[rs1] == sext16(imm) ? 1 : 0
	LTI   // d[rd] = d[rs1] < sext16(imm) ? 1 : 0 (signed)
	SHLI  // d[rd] = d[rs1] << (imm & 31)
	SHRI  // d[rd] = d[rs1] >> (imm & 31) (logical)
	SARI  // d[rd] = d[rs1] >> (imm & 31) (arithmetic)

	// Data-register ALU, register forms.
	MOV   // d[rd] = d[rs1]
	ADD   // d[rd] = d[rs1] + d[rs2]
	SUB   // d[rd] = d[rs1] - d[rs2]
	MUL   // d[rd] = d[rs1] * d[rs2] (low 32 bits)
	DIV   // d[rd] = d[rs1] / d[rs2] (signed; see DivQuot)
	DIVU  // d[rd] = d[rs1] / d[rs2] (unsigned)
	REM   // d[rd] = d[rs1] % d[rs2] (signed)
	REMU  // d[rd] = d[rs1] % d[rs2] (unsigned)
	AND   // d[rd] = d[rs1] & d[rs2]
	OR    // d[rd] = d[rs1] | d[rs2]
	XOR   // d[rd] = d[rs1] ^ d[rs2]
	ANDN  // d[rd] = d[rs1] &^ d[rs2]
	SHL   // d[rd] = d[rs1] << (d[rs2] & 31)
	SHR   // d[rd] = d[rs1] >> (d[rs2] & 31) (logical)
	SAR   // d[rd] = d[rs1] >> (d[rs2] & 31) (arithmetic)
	EQ    // d[rd] = d[rs1] == d[rs2] ? 1 : 0
	NE    // d[rd] = d[rs1] != d[rs2] ? 1 : 0
	LT    // signed <
	LTU   // unsigned <
	GE    // signed >=
	GEU   // unsigned >=
	MIN   // signed minimum
	MAX   // signed maximum
	ABS   // d[rd] = |d[rs1]| (signed)
	SEXTB // d[rd] = sign-extend low byte of d[rs1]
	SEXTH // d[rd] = sign-extend low half of d[rs1]

	// Address-register operations.
	MOVHA  // a[rd] = imm << 16
	LEA    // a[rd] = a[rs1] + sext16(imm)
	MOVD2A // a[rd] = d[rs1]
	MOVA2D // d[rd] = a[rs1]
	ADDA   // a[rd] = a[rs1] + a[rs2]
	ADDIA  // a[rd] = a[rs1] + sext16(imm)

	// Loads and stores: effective address a[rs1] + sext16(imm).
	LDW  // d[rd] = mem32[ea]
	LDH  // d[rd] = sext(mem16[ea])
	LDHU // d[rd] = zext(mem16[ea])
	LDB  // d[rd] = sext(mem8[ea])
	LDBU // d[rd] = zext(mem8[ea])
	STW  // mem32[ea] = d[rd]
	STH  // mem16[ea] = d[rd]
	STB  // mem8[ea] = d[rd]
	LDA  // a[rd] = mem32[ea]
	STA  // mem32[ea] = a[rd]

	// Control flow. Branch displacements are byte offsets relative to the
	// address of the branch instruction itself (always even).
	J    // pc = pc + imm
	JL   // a11 = pc + 4; pc = pc + imm
	JI   // pc = a[rs1]
	RET  // pc = a11
	JEQ  // if d[rs1] == d[rs2]: pc += imm
	JNE  // if d[rs1] != d[rs2]: pc += imm
	JLT  // if d[rs1] <  d[rs2] (signed): pc += imm
	JGE  // if d[rs1] >= d[rs2] (signed): pc += imm
	JLTU // unsigned <
	JGEU // unsigned >=
	JZ   // if d[rs1] == 0: pc += imm
	JNZ  // if d[rs1] != 0: pc += imm

	NOP  // no operation (32-bit)
	HALT // stop the processor (simulation exit)

	// Interrupt architecture. TC32 has a single external interrupt line
	// (driven by an interrupt controller), one shadow register pair
	// (saved PC + interrupt-enable), and a single vector: the `__irq`
	// symbol. Delivery happens only at basic-block boundaries — see
	// Leaders — which is what lets the binary translator take an
	// interrupt at the identical source cycle (docs/architecture.md,
	// "Interrupts").
	EI   // enable interrupts (IE = 1)
	DI   // disable interrupts (IE = 0)
	RETI // return from interrupt: pc = shadow pc, IE = 1
	WFI  // wait for interrupt: idle until the line delivers

	// 16-bit encodings.
	MOV16  // d[rd] = d[rs1]
	ADD16  // d[rd] += d[rs1]
	SUB16  // d[rd] -= d[rs1]
	MOVI16 // d[rd] = sext4(imm)
	ADDI16 // d[rd] += sext4(imm)
	J16    // pc += imm
	JZ16   // if d15 == 0: pc += imm
	JNZ16  // if d15 != 0: pc += imm
	RET16  // pc = a11
	NOP16  // no operation (16-bit)

	NumOps // number of operations (not an op)
)

// Format describes the encoding format of an operation.
type Format uint8

// Encoding formats. 32-bit formats first, then 16-bit.
const (
	FmtNone Format = iota // op only (nop, halt, ret)
	FmtRI                 // op, rd, rs1, imm16
	FmtRR                 // op, rd, rs1, rs2
	FmtLS                 // op, rd, rs1(base), off16
	FmtBR                 // op, rs1, rs2, disp16 (halfwords)
	FmtJ                  // op, disp24 (halfwords)
	FmtJR                 // op, rs1 (address register)
	FmtSRR                // 16-bit: op, rd, rs1
	FmtSRC                // 16-bit: op, rd, const4
	FmtSB                 // 16-bit: op, disp8 (halfwords)
	FmtS0                 // 16-bit: op only
)

// HasImm reports whether the format encodes an immediate: an operand
// value or a branch displacement.
func (f Format) HasImm() bool { return f.hasOperandImm() || f.PCRelative() }

// PCRelative reports whether the format's immediate is a branch
// displacement relative to the instruction's address.
func (f Format) PCRelative() bool { return f == FmtBR || f == FmtJ || f == FmtSB }

// hasOperandImm reports whether the format's immediate is an operand
// value (RI, LS and SRC; a branch displacement is not one).
func (f Format) hasOperandImm() bool { return f == FmtRI || f == FmtLS || f == FmtSRC }

// opUse is what an op does with its Rd field and implicit registers, and
// how a load extends.
type opUse uint8

const (
	useDst    opUse = 1 << iota // writes Rd
	useMerge                    // reads Rd as well, as the kernel's first operand
	useStore                    // writes memory from Rd
	useSigned                   // a load sign-extends from its access size
	useLink                     // writes the return address to a11
	useRA                       // reads a11
	useCond15                   // reads d15
)

// immExt is how an RI-format op extends its 16-bit immediate.
type immExt uint8

const (
	extSign immExt = iota // sign-extended
	extZero               // zero-extended
	extHigh               // the high half: the operand is imm << 16
)

// opInfo is one op's row of opTable.
type opInfo struct {
	name   string
	format Format
	enc    uint8 // primary opcode byte (bit 0 set for 16-bit encodings)
	// rd, rs1 and rs2 are the files the Rd, Rs1 and Rs2 fields name
	// (NoFile: the field is not an operand). A memory op's rs1 is its
	// base and its rd the register it loads or stores.
	rd, rs1, rs2 RegFile
	use          opUse
	ext          immExt
	mem          uint8 // access size in bytes of a memory op
	// kernel computes the value written to the destination, cond decides
	// a conditional branch, both from the operands Inst.Operands gathers.
	kernel func(a, b uint32) uint32
	cond   func(a, b uint32) bool

	// Derived from the columns above by derive: the registers Regs reads
	// and writes, and where Operands takes each operand from. The ISS
	// calls both for every simulated instruction, and resolving them
	// through these instead of testing the columns on each call keeps it
	// fast.
	srcs     [2]fieldRef
	nsrc     int
	dst      fieldRef
	args     [2]operand
	immShift uint8 // 16 for a high-half immediate
}

// operand is where a kernel operand comes from: the register ref masked
// by reg, or'ed with the immediate masked by imm. Exactly one of the
// masks is all ones for a present operand; both are 0 for a missing one,
// which reads as 0.
type operand struct {
	ref      fieldRef
	reg, imm uint32
}

// fieldRef names a register through an instruction field: the register is
// base plus the field's value, the field selected by its shift in
// Inst.fields. The fixed field reads as 0, so base alone names an
// implicit register, or NoReg.
type fieldRef struct{ field, base uint8 }

const (
	rdField    = 0
	rs1Field   = 8
	rs2Field   = 16
	fixedField = 24
)

// fields packs the register fields for fieldRef.reg.
func (i *Inst) fields() uint32 { return uint32(i.Rd) | uint32(i.Rs1)<<8 | uint32(i.Rs2)<<16 }

// reg resolves the reference against packed register fields.
func (f fieldRef) reg(fields uint32) Reg { return Reg(f.base + uint8(fields>>f.field)) }

// derive fills in the row's field references. The kernel's operands are
// Rd when the op merges it, Rs1, Rs2 and the implicit a11 or d15, then
// the operand immediate; the sources Regs reports are the same registers
// plus a store's data register.
func (r *opInfo) derive() {
	ref := func(f RegFile, field uint8) fieldRef { return fieldRef{field, uint8(f.Reg(0))} }
	var args []fieldRef
	if r.use&useMerge != 0 {
		args = append(args, ref(r.rd, rdField))
	}
	if r.rs1 != NoFile {
		args = append(args, ref(r.rs1, rs1Field))
	}
	if r.rs2 != NoFile {
		args = append(args, ref(r.rs2, rs2Field))
	}
	if r.use&useRA != 0 {
		args = append(args, fieldRef{fixedField, uint8(A(RA))})
	}
	if r.use&useCond15 != 0 {
		args = append(args, fieldRef{fixedField, uint8(D(ImplicitCond))})
	}
	srcs := args
	if r.use&useStore != 0 {
		srcs = append(srcs[:len(srcs):len(srcs)], ref(r.rd, rdField))
	}
	nimm := 0
	if r.format.hasOperandImm() {
		nimm = 1
	}
	if len(srcs) > 2 || len(args)+nimm > 2 {
		panic("tc32: more than two operands for " + r.name)
	}
	r.nsrc = copy(r.srcs[:], srcs)
	for k, ref := range args {
		r.args[k] = operand{ref: ref, reg: ^uint32(0)}
	}
	if nimm == 1 {
		r.args[len(args)].imm = ^uint32(0)
	}
	if r.ext == extHigh {
		r.immShift = 16
	}
	r.dst = fieldRef{fixedField, uint8(NoReg)}
	switch {
	case r.use&useDst != 0:
		r.dst = ref(r.rd, rdField)
	case r.use&useLink != 0:
		r.dst = fieldRef{fixedField, uint8(A(RA))}
	}
}

// Row builders for the regular shapes.
func aluI(name string, enc uint8, ext immExt, k func(a, b uint32) uint32) opInfo {
	return opInfo{name: name, format: FmtRI, enc: enc, rd: DFile, rs1: DFile, use: useDst, ext: ext, kernel: k}
}

func alu2(name string, enc uint8, k func(a, b uint32) uint32) opInfo {
	return opInfo{name: name, format: FmtRR, enc: enc, rd: DFile, rs1: DFile, rs2: DFile, use: useDst, kernel: k}
}

func alu1(name string, enc uint8, k func(a, b uint32) uint32) opInfo {
	return opInfo{name: name, format: FmtRR, enc: enc, rd: DFile, rs1: DFile, use: useDst, kernel: k}
}

func load(name string, enc uint8, rd RegFile, mem uint8, sign opUse) opInfo {
	return opInfo{name: name, format: FmtLS, enc: enc, rd: rd, rs1: AFile, use: useDst | sign, mem: mem}
}

func store(name string, enc uint8, rd RegFile, mem uint8) opInfo {
	return opInfo{name: name, format: FmtLS, enc: enc, rd: rd, rs1: AFile, use: useStore, mem: mem}
}

func jcc(name string, enc uint8, c func(a, b uint32) bool) opInfo {
	return opInfo{name: name, format: FmtBR, enc: enc, rs1: DFile, rs2: DFile, cond: c}
}

// Kernels and conditions. A kernel's a and b are the operands in the
// order Inst.Operands gathers them.
func first(a, _ uint32) uint32 { return a }
func add(a, b uint32) uint32   { return a + b }
func sub(a, b uint32) uint32   { return a - b }
func shl(a, b uint32) uint32   { return a << (b & 31) }
func shr(a, b uint32) uint32   { return a >> (b & 31) }
func sar(a, b uint32) uint32   { return uint32(int32(a) >> (b & 31)) }
func and(a, b uint32) uint32   { return a & b }
func or(a, b uint32) uint32    { return a | b }
func xor(a, b uint32) uint32   { return a ^ b }

func eq(a, b uint32) bool  { return a == b }
func ne(a, b uint32) bool  { return a != b }
func lt(a, b uint32) bool  { return int32(a) < int32(b) }
func ge(a, b uint32) bool  { return int32(a) >= int32(b) }
func ltu(a, b uint32) bool { return a < b }
func geu(a, b uint32) bool { return a >= b }

// The comparison kernels write a condition as 1 or 0.
func setEq(a, b uint32) uint32  { return b2u(eq(a, b)) }
func setNe(a, b uint32) uint32  { return b2u(ne(a, b)) }
func setLt(a, b uint32) uint32  { return b2u(lt(a, b)) }
func setGe(a, b uint32) uint32  { return b2u(ge(a, b)) }
func setLtu(a, b uint32) uint32 { return b2u(ltu(a, b)) }
func setGeu(a, b uint32) uint32 { return b2u(geu(a, b)) }

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// opTable is the one statement of the ISA (see the package doc).
var opTable = [NumOps]opInfo{
	BAD:   {name: "<bad>"},
	MOVI:  {name: "movi", format: FmtRI, enc: 0x02, rd: DFile, use: useDst, kernel: first},
	MOVHI: {name: "movhi", format: FmtRI, enc: 0x04, rd: DFile, use: useDst, ext: extHigh, kernel: first},
	ADDI:  aluI("addi", 0x06, extSign, add),
	RSUBI: aluI("rsubi", 0x08, extSign, func(a, b uint32) uint32 { return b - a }),
	ANDI:  aluI("andi", 0x0A, extZero, and),
	ORI:   aluI("ori", 0x0C, extZero, or),
	XORI:  aluI("xori", 0x0E, extZero, xor),
	EQI:   aluI("eqi", 0x10, extSign, setEq),
	LTI:   aluI("lti", 0x12, extSign, setLt),
	SHLI:  aluI("shli", 0x14, extSign, shl),
	SHRI:  aluI("shri", 0x16, extSign, shr),
	SARI:  aluI("sari", 0x18, extSign, sar),
	MOV:   alu1("mov", 0x1A, first),
	ADD:   alu2("add", 0x1C, add),
	SUB:   alu2("sub", 0x1E, sub),
	MUL:   alu2("mul", 0x20, func(a, b uint32) uint32 { return a * b }),
	DIV:   alu2("div", 0x22, func(a, b uint32) uint32 { return uint32(DivQuot(int32(a), int32(b))) }),
	DIVU:  alu2("divu", 0x24, DivQuotU),
	REM:   alu2("rem", 0x26, func(a, b uint32) uint32 { return uint32(DivRem(int32(a), int32(b))) }),
	REMU:  alu2("remu", 0x28, DivRemU),
	AND:   alu2("and", 0x2A, and),
	OR:    alu2("or", 0x2C, or),
	XOR:   alu2("xor", 0x2E, xor),
	ANDN:  alu2("andn", 0x30, func(a, b uint32) uint32 { return a &^ b }),
	SHL:   alu2("shl", 0x32, shl),
	SHR:   alu2("shr", 0x34, shr),
	SAR:   alu2("sar", 0x36, sar),
	EQ:    alu2("eq", 0x38, setEq),
	NE:    alu2("ne", 0x3A, setNe),
	LT:    alu2("lt", 0x3C, setLt),
	LTU:   alu2("ltu", 0x3E, setLtu),
	GE:    alu2("ge", 0x40, setGe),
	GEU:   alu2("geu", 0x42, setGeu),
	MIN: alu2("min", 0x44, func(a, b uint32) uint32 {
		if lt(a, b) {
			return a
		}
		return b
	}),
	MAX: alu2("max", 0x46, func(a, b uint32) uint32 {
		if lt(b, a) {
			return a
		}
		return b
	}),
	ABS: alu1("abs", 0x48, func(a, _ uint32) uint32 {
		if int32(a) < 0 {
			return -a
		}
		return a
	}),
	SEXTB:  alu1("sext.b", 0x4A, func(a, _ uint32) uint32 { return uint32(int32(int8(a))) }),
	SEXTH:  alu1("sext.h", 0x4C, func(a, _ uint32) uint32 { return uint32(int32(int16(a))) }),
	MOVHA:  {name: "movh.a", format: FmtRI, enc: 0x50, rd: AFile, use: useDst, ext: extHigh, kernel: first},
	LEA:    {name: "lea", format: FmtLS, enc: 0x52, rd: AFile, rs1: AFile, use: useDst, kernel: add},
	MOVD2A: {name: "mov.a", format: FmtRR, enc: 0x54, rd: AFile, rs1: DFile, use: useDst, kernel: first},
	MOVA2D: {name: "mov.d", format: FmtRR, enc: 0x56, rd: DFile, rs1: AFile, use: useDst, kernel: first},
	ADDA:   {name: "add.a", format: FmtRR, enc: 0x58, rd: AFile, rs1: AFile, rs2: AFile, use: useDst, kernel: add},
	ADDIA:  {name: "addi.a", format: FmtRI, enc: 0x5A, rd: AFile, rs1: AFile, use: useDst, kernel: add},
	LDW:    load("ld.w", 0x60, DFile, 4, 0),
	LDH:    load("ld.h", 0x62, DFile, 2, useSigned),
	LDHU:   load("ld.hu", 0x64, DFile, 2, 0),
	LDB:    load("ld.b", 0x66, DFile, 1, useSigned),
	LDBU:   load("ld.bu", 0x68, DFile, 1, 0),
	STW:    store("st.w", 0x6A, DFile, 4),
	STH:    store("st.h", 0x6C, DFile, 2),
	STB:    store("st.b", 0x6E, DFile, 1),
	LDA:    load("ld.a", 0x70, AFile, 4, 0),
	STA:    store("st.a", 0x72, AFile, 4),
	J:      {name: "j", format: FmtJ, enc: 0x80},
	JL:     {name: "jl", format: FmtJ, enc: 0x82, use: useLink},
	JI:     {name: "ji", format: FmtJR, enc: 0x84, rs1: AFile},
	RET:    {name: "ret", format: FmtNone, enc: 0x86, use: useRA},
	JEQ:    jcc("jeq", 0x88, eq),
	JNE:    jcc("jne", 0x8A, ne),
	JLT:    jcc("jlt", 0x8C, lt),
	JGE:    jcc("jge", 0x8E, ge),
	JLTU:   jcc("jltu", 0x90, ltu),
	JGEU:   jcc("jgeu", 0x92, geu),
	JZ:     {name: "jz", format: FmtBR, enc: 0x94, rs1: DFile, cond: eq}, // b is 0
	JNZ:    {name: "jnz", format: FmtBR, enc: 0x96, rs1: DFile, cond: ne},
	NOP:    {name: "nop", format: FmtNone, enc: 0x98},
	HALT:   {name: "halt", format: FmtNone, enc: 0x9A},
	EI:     {name: "ei", format: FmtNone, enc: 0x9C},
	DI:     {name: "di", format: FmtNone, enc: 0x9E},
	RETI:   {name: "reti", format: FmtNone, enc: 0xA0},
	WFI:    {name: "wfi", format: FmtNone, enc: 0xA2},
	MOV16:  {name: "mov16", format: FmtSRR, enc: 0x03, rd: DFile, rs1: DFile, use: useDst, kernel: first},
	ADD16:  {name: "add16", format: FmtSRR, enc: 0x05, rd: DFile, rs1: DFile, use: useDst | useMerge, kernel: add},
	SUB16:  {name: "sub16", format: FmtSRR, enc: 0x07, rd: DFile, rs1: DFile, use: useDst | useMerge, kernel: sub},
	MOVI16: {name: "movi16", format: FmtSRC, enc: 0x09, rd: DFile, use: useDst, kernel: first},
	ADDI16: {name: "addi16", format: FmtSRC, enc: 0x0B, rd: DFile, use: useDst | useMerge, kernel: add},
	J16:    {name: "j16", format: FmtSB, enc: 0x0D},
	JZ16:   {name: "jz16", format: FmtSB, enc: 0x0F, use: useCond15, cond: eq},
	JNZ16:  {name: "jnz16", format: FmtSB, enc: 0x11, use: useCond15, cond: ne},
	RET16:  {name: "ret16", format: FmtS0, enc: 0x13, use: useRA},
	NOP16:  {name: "nop16", format: FmtS0, enc: 0x15},
}

// encToOp maps primary opcode bytes back to operations.
var encToOp [256]Op

func init() {
	for op := range opTable {
		opTable[op].derive()
	}
	for op := Op(1); op < NumOps; op++ {
		info := opTable[op]
		if encToOp[info.enc] != BAD {
			panic("tc32: duplicate encoding " + info.name)
		}
		wide := info.format < FmtSRR
		if wide == (info.enc&1 == 1) {
			panic("tc32: encoding width bit mismatch for " + info.name)
		}
		encToOp[info.enc] = op
	}
}

// info returns op's row; an op outside the table reads as BAD.
func (op Op) info() *opInfo {
	if op >= NumOps {
		op = BAD
	}
	return &opTable[op]
}

// String returns the mnemonic of the operation.
func (op Op) String() string {
	if op >= NumOps {
		return "<invalid>"
	}
	return opTable[op].name
}

// Format returns the encoding format of op.
func (op Op) Format() Format { return op.info().format }

// Is16Bit reports whether op uses the 16-bit encoding.
func (op Op) Is16Bit() bool { return op.Format() >= FmtSRR }

// OpByName looks up an operation by its mnemonic. It returns BAD if the
// mnemonic is unknown.
func OpByName(name string) Op {
	for op := Op(1); op < NumOps; op++ {
		if opTable[op].name == name {
			return op
		}
	}
	return BAD
}

// RegFiles returns the files op's Rd, Rs1 and Rs2 fields name (NoFile:
// the field is not an operand).
func (op Op) RegFiles() (rd, rs1, rs2 RegFile) {
	r := op.info()
	return r.rd, r.rs1, r.rs2
}

// Kernel returns the function computing op's result from the operands
// Inst.Operands gathers (nil: op writes no computed value).
func (op Op) Kernel() func(a, b uint32) uint32 { return op.info().kernel }

// Cond returns a conditional branch's taken condition over the operands
// Inst.Operands gathers (nil: op is not a conditional branch).
func (op Op) Cond() func(a, b uint32) bool { return op.info().cond }

// IsCondBranch reports whether op is a conditional branch.
func (op Op) IsCondBranch() bool { return op.info().cond != nil }

// IsBranch reports whether op alters control flow (including halt, reti
// and wfi — wfi ends a basic block because the instruction after it is
// an interrupt-return target and must be a block leader).
func (op Op) IsBranch() bool {
	switch op {
	case J, JL, JI, RET, J16, RET16, HALT, RETI, WFI:
		return true
	}
	return op.IsCondBranch()
}

// IsCall reports whether op is a call (saves a return address).
func (op Op) IsCall() bool { return op == JL }

// IsIndirect reports whether the branch target is not statically known.
// RETI is indirect: it branches through the shadow PC.
func (op Op) IsIndirect() bool { return op == JI || op == RET || op == RET16 || op == RETI }

// IsLoad reports whether op reads data memory.
func (op Op) IsLoad() bool { return op.IsMem() && !op.IsStore() }

// IsStore reports whether op writes data memory.
func (op Op) IsStore() bool { return op.info().use&useStore != 0 }

// IsMem reports whether op accesses data memory.
func (op Op) IsMem() bool { return op.info().mem != 0 }

// MemSize returns the access size in bytes of a memory op.
func (op Op) MemSize() int { return int(op.info().mem) }

// Extend returns the register value of a word v loaded by op:
// sign-extended from the access size for a signed load.
func (op Op) Extend(v uint32) uint32 {
	r := op.info()
	if r.use&useSigned == 0 {
		return v
	}
	shift := 32 - 8*uint(r.mem)
	return uint32(int32(v<<shift) >> shift)
}

// DivQuot returns the TC32 quotient of a signed division, defining the
// edge cases the hardware guarantees: division by zero yields quotient 0,
// and MinInt32 / -1 yields MinInt32 (no trap).
func DivQuot(a, b int32) int32 {
	switch {
	case b == 0:
		return 0
	case a == -1<<31 && b == -1:
		return a
	}
	return a / b
}

// DivRem returns the TC32 remainder of a signed division (dividend when
// dividing by zero, 0 for MinInt32 % -1).
func DivRem(a, b int32) int32 {
	switch {
	case b == 0:
		return a
	case a == -1<<31 && b == -1:
		return 0
	}
	return a % b
}

// DivQuotU and DivRemU are the unsigned counterparts.
func DivQuotU(a, b uint32) uint32 {
	if b == 0 {
		return 0
	}
	return a / b
}

// DivRemU returns the unsigned remainder (dividend when dividing by zero).
func DivRemU(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	return a % b
}
