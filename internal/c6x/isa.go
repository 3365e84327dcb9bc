package c6x

import (
	"fmt"
	"strings"
)

// NumRegs is the number of registers per file.
const NumRegs = 32

// Reg identifies a register: 0..31 = A0..A31, 32..63 = B0..B31.
type Reg uint8

// NoReg marks an unused register field.
const NoReg Reg = 0xFF

// A and B construct register names.
func A(n int) Reg { return Reg(n) }

// B returns register Bn.
func B(n int) Reg { return Reg(NumRegs + n) }

// Side is a datapath side of the VLIW.
type Side uint8

// The two datapath sides.
const (
	SideA Side = iota
	SideB
)

// Side returns which register file the register belongs to.
func (r Reg) Side() Side {
	if r < NumRegs {
		return SideA
	}
	return SideB
}

// Index returns the register index within its file.
func (r Reg) Index() int { return int(r) % NumRegs }

// String returns the assembler name (A0..A31, B0..B31).
func (r Reg) String() string {
	if r == NoReg {
		return "-"
	}
	if r.Side() == SideA {
		return fmt.Sprintf("A%d", r.Index())
	}
	return fmt.Sprintf("B%d", r.Index())
}

// Unit is a functional unit.
type Unit uint8

// The eight functional units.
const (
	UnitNone Unit = iota
	L1
	S1
	M1
	D1
	L2
	S2
	M2
	D2
)

var unitNames = [...]string{"--", ".L1", ".S1", ".M1", ".D1", ".L2", ".S2", ".M2", ".D2"}

// String returns the assembler name of the unit.
func (u Unit) String() string {
	if u > D2 {
		return "<bad>"
	}
	return unitNames[u]
}

// Side returns the datapath side of the unit.
func (u Unit) Side() Side {
	if u >= L2 {
		return SideB
	}
	return SideA
}

// Kind returns the unit kind letter ('L', 'S', 'M', 'D'; '-' for none).
func (u Unit) Kind() byte {
	if u > D2 {
		return '-'
	}
	return unitNames[u][1]
}

// UnitFor returns the unit of the given kind on the given side.
func UnitFor(kind byte, side Side) Unit {
	i := strings.IndexByte("LSMD", kind)
	if i < 0 {
		return UnitNone
	}
	return L1 + Unit(i) + 4*Unit(side)
}

// Op is a C6x operation (the subset the translator emits). What each one
// does is its row of opTable.
type Op uint8

// The operations.
const (
	INVALID Op = iota
	MV
	MVK  // TI MVKL: dst = sext16(imm)
	MVKH // dst = (dst & 0xFFFF) | imm<<16
	ADD
	SUB
	MPY // low 32 bits
	AND
	OR
	XOR
	ANDN // src1 &^ src2
	SHL
	SHR // logical
	SAR // arithmetic (TI SHR on signed)
	NEG
	EXTB // sext8 (C64x-style)
	EXTH
	CMPEQ
	CMPLT // signed <
	CMPLTU
	CMPGT
	CMPGTU
	LDW // dst = mem32[src1 + offset]
	LDH // signed halfword
	LDHU
	LDB // signed byte
	LDBU
	STW // mem[src1 + offset] = data
	STH
	STB
	BPKT // branch to packet Target
	BREG // branch to the packet index in src1
	NOP  // idle NopCycles cycles
	HALT // stop the core
	NumOps
)

// opUse is the set of instruction fields an op reads and writes.
type opUse uint8

const (
	useSrc1  opUse = 1 << iota // reads Src1, register or immediate
	useSrc2                    // reads Src2 as a value (a memory offset is not one)
	useMerge                   // reads Dst: the kernel's first argument is its old value
	useDst                     // writes Dst
	useData                    // reads Data, the stored register
)

// opInfo is one op's row of opTable.
type opInfo struct {
	name  string
	units string // the unit kinds that execute it ("LS" = .L or .S)
	delay int    // delay slots before its result is usable
	mem   int    // access size in bytes of a memory op
	use   opUse
	// kernel computes the value written to Dst: from the Src1 (or merged
	// Dst) and Src2 values for an ALU op, from the loaded word for a load
	// (nil: the word as loaded). An ALU op without one has no semantics.
	kernel func(a, b uint32) uint32
}

func binOp(name, units string, k func(a, b uint32) uint32) opInfo {
	return opInfo{name: name, units: units, use: useSrc1 | useSrc2 | useDst, kernel: k}
}

func sext8(a, _ uint32) uint32  { return uint32(int32(int8(a))) }
func sext16(a, _ uint32) uint32 { return uint32(int32(int16(a))) }

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// opTable is the one statement of the ISA (see the package doc on who
// derives what from it, and the one lowering that restates it).
var opTable = [NumOps]opInfo{
	INVALID: {name: "<invalid>"},
	MV:      {name: "mv", units: "LSD", use: useSrc1 | useDst, kernel: func(a, _ uint32) uint32 { return a }},
	MVK:     {name: "mvk", units: "S", use: useSrc2 | useDst, kernel: func(_, b uint32) uint32 { return sext16(b, 0) }},
	MVKH:    {name: "mvkh", units: "S", use: useMerge | useSrc2 | useDst, kernel: func(a, b uint32) uint32 { return a&0xFFFF | b<<16 }},
	ADD:     binOp("add", "LS", func(a, b uint32) uint32 { return a + b }),
	SUB:     binOp("sub", "LS", func(a, b uint32) uint32 { return a - b }),
	MPY:     {name: "mpy", units: "M", delay: 1, use: useSrc1 | useSrc2 | useDst, kernel: func(a, b uint32) uint32 { return a * b }},
	AND:     binOp("and", "LS", func(a, b uint32) uint32 { return a & b }),
	OR:      binOp("or", "LS", func(a, b uint32) uint32 { return a | b }),
	XOR:     binOp("xor", "LS", func(a, b uint32) uint32 { return a ^ b }),
	ANDN:    binOp("andn", "LS", func(a, b uint32) uint32 { return a &^ b }),
	SHL:     binOp("shl", "S", func(a, b uint32) uint32 { return a << (b & 31) }),
	SHR:     binOp("shr", "S", func(a, b uint32) uint32 { return a >> (b & 31) }),
	SAR:     binOp("sar", "S", func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) }),
	NEG:     {name: "neg", units: "LS", use: useSrc1 | useDst, kernel: func(a, _ uint32) uint32 { return -a }},
	EXTB:    {name: "extb", units: "S", use: useSrc1 | useDst, kernel: sext8},
	EXTH:    {name: "exth", units: "S", use: useSrc1 | useDst, kernel: sext16},
	CMPEQ:   binOp("cmpeq", "LS", func(a, b uint32) uint32 { return b2u(a == b) }),
	CMPLT:   binOp("cmplt", "LS", func(a, b uint32) uint32 { return b2u(int32(a) < int32(b)) }),
	CMPLTU:  binOp("cmpltu", "LS", func(a, b uint32) uint32 { return b2u(a < b) }),
	CMPGT:   binOp("cmpgt", "LS", func(a, b uint32) uint32 { return b2u(int32(a) > int32(b)) }),
	CMPGTU:  binOp("cmpgtu", "LS", func(a, b uint32) uint32 { return b2u(a > b) }),
	LDW:     {name: "ldw", units: "D", delay: 4, mem: 4, use: useSrc1 | useDst},
	LDH:     {name: "ldh", units: "D", delay: 4, mem: 2, use: useSrc1 | useDst, kernel: sext16},
	LDHU:    {name: "ldhu", units: "D", delay: 4, mem: 2, use: useSrc1 | useDst},
	LDB:     {name: "ldb", units: "D", delay: 4, mem: 1, use: useSrc1 | useDst, kernel: sext8},
	LDBU:    {name: "ldbu", units: "D", delay: 4, mem: 1, use: useSrc1 | useDst},
	STW:     {name: "stw", units: "D", mem: 4, use: useSrc1 | useData},
	STH:     {name: "sth", units: "D", mem: 2, use: useSrc1 | useData},
	STB:     {name: "stb", units: "D", mem: 1, use: useSrc1 | useData},
	BPKT:    {name: "b", units: "S"},
	BREG:    {name: "b", units: "S", use: useSrc1},
	NOP:     {name: "nop"},
	HALT:    {name: "halt"},
}

// info returns op's row; an op outside the table reads as INVALID.
func (op Op) info() *opInfo {
	if op >= NumOps {
		op = INVALID
	}
	return &opTable[op]
}

// String returns the mnemonic.
func (op Op) String() string {
	if op >= NumOps {
		return "<bad>"
	}
	return opTable[op].name
}

// IsLoad reports whether op reads memory.
func (op Op) IsLoad() bool { return op.IsMem() && !op.IsStore() }

// IsStore reports whether op writes memory.
func (op Op) IsStore() bool { return op.info().use&useData != 0 }

// IsMem reports whether op accesses memory.
func (op Op) IsMem() bool { return op.info().mem != 0 }

// IsBranch reports whether op transfers control.
func (op Op) IsBranch() bool { return op == BPKT || op == BREG }

// MemSize returns the access size in bytes of a memory op.
func (op Op) MemSize() int { return op.info().mem }

// Latency returns the result latency in cycles (1 = usable next cycle).
// Branches have no result; their 5 delay slots are modeled separately.
func (op Op) Latency() int { return 1 + op.info().delay }

// BranchDelay is the number of delay-slot cycles of a branch: the target
// packet executes BranchDelay+1 cycles after the branch issues.
const BranchDelay = 5

// UnitKinds returns the unit kinds that can execute op ("LS" = .L or .S).
func (op Op) UnitKinds() string { return op.info().units }

// Operand is a register or immediate source operand.
type Operand struct {
	IsImm bool
	Reg   Reg
	Imm   int32
}

// R and Imm construct operands.
func R(r Reg) Operand { return Operand{Reg: r} }

// Imm returns an immediate operand.
func Imm(v int32) Operand { return Operand{IsImm: true, Imm: v} }

// String renders the operand.
func (o Operand) String() string {
	if o.IsImm {
		return fmt.Sprintf("%d", o.Imm)
	}
	return o.Reg.String()
}

// Pred is an optional predicate guard: execute iff (reg != 0) != Neg.
type Pred struct {
	Valid bool
	Neg   bool
	Reg   Reg
}

// String renders the predicate prefix ("[A1] " style).
func (p Pred) String() string {
	if !p.Valid {
		return ""
	}
	n := ""
	if p.Neg {
		n = "!"
	}
	return fmt.Sprintf("[%s%s] ", n, p.Reg)
}

// Inst is one C6x instruction within an execute packet.
//
// Field usage: ALU ops use Dst/Src1/Src2. Loads use Dst (data), Src1
// (base register) and Src2 (immediate byte offset). Stores use Data,
// Src1 (base) and Src2 (offset). BPKT uses Target (a packet index);
// BREG uses Src1. NOP uses NopCycles.
type Inst struct {
	Op     Op
	Unit   Unit
	Pred   Pred
	Dst    Reg
	Src1   Operand
	Src2   Operand
	Data   Reg // store data register
	Target int // branch target packet
	// NopCycles is the idle cycle count of a NOP (1..9 on real hardware;
	// the scheduler may emit larger values, which the simulator honors).
	NopCycles int
	// Volatile marks memory ops that must not be reordered (sync device,
	// bus interface accesses). Scheduling metadata only.
	Volatile bool
	// SymImm marks an MVK whose immediate is a label id to be replaced
	// by a packet index at link time (call return addresses). BPKT
	// instructions similarly hold a label id in Target until link time.
	SymImm bool
}

// HasDst reports whether the instruction writes Dst.
func (i Inst) HasDst() bool { return i.Op.info().use&useDst != 0 }

// args returns the operands of the op's kernel: Src1 — or Dst, for a
// merging op — and Src2, each Imm(0) where the op reads nothing.
func (i *Inst) args() (a, b Operand) {
	u := i.Op.info().use
	a, b = Imm(0), Imm(0)
	if u&useSrc1 != 0 {
		a = i.Src1
	}
	if u&useMerge != 0 {
		a = R(i.Dst)
	}
	if u&useSrc2 != 0 {
		b = i.Src2
	}
	return a, b
}

// Reads appends the registers the instruction reads at issue to dst, in
// the order the interpreter reads them: the predicate, the kernel's
// register operands, a store's data register.
func (i *Inst) Reads(dst []Reg) []Reg {
	if i.Pred.Valid {
		dst = append(dst, i.Pred.Reg)
	}
	a, b := i.args()
	if !a.IsImm {
		dst = append(dst, a.Reg)
	}
	if !b.IsImm {
		dst = append(dst, b.Reg)
	}
	if i.Op.info().use&useData != 0 {
		dst = append(dst, i.Data)
	}
	return dst
}

// ResSet is a set of the resources the instructions of one packet share:
// the eight units (bit Unit), the cross path into each side and the two
// data paths.
type ResSet uint16

const (
	resCross ResSet = 1 << 9  // << Side: the cross path into that side
	resT     ResSet = 1 << 11 // << Side: data path T1 or T2
)

// Resources returns the issue resources the instruction takes on unit u:
// the unit; for a memory op the data path on the side of the register
// it loads or stores; otherwise the cross path into u's side if a source
// register sits on the other side. ok is false for what no packet can
// hold, two cross-path operands.
func (i *Inst) Resources(u Unit) (res ResSet, ok bool) {
	res = 1 << u
	op := i.Op.info()
	if op.mem != 0 {
		data := i.Dst
		if op.use&useData != 0 {
			data = i.Data
		}
		return res | resT<<data.Side(), true
	}
	use, side, cross := op.use, u.Side(), 0
	if use&useSrc1 != 0 && !i.Src1.IsImm && i.Src1.Reg.Side() != side {
		cross++
	}
	if use&useSrc2 != 0 && !i.Src2.IsImm && i.Src2.Reg.Side() != side {
		cross++
	}
	if cross > 0 {
		res |= resCross << side
	}
	return res, cross < 2
}

// String renders the instruction in a TI-flavoured listing syntax.
func (i Inst) String() string {
	p := i.Pred.String()
	u := i.Op.info().use
	switch {
	case i.Op == NOP:
		if i.NopCycles > 1 {
			return fmt.Sprintf("%snop %d", p, i.NopCycles)
		}
		return p + "nop"
	case i.Op == HALT:
		return p + "halt"
	case i.Op == BPKT:
		return fmt.Sprintf("%sb %s P%d", p, i.Unit, i.Target)
	case i.Op == BREG:
		return fmt.Sprintf("%sb %s %s", p, i.Unit, i.Src1)
	case i.Op.IsLoad():
		return fmt.Sprintf("%s%s %s *%+d[%s], %s", p, i.Op, i.Unit, i.Src2.Imm, i.Src1.Reg, i.Dst)
	case i.Op.IsStore():
		return fmt.Sprintf("%s%s %s %s, *%+d[%s]", p, i.Op, i.Unit, i.Data, i.Src2.Imm, i.Src1.Reg)
	case u&(useSrc1|useDst) == useDst: // mvk, mvkh
		return fmt.Sprintf("%s%s %s %s, %s", p, i.Op, i.Unit, i.Src2, i.Dst)
	case u&(useSrc2|useDst) == useDst:
		return fmt.Sprintf("%s%s %s %s, %s", p, i.Op, i.Unit, i.Src1, i.Dst)
	default:
		return fmt.Sprintf("%s%s %s %s, %s, %s", p, i.Op, i.Unit, i.Src1, i.Src2, i.Dst)
	}
}

// Packet is one execute packet: up to eight instructions issued in the
// same cycle (at most one per functional unit).
type Packet struct {
	Insts []Inst
}

// Cycles returns the cycle cost of the packet (multi-cycle for NOP n).
func (pk Packet) Cycles() int {
	if len(pk.Insts) == 1 && pk.Insts[0].Op == NOP && pk.Insts[0].NopCycles > 1 {
		return pk.Insts[0].NopCycles
	}
	return 1
}

// Program is an executable C6x program: a flat list of execute packets.
// Branch targets are packet indices.
type Program struct {
	Packets []Packet
	Entry   int

	// builds memoizes FuseCached. It lives on the program, so a build is
	// freed with the program it was built from.
	builds fuseMemo
}
