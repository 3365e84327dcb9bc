package tc32

import (
	"fmt"
	"strings"
)

// Inst is one decoded TC32 instruction.
//
// Field usage by format:
//
//	FmtRI:  Rd, Rs1, Imm (immediate, already sign- or zero-extended)
//	FmtRR:  Rd, Rs1, Rs2
//	FmtLS:  Rd (data), Rs1 (base address register), Imm (signed offset)
//	FmtBR:  Rs1, Rs2, Imm (byte displacement relative to Addr)
//	FmtJ:   Imm (byte displacement relative to Addr)
//	FmtJR:  Rs1 (address register)
//	FmtSRR: Rd, Rs1
//	FmtSRC: Rd, Imm (signed 4-bit constant)
//	FmtSB:  Imm (byte displacement relative to Addr)
type Inst struct {
	Op   Op
	Rd   uint8
	Rs1  uint8
	Rs2  uint8
	Imm  int32
	Addr uint32 // address the instruction was decoded from
	Size uint8  // encoding size in bytes (2 or 4)
}

// Target returns the branch target address for direct branches.
// It must only be called for ops with statically known targets.
func (i Inst) Target() uint32 {
	return i.Addr + uint32(i.Imm)
}

// Backward reports whether a direct branch jumps backwards (used by the
// static branch predictor: backward predicted taken).
func (i Inst) Backward() bool { return i.Imm <= 0 }

// EncodedSize returns the encoding size in bytes of op (2 or 4).
func EncodedSize(op Op) uint8 {
	if op.Is16Bit() {
		return 2
	}
	return 4
}

const (
	immMin16 = -1 << 15
	immMax16 = 1<<15 - 1
	immMaxU  = 1<<16 - 1
)

// Encode encodes the instruction into buf, returning the number of bytes
// written (2 or 4). It validates field ranges.
func Encode(i Inst, buf []byte) (int, error) {
	info := i.Op.info()
	if i.Op == BAD || i.Op >= NumOps {
		return 0, fmt.Errorf("tc32: cannot encode op %d", i.Op)
	}
	checkReg := func(r uint8, what string) error {
		if r > 15 {
			return fmt.Errorf("tc32: %s: %s register %d out of range", info.name, what, r)
		}
		return nil
	}
	disp := func(bits int) (uint32, error) {
		if i.Imm%2 != 0 {
			return 0, fmt.Errorf("tc32: %s: odd branch displacement %d", info.name, i.Imm)
		}
		hw := i.Imm / 2
		limit := int32(1) << (bits - 1)
		if hw < -limit || hw >= limit {
			return 0, fmt.Errorf("tc32: %s: displacement %d out of range", info.name, i.Imm)
		}
		return uint32(hw) & (1<<bits - 1), nil
	}
	var word uint32
	size := 4
	word = uint32(info.enc)
	switch info.format {
	case FmtNone:
		// op only
	case FmtRI:
		if err := checkReg(i.Rd, "dest"); err != nil {
			return 0, err
		}
		if err := checkReg(i.Rs1, "source"); err != nil {
			return 0, err
		}
		if i.Imm < immMin16 || i.Imm > immMaxU {
			return 0, fmt.Errorf("tc32: %s: immediate %d out of range", info.name, i.Imm)
		}
		word |= uint32(i.Rd)<<8 | uint32(i.Rs1)<<12 | uint32(uint16(i.Imm))<<16
	case FmtRR:
		if err := checkReg(i.Rd, "dest"); err != nil {
			return 0, err
		}
		if err := checkReg(i.Rs1, "source 1"); err != nil {
			return 0, err
		}
		if err := checkReg(i.Rs2, "source 2"); err != nil {
			return 0, err
		}
		word |= uint32(i.Rd)<<8 | uint32(i.Rs1)<<12 | uint32(i.Rs2)<<16
	case FmtLS:
		if err := checkReg(i.Rd, "data"); err != nil {
			return 0, err
		}
		if err := checkReg(i.Rs1, "base"); err != nil {
			return 0, err
		}
		if i.Imm < immMin16 || i.Imm > immMax16 {
			return 0, fmt.Errorf("tc32: %s: offset %d out of range", info.name, i.Imm)
		}
		word |= uint32(i.Rd)<<8 | uint32(i.Rs1)<<12 | uint32(uint16(i.Imm))<<16
	case FmtBR:
		if err := checkReg(i.Rs1, "source 1"); err != nil {
			return 0, err
		}
		if err := checkReg(i.Rs2, "source 2"); err != nil {
			return 0, err
		}
		d, err := disp(16)
		if err != nil {
			return 0, err
		}
		word |= uint32(i.Rs1)<<8 | uint32(i.Rs2)<<12 | d<<16
	case FmtJ:
		d, err := disp(24)
		if err != nil {
			return 0, err
		}
		word |= d << 8
	case FmtJR:
		if err := checkReg(i.Rs1, "target"); err != nil {
			return 0, err
		}
		word |= uint32(i.Rs1) << 8
	case FmtSRR:
		size = 2
		if err := checkReg(i.Rd, "dest"); err != nil {
			return 0, err
		}
		if err := checkReg(i.Rs1, "source"); err != nil {
			return 0, err
		}
		word |= uint32(i.Rd)<<8 | uint32(i.Rs1)<<12
	case FmtSRC:
		size = 2
		if err := checkReg(i.Rd, "dest"); err != nil {
			return 0, err
		}
		if i.Imm < -8 || i.Imm > 7 {
			return 0, fmt.Errorf("tc32: %s: const4 %d out of range", info.name, i.Imm)
		}
		word |= uint32(i.Rd)<<8 | (uint32(i.Imm)&0xF)<<12
	case FmtSB:
		size = 2
		d, err := disp(8)
		if err != nil {
			return 0, err
		}
		word |= d << 8
	case FmtS0:
		size = 2
	}
	if len(buf) < size {
		return 0, fmt.Errorf("tc32: buffer too small (%d < %d)", len(buf), size)
	}
	buf[0] = byte(word)
	buf[1] = byte(word >> 8)
	if size == 4 {
		buf[2] = byte(word >> 16)
		buf[3] = byte(word >> 24)
	}
	return size, nil
}

func sext(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// Decode decodes one instruction from buf, which must hold the bytes at
// address addr. It returns the instruction and its size in bytes.
func Decode(buf []byte, addr uint32) (Inst, error) {
	if len(buf) < 2 {
		return Inst{}, fmt.Errorf("tc32: truncated instruction at %#x", addr)
	}
	op := encToOp[buf[0]]
	if op == BAD {
		return Inst{}, fmt.Errorf("tc32: illegal opcode %#02x at %#x", buf[0], addr)
	}
	info := op.info()
	i := Inst{Op: op, Addr: addr, Size: 2}
	if !op.Is16Bit() {
		if len(buf) < 4 {
			return Inst{}, fmt.Errorf("tc32: truncated 32-bit instruction at %#x", addr)
		}
		i.Size = 4
	}
	var word uint32
	word = uint32(buf[0]) | uint32(buf[1])<<8
	if i.Size == 4 {
		word |= uint32(buf[2])<<16 | uint32(buf[3])<<24
	}
	switch info.format {
	case FmtNone, FmtS0:
		// nothing
	case FmtRI:
		i.Rd = uint8(word >> 8 & 0xF)
		i.Rs1 = uint8(word >> 12 & 0xF)
		i.Imm = int32(word >> 16) // zero-extended / high-half value
		if info.ext == extSign {
			i.Imm = sext(word>>16, 16)
		}
	case FmtRR:
		i.Rd = uint8(word >> 8 & 0xF)
		i.Rs1 = uint8(word >> 12 & 0xF)
		i.Rs2 = uint8(word >> 16 & 0xF)
	case FmtLS:
		i.Rd = uint8(word >> 8 & 0xF)
		i.Rs1 = uint8(word >> 12 & 0xF)
		i.Imm = sext(word>>16, 16)
	case FmtBR:
		i.Rs1 = uint8(word >> 8 & 0xF)
		i.Rs2 = uint8(word >> 12 & 0xF)
		i.Imm = 2 * sext(word>>16, 16)
	case FmtJ:
		i.Imm = 2 * sext(word>>8, 24)
	case FmtJR:
		i.Rs1 = uint8(word >> 8 & 0xF)
	case FmtSRR:
		i.Rd = uint8(word >> 8 & 0xF)
		i.Rs1 = uint8(word >> 12 & 0xF)
	case FmtSRC:
		i.Rd = uint8(word >> 8 & 0xF)
		i.Imm = sext(word>>12, 4)
	case FmtSB:
		i.Imm = 2 * sext(word>>8, 8)
	}
	return i, nil
}

// String renders the instruction in assembler syntax: the mnemonic, the
// register fields the op's row names, in field order, then the operand
// its format carries (a memory op's base register is inside its address
// operand).
func (i Inst) String() string {
	r := i.Op.info()
	args := make([]string, 0, 3)
	fields := [...]struct {
		file RegFile
		n    uint8
	}{{r.rd, i.Rd}, {r.rs1, i.Rs1}, {r.rs2, i.Rs2}}
	for k, f := range fields {
		if f.file != NoFile && !(k == 1 && r.format == FmtLS) {
			args = append(args, f.file.Reg(f.n).String())
		}
	}
	switch {
	case r.format == FmtLS:
		args = append(args, fmt.Sprintf("%d(a%d)", i.Imm, i.Rs1))
	case r.format.PCRelative():
		args = append(args, fmt.Sprintf("%#x", i.Target()))
	case r.format.hasOperandImm():
		args = append(args, fmt.Sprint(i.Imm))
	}
	if len(args) == 0 {
		return i.Op.String()
	}
	return i.Op.String() + " " + strings.Join(args, ", ")
}

// Regs returns the registers the instruction reads (src[:n], at most
// two) and the one it writes (NoReg if none), in the unified namespace:
// Rd when the op merges it, Rs1, Rs2, the implicit a11 or d15, a store's
// data register.
func (i *Inst) Regs() (src [2]Reg, n int, dst Reg) {
	r := i.Op.info()
	f := i.fields()
	return [2]Reg{r.srcs[0].reg(f), r.srcs[1].reg(f)}, r.nsrc, r.dst.reg(f)
}

// Dst returns the register the instruction writes (NoReg if none).
func (i *Inst) Dst() Reg { return i.Op.info().dst.reg(i.fields()) }

// Data returns the register a memory op loads into or stores from.
func (i *Inst) Data() Reg { return i.Op.info().rd.Reg(i.Rd) }

// Operands returns the operands a and b of the op's kernel or branch
// condition, read from the register file regs: the first two of Rd when
// the op merges it, Rs1, Rs2, the implicit a11 or d15, and the operand
// immediate (imm << 16 for a high-half op), with 0 for a missing one.
// For a memory op they are the base address and the offset.
func (i *Inst) Operands(regs *[NumRegs]uint32) (a, b uint32) {
	r := i.Op.info()
	f := i.fields()
	imm := uint32(i.Imm) << r.immShift
	x, y := &r.args[0], &r.args[1]
	return regs[x.ref.reg(f)]&x.reg | imm&x.imm, regs[y.ref.reg(f)]&y.reg | imm&y.imm
}

// DecodeAll decodes the instruction stream in text starting at base,
// returning one Inst per encoded instruction.
func DecodeAll(text []byte, base uint32) ([]Inst, error) {
	var out []Inst
	off := 0
	for off < len(text) {
		inst, err := Decode(text[off:], base+uint32(off))
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
		off += int(inst.Size)
	}
	return out, nil
}
