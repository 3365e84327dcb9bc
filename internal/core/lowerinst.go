package core

import (
	"fmt"

	"repro/internal/c6x"
	"repro/internal/tc32"
)

// lowerInst translates one non-terminator TC32 instruction into
// intermediate code. Source registers bind through HostReg, with
// block-local temporaries from the reserved pools.
func (l *lowerer) lowerInst(in tc32.Inst, mc memClass) error {
	e := l.emitI
	switch in.Op {
	case tc32.MOVI, tc32.MOVI16:
		l.matConst(in.Imm, HostReg(tc32.D(in.Rd)))
	case tc32.MOVHI:
		l.matConst(in.Imm<<16, HostReg(tc32.D(in.Rd)))
	case tc32.ADDI:
		e(c6x.Inst{Op: c6x.ADD, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: l.opnd(in.Imm, c6x.SideA)})
	case tc32.ADDI16:
		e(c6x.Inst{Op: c6x.ADD, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rd))), Src2: l.opnd(in.Imm, c6x.SideA)})
	case tc32.RSUBI:
		tmp := l.tempA()
		l.matConst(in.Imm, tmp)
		e(c6x.Inst{Op: c6x.SUB, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(tmp), Src2: c6x.R(HostReg(tc32.D(in.Rs1)))})
	case tc32.ANDI:
		e(c6x.Inst{Op: c6x.AND, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: l.opndU(in.Imm, c6x.SideA)})
	case tc32.ORI:
		e(c6x.Inst{Op: c6x.OR, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: l.opndU(in.Imm, c6x.SideA)})
	case tc32.XORI:
		e(c6x.Inst{Op: c6x.XOR, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: l.opndU(in.Imm, c6x.SideA)})
	case tc32.EQI:
		e(c6x.Inst{Op: c6x.CMPEQ, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: l.opnd(in.Imm, c6x.SideA)})
	case tc32.LTI:
		e(c6x.Inst{Op: c6x.CMPLT, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: l.opnd(in.Imm, c6x.SideA)})
	case tc32.SHLI:
		e(c6x.Inst{Op: c6x.SHL, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.Imm(in.Imm & 31)})
	case tc32.SHRI:
		e(c6x.Inst{Op: c6x.SHR, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.Imm(in.Imm & 31)})
	case tc32.SARI:
		e(c6x.Inst{Op: c6x.SAR, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.Imm(in.Imm & 31)})
	case tc32.MOV, tc32.MOV16:
		e(c6x.Inst{Op: c6x.MV, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1)))})
	case tc32.ADD:
		e(c6x.Inst{Op: c6x.ADD, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.ADD16:
		e(c6x.Inst{Op: c6x.ADD, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rd))), Src2: c6x.R(HostReg(tc32.D(in.Rs1)))})
	case tc32.SUB:
		e(c6x.Inst{Op: c6x.SUB, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.SUB16:
		e(c6x.Inst{Op: c6x.SUB, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rd))), Src2: c6x.R(HostReg(tc32.D(in.Rs1)))})
	case tc32.MUL:
		e(c6x.Inst{Op: c6x.MPY, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.AND:
		e(c6x.Inst{Op: c6x.AND, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.OR:
		e(c6x.Inst{Op: c6x.OR, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.XOR:
		e(c6x.Inst{Op: c6x.XOR, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.ANDN:
		e(c6x.Inst{Op: c6x.ANDN, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.SHL:
		e(c6x.Inst{Op: c6x.SHL, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.SHR:
		e(c6x.Inst{Op: c6x.SHR, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.SAR:
		e(c6x.Inst{Op: c6x.SAR, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.EQ:
		e(c6x.Inst{Op: c6x.CMPEQ, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.NE:
		tmp := l.tempA()
		e(c6x.Inst{Op: c6x.CMPEQ, Dst: tmp, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
		e(c6x.Inst{Op: c6x.XOR, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(tmp), Src2: c6x.Imm(1)})
	case tc32.LT:
		e(c6x.Inst{Op: c6x.CMPLT, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.LTU:
		e(c6x.Inst{Op: c6x.CMPLTU, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
	case tc32.GE:
		tmp := l.tempA()
		e(c6x.Inst{Op: c6x.CMPLT, Dst: tmp, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
		e(c6x.Inst{Op: c6x.XOR, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(tmp), Src2: c6x.Imm(1)})
	case tc32.GEU:
		tmp := l.tempA()
		e(c6x.Inst{Op: c6x.CMPLTU, Dst: tmp, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
		e(c6x.Inst{Op: c6x.XOR, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(tmp), Src2: c6x.Imm(1)})
	case tc32.MIN, tc32.MAX:
		// tmp = rs2; [cond] tmp = rs1; rd = tmp — avoids clobbering
		// sources when rd aliases rs1/rs2.
		cond := l.tempA()
		tmp := l.tempA()
		e(c6x.Inst{Op: c6x.CMPLT, Dst: cond, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.R(HostReg(tc32.D(in.Rs2)))})
		e(c6x.Inst{Op: c6x.MV, Dst: tmp, Src1: c6x.R(HostReg(tc32.D(in.Rs2)))})
		neg := in.Op == tc32.MAX
		e(c6x.Inst{Op: c6x.MV, Dst: tmp, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Pred: c6x.Pred{Valid: true, Reg: cond, Neg: neg}})
		e(c6x.Inst{Op: c6x.MV, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(tmp)})
	case tc32.ABS:
		cond := l.tempA()
		e(c6x.Inst{Op: c6x.CMPLT, Dst: cond, Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Src2: c6x.Imm(0)})
		e(c6x.Inst{Op: c6x.MV, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1)))})
		e(c6x.Inst{Op: c6x.NEG, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1))), Pred: c6x.Pred{Valid: true, Reg: cond}})
	case tc32.SEXTB:
		e(c6x.Inst{Op: c6x.EXTB, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1)))})
	case tc32.SEXTH:
		e(c6x.Inst{Op: c6x.EXTH, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1)))})

	case tc32.DIV, tc32.REM:
		l.lowerDiv(in, "sdiv")
	case tc32.DIVU, tc32.REMU:
		l.lowerDiv(in, "udiv")

	case tc32.MOVHA:
		l.matConst(in.Imm<<16, HostReg(tc32.A(in.Rd)))
	case tc32.LEA:
		e(c6x.Inst{Op: c6x.ADD, Dst: HostReg(tc32.A(in.Rd)), Src1: c6x.R(HostReg(tc32.A(in.Rs1))), Src2: l.opnd(in.Imm, c6x.SideB)})
	case tc32.ADDIA:
		e(c6x.Inst{Op: c6x.ADD, Dst: HostReg(tc32.A(in.Rd)), Src1: c6x.R(HostReg(tc32.A(in.Rs1))), Src2: l.opnd(in.Imm, c6x.SideB)})
	case tc32.MOVD2A:
		e(c6x.Inst{Op: c6x.MV, Dst: HostReg(tc32.A(in.Rd)), Src1: c6x.R(HostReg(tc32.D(in.Rs1)))})
	case tc32.MOVA2D:
		e(c6x.Inst{Op: c6x.MV, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(HostReg(tc32.A(in.Rs1)))})
	case tc32.ADDA:
		e(c6x.Inst{Op: c6x.ADD, Dst: HostReg(tc32.A(in.Rd)), Src1: c6x.R(HostReg(tc32.A(in.Rs1))), Src2: c6x.R(HostReg(tc32.A(in.Rs2)))})

	case tc32.LDW, tc32.LDH, tc32.LDHU, tc32.LDB, tc32.LDBU, tc32.LDA,
		tc32.STW, tc32.STH, tc32.STB, tc32.STA:
		l.lowerMem(in, mc)

	case tc32.NOP, tc32.NOP16:
		// Occupies source cycles (already counted); no target code.
	case tc32.EI, tc32.DI:
		// The interrupt-enable state of a translated core lives on the
		// platform: ei/di become a write of 1/0 to the IRQ control
		// register. Delivery only happens at region boundaries, so the
		// mid-region timing of the write is unobservable — only the IE
		// value at the next boundary matters, and program order
		// preserves it.
		v := int32(0)
		if in.Op == tc32.EI {
			v = 1
		}
		tmp := l.tempA()
		e(c6x.Inst{Op: c6x.MVK, Dst: tmp, Src2: c6x.Imm(v)})
		e(c6x.Inst{Op: c6x.STW, Data: tmp, Src1: c6x.R(regSyncBase), Src2: c6x.Imm(IRQCtl - SyncBase), Volatile: true})
	default:
		return fmt.Errorf("core: cannot lower %v at %#x", in.Op, in.Addr)
	}
	return nil
}

var memOpMap = map[tc32.Op]c6x.Op{
	tc32.LDW: c6x.LDW, tc32.LDH: c6x.LDH, tc32.LDHU: c6x.LDHU,
	tc32.LDB: c6x.LDB, tc32.LDBU: c6x.LDBU, tc32.LDA: c6x.LDW,
	tc32.STW: c6x.STW, tc32.STH: c6x.STH, tc32.STB: c6x.STB, tc32.STA: c6x.STW,
}

// lowerMem translates loads and stores. Data accesses translate directly
// (the platform maps source data addresses identically); I/O and unknown
// accesses are marked volatile — the enclosing region split plus the
// platform's bus interface provide the cycle-accurate bus transaction.
func (l *lowerer) lowerMem(in tc32.Inst, mc memClass) {
	op := memOpMap[in.Op]
	vol := mc == memIO || mc == memUnknown
	base := c6x.R(HostReg(tc32.A(in.Rs1)))
	off := c6x.Imm(in.Imm)
	var data c6x.Reg
	if in.Op == tc32.LDA || in.Op == tc32.STA {
		data = HostReg(tc32.A(in.Rd))
	} else {
		data = HostReg(tc32.D(in.Rd))
	}
	if op.IsStore() {
		l.emitI(c6x.Inst{Op: op, Data: data, Src1: base, Src2: off, Volatile: vol})
	} else {
		l.emitI(c6x.Inst{Op: op, Dst: data, Src1: base, Src2: off, Volatile: vol})
	}
}

// lowerDiv calls the software divide routine: dividend in A24, divisor in
// A25; quotient returns in A24, remainder in A25.
func (l *lowerer) lowerDiv(in tc32.Inst, routine string) {
	l.emitI(c6x.Inst{Op: c6x.MV, Dst: regArg0, Src1: c6x.R(HostReg(tc32.D(in.Rs1)))})
	l.emitI(c6x.Inst{Op: c6x.MV, Dst: regArg1, Src1: c6x.R(HostReg(tc32.D(in.Rs2)))})
	l.call(l.t.routineLabel(routine))
	res := regArg0
	if in.Op == tc32.REM || in.Op == tc32.REMU {
		res = regArg1
	}
	l.emitI(c6x.Inst{Op: c6x.MV, Dst: HostReg(tc32.D(in.Rd)), Src1: c6x.R(res)})
}
