package tc32asm

import (
	"strconv"
	"strings"

	"repro/internal/tc32"
)

// parseReg parses a register name. want is 'd' for data, 'a' for address,
// or 0 to accept either ('d'/'a' returned via file).
func parseReg(s string) (file byte, num uint8, ok bool) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch s {
	case "sp":
		return 'a', tc32.SP, true
	case "ra":
		return 'a', tc32.RA, true
	}
	if len(s) < 2 || (s[0] != 'd' && s[0] != 'a') {
		return 0, 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 15 {
		return 0, 0, false
	}
	return s[0], uint8(n), true
}

func (a *assembler) reg(s string, want byte) (uint8, error) {
	file, num, ok := parseReg(s)
	if !ok {
		return 0, a.errf("bad register %q", s)
	}
	if file != want {
		return 0, a.errf("expected %c-register, got %q", want, s)
	}
	return num, nil
}

// parseExpr parses an expression: [hi|lo] "(" sum ")" | sum, where
// sum := term (('+'|'-') term)* and term := number | symbol | 'char'.
func (a *assembler) parseExpr(s string) (expr, error) {
	s = strings.TrimSpace(s)
	var e expr
	for _, mod := range []string{"hi", "lo"} {
		if strings.HasPrefix(s, mod+"(") && strings.HasSuffix(s, ")") {
			e.mod = mod
			s = s[len(mod)+1 : len(s)-1]
			break
		}
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return e, a.errf("empty expression")
	}
	i := 0
	first := true
	for i < len(s) {
		neg := false
		for i < len(s) && (s[i] == '+' || s[i] == '-' || s[i] == ' ') {
			if s[i] == '-' {
				neg = !neg
			}
			if (s[i] == '+' || s[i] == '-') && first && i != 0 {
				return e, a.errf("bad expression %q", s)
			}
			i++
		}
		if i >= len(s) {
			return e, a.errf("trailing operator in %q", s)
		}
		start := i
		if s[i] == '\'' {
			// character literal
			end := strings.IndexByte(s[i+1:], '\'')
			if end < 0 {
				return e, a.errf("unterminated character literal")
			}
			lit := s[i : i+end+2]
			v, err := strconv.Unquote(lit)
			if err != nil || len(v) != 1 {
				return e, a.errf("bad character literal %s", lit)
			}
			e.terms = append(e.terms, term{neg: neg, val: int64(v[0])})
			i += end + 2
		} else {
			for i < len(s) && s[i] != '+' && s[i] != '-' && s[i] != ' ' {
				i++
			}
			tok := s[start:i]
			if v, err := strconv.ParseInt(tok, 0, 64); err == nil {
				e.terms = append(e.terms, term{neg: neg, val: v})
			} else if v, err := strconv.ParseUint(tok, 0, 64); err == nil {
				e.terms = append(e.terms, term{neg: neg, val: int64(v)})
			} else if isIdent(tok) {
				e.terms = append(e.terms, term{neg: neg, sym: tok})
			} else {
				return e, a.errf("bad expression term %q", tok)
			}
		}
		first = false
	}
	return e, nil
}

// constVal evaluates an expression that must be constant in pass 1.
func (a *assembler) constVal(e expr) (int64, bool) {
	if !e.isConst() {
		return 0, false
	}
	var v int64
	for _, t := range e.terms {
		if t.neg {
			v -= t.val
		} else {
			v += t.val
		}
	}
	return applyMod(e.mod, v), true
}

// applyMod applies the hi/lo modifier. hi is compensated for the
// sign-extension of the 16-bit lo part, so that
// (hi(v) << 16) + sext16(lo(v)) == v.
func applyMod(mod string, v int64) int64 {
	switch mod {
	case "hi":
		return (v + 0x8000) >> 16 & 0xFFFF
	case "lo":
		return int64(int16(v & 0xFFFF))
	}
	return v
}

// memOperand parses "off(aN)" where off is an expression (may be empty).
func (a *assembler) memOperand(s string) (base uint8, off expr, err error) {
	s = strings.TrimSpace(s)
	open := strings.LastIndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, expr{}, a.errf("bad memory operand %q (want off(aN))", s)
	}
	base, err = a.reg(s[open+1:len(s)-1], 'a')
	if err != nil {
		return 0, expr{}, err
	}
	offStr := strings.TrimSpace(s[:open])
	if offStr == "" {
		return base, expr{terms: []term{{val: 0}}}, nil
	}
	off, err = a.parseExpr(offStr)
	return base, off, err
}

func (a *assembler) instruction(line string) error {
	fields := strings.Fields(line)
	mn := strings.ToLower(fields[0])
	rest := strings.TrimSpace(line[len(fields[0]):])
	args := splitArgs(rest)

	// Pseudo-instructions first.
	switch mn {
	case "la": // la aN, expr  ->  movh.a aN, hi(expr); lea aN, lo(expr)(aN)
		if len(args) != 2 {
			return a.errf("la needs 2 operands")
		}
		rd, err := a.reg(args[0], 'a')
		if err != nil {
			return err
		}
		e, err := a.parseExpr(args[1])
		if err != nil {
			return err
		}
		if e.mod != "" {
			return a.errf("la operand cannot have hi/lo modifier")
		}
		hi, lo := e, e
		hi.mod, lo.mod = "hi", "lo"
		a.addInst(tc32.Inst{Op: tc32.MOVHA, Rd: rd}, &hi, false)
		a.addInst(tc32.Inst{Op: tc32.LEA, Rd: rd, Rs1: rd}, &lo, false)
		return nil
	case "li": // li dN, expr  ->  movi (if it fits) or movhi+ori
		if len(args) != 2 {
			return a.errf("li needs 2 operands")
		}
		rd, err := a.reg(args[0], 'd')
		if err != nil {
			return err
		}
		e, err := a.parseExpr(args[1])
		if err != nil {
			return err
		}
		if v, ok := a.constVal(e); ok && v >= -0x8000 && v <= 0x7FFF {
			a.addInst(tc32.Inst{Op: tc32.MOVI, Rd: rd, Imm: int32(v)}, nil, false)
			return nil
		}
		if v, ok := a.constVal(e); ok {
			u := uint32(v)
			a.addInst(tc32.Inst{Op: tc32.MOVHI, Rd: rd, Imm: int32(u >> 16)}, nil, false)
			if u&0xFFFF != 0 {
				a.addInst(tc32.Inst{Op: tc32.ORI, Rd: rd, Rs1: rd, Imm: int32(u & 0xFFFF)}, nil, false)
			}
			return nil
		}
		// Symbolic: always the long form.
		hiE, loE := e, e
		hiE.mod = "hi"
		loE.mod = "lo"
		// movhi uses the raw upper half; build with movhi(hi)+addi(lo) so
		// the compensated hi/lo pair reconstructs the address.
		a.addInst(tc32.Inst{Op: tc32.MOVHI, Rd: rd}, &hiE, false)
		a.addInst(tc32.Inst{Op: tc32.ADDI, Rd: rd, Rs1: rd}, &loE, false)
		return nil
	case "call":
		mn = "jl"
	case "not": // not dN, dM -> xori dN, dM, 0xFFFF? (not exact) — reject
		return a.errf("no 'not' instruction; use rsubi/xor")
	}

	op := tc32.OpByName(mn)
	if op == tc32.BAD {
		return a.errf("unknown instruction %q", mn)
	}

	// The operands are the register fields the op's row names, in field
	// order (a memory op's base is inside its address operand), then the
	// immediate, address or branch target its format carries.
	inst := tc32.Inst{Op: op}
	format := op.Format()
	rd, rs1, rs2 := op.RegFiles()
	if format == tc32.FmtLS {
		rs1 = tc32.NoFile
	}
	regs := [...]struct {
		file tc32.RegFile
		dst  *uint8
	}{{rd, &inst.Rd}, {rs1, &inst.Rs1}, {rs2, &inst.Rs2}}
	n := 0
	for _, r := range regs {
		if r.file != tc32.NoFile {
			n++
		}
	}
	if format.HasImm() {
		n++
	}
	if len(args) != n {
		return a.errf("%s needs %d operand(s), got %d", mn, n, len(args))
	}
	k := 0
	for _, r := range regs {
		if r.file == tc32.NoFile {
			continue
		}
		num, err := a.reg(args[k], r.file.Letter())
		if err != nil {
			return err
		}
		*r.dst = num
		k++
	}
	switch {
	case format == tc32.FmtLS:
		base, off, err := a.memOperand(args[k])
		if err != nil {
			return err
		}
		inst.Rs1 = base
		a.addInst(inst, &off, false)
	case format.HasImm():
		e, err := a.parseExpr(args[k])
		if err != nil {
			return err
		}
		a.addInst(inst, &e, format.PCRelative())
	default:
		a.addInst(inst, nil, false)
	}
	return nil
}
