package main

// Seeded straight-line-heavy programs for cold.translate, with their Go
// reference: the generator draws a small op list per basic block and an
// evaluator in this file (which never sees the assembled binary) walks
// the same list to predict the debug-port output.

import (
	"fmt"
	"strings"
)

type coldKind uint8

const (
	cMovi coldKind = iota
	cAddi
	cAdd
	cSub
	cMul
	cXor
	cAnd
	cOr
	cShli
	cShri
	cSari
	cMin
	cMax
	cAdd16
	cSub16
	cMov16
	cLoad  // rd = tab[imm]
	cStore // tab[imm] = rd
	numColdKinds
)

type coldOp struct {
	kind       coldKind
	rd, ra, rb int
	imm        int32
}

// coldBlock is a run of ops ended by an optional conditional skip of
// the following block.
type coldBlock struct {
	ops    []coldOp
	skip   bool // ends with "jXX d[ra], d[rb], <block after next>"
	lt     bool // jlt (else jne)
	ra, rb int
}

const (
	coldRegs     = 8  // d0..d7
	coldTabWords = 64 // scratch table behind a2
	coldTrips    = 2  // outer loop trips
)

type coldProgram struct {
	init   [coldRegs]int32
	tab    [coldTabWords]int32
	blocks []coldBlock
}

// drawCold builds a program of about insts static instructions. Two
// streams feed it. shape decides what costs the translator and the fuser
// time — block lengths, operation kinds, registers, branches — and data
// decides every constant: immediates, shift counts, table slots, initial
// registers and the table. The benchmark seeds only data: the fuser's
// time on such code is heavy-tailed in its shape (20–110 ms for programs
// of one size), and seeding the shape made one seed's round up to 25%
// slower than another's.
func drawCold(shape, data *rng, insts int) coldProgram {
	var p coldProgram
	for i := range p.init {
		p.init[i] = data.sample(1 << 14)
	}
	for i := range p.tab {
		p.tab[i] = data.sample(1 << 14)
	}
	for n := 0; n < insts; {
		var b coldBlock
		for k := 4 + shape.intn(20); k > 0; k-- {
			op := coldOp{kind: coldKind(shape.intn(int(numColdKinds))), rd: shape.intn(coldRegs), ra: shape.intn(coldRegs), rb: shape.intn(coldRegs)}
			switch op.kind {
			case cMovi, cAddi:
				op.imm = data.sample(1 << 11)
			case cShli, cShri, cSari:
				op.imm = int32(1 + data.intn(7))
			case cLoad, cStore:
				op.imm = int32(data.intn(coldTabWords))
			}
			b.ops = append(b.ops, op)
		}
		b.skip, b.lt = shape.intn(3) > 0, shape.intn(2) == 0
		b.ra, b.rb = shape.intn(coldRegs), shape.intn(coldRegs)
		p.blocks = append(p.blocks, b)
		n += len(b.ops) + 1
	}
	// The last two blocks fall through: a skip needs a block after next.
	for i := len(p.blocks) - 2; i < len(p.blocks); i++ {
		if i >= 0 {
			p.blocks[i].skip = false
		}
	}
	return p
}

func (p *coldProgram) source() string {
	var b strings.Builder
	b.WriteString(prologue + "\tla\ta2, tab\n")
	for i, v := range p.init {
		fmt.Fprintf(&b, "\tli\td%d, %d\n", i, v)
	}
	fmt.Fprintf(&b, "\tmovi\td9, %d\ntop:\n", coldTrips)
	for i, blk := range p.blocks {
		fmt.Fprintf(&b, "b%d:\n", i)
		for _, op := range blk.ops {
			rr := func(mn string) { fmt.Fprintf(&b, "\t%s\td%d, d%d, d%d\n", mn, op.rd, op.ra, op.rb) }
			ri := func(mn string) { fmt.Fprintf(&b, "\t%s\td%d, d%d, %d\n", mn, op.rd, op.ra, op.imm) }
			r2 := func(mn string) { fmt.Fprintf(&b, "\t%s\td%d, d%d\n", mn, op.rd, op.ra) }
			switch op.kind {
			case cMovi:
				fmt.Fprintf(&b, "\tmovi\td%d, %d\n", op.rd, op.imm)
			case cAddi:
				ri("addi")
			case cAdd:
				rr("add")
			case cSub:
				rr("sub")
			case cMul:
				rr("mul")
			case cXor:
				rr("xor")
			case cAnd:
				rr("and")
			case cOr:
				rr("or")
			case cShli:
				ri("shli")
			case cShri:
				ri("shri")
			case cSari:
				ri("sari")
			case cMin:
				rr("min")
			case cMax:
				rr("max")
			case cAdd16:
				r2("add16")
			case cSub16:
				r2("sub16")
			case cMov16:
				r2("mov16")
			case cLoad:
				fmt.Fprintf(&b, "\tld.w\td%d, %d(a2)\n", op.rd, 4*op.imm)
			case cStore:
				fmt.Fprintf(&b, "\tst.w\td%d, %d(a2)\n", op.rd, 4*op.imm)
			}
		}
		if blk.skip {
			mn := "jne"
			if blk.lt {
				mn = "jlt"
			}
			fmt.Fprintf(&b, "\t%s\td%d, d%d, b%d\n", mn, blk.ra, blk.rb, i+2)
		}
	}
	b.WriteString("\taddi\td9, d9, -1\n\tjz\td9, done\n\tj\ttop\ndone:\n")
	for i := 0; i < coldRegs; i++ {
		b.WriteString(emit(i))
	}
	b.WriteString("\thalt\n\t.data\n" + wordTable("tab", p.tab[:]))
	return b.String()
}

// run is the Go reference: the final d0..d7.
func (p *coldProgram) run() []uint32 {
	d, tab := p.init, p.tab
	for trip := 0; trip < coldTrips; trip++ {
		for i := 0; i < len(p.blocks); i++ {
			blk := &p.blocks[i]
			for _, op := range blk.ops {
				a, b := d[op.ra], d[op.rb]
				switch op.kind {
				case cMovi:
					d[op.rd] = op.imm
				case cAddi:
					d[op.rd] = a + op.imm
				case cAdd:
					d[op.rd] = a + b
				case cSub:
					d[op.rd] = a - b
				case cMul:
					d[op.rd] = mul32(a, b)
				case cXor:
					d[op.rd] = a ^ b
				case cAnd:
					d[op.rd] = a & b
				case cOr:
					d[op.rd] = a | b
				case cShli:
					d[op.rd] = a << uint(op.imm)
				case cShri:
					d[op.rd] = int32(uint32(a) >> uint(op.imm))
				case cSari:
					d[op.rd] = a >> uint(op.imm)
				case cMin:
					d[op.rd] = min(a, b)
				case cMax:
					d[op.rd] = max(a, b)
				case cAdd16:
					d[op.rd] += a
				case cSub16:
					d[op.rd] -= a
				case cMov16:
					d[op.rd] = a
				case cLoad:
					d[op.rd] = tab[op.imm]
				case cStore:
					tab[op.imm] = d[op.rd]
				}
			}
			if blk.skip {
				taken := d[blk.ra] != d[blk.rb]
				if blk.lt {
					taken = d[blk.ra] < d[blk.rb]
				}
				if taken {
					i++
				}
			}
		}
	}
	out := make([]uint32, coldRegs)
	for i, v := range d {
		out[i] = uint32(v)
	}
	return out
}

// coldPrograms draws the round's programs, largest first (a pool of
// workers fed in that order finishes together, so a round's wall time
// does not depend on which worker drew the big program last). Static
// sizes step evenly from coldMaxInsts down to coldMinInsts, so every
// seed translates the same amount of code.
func coldPrograms(seed int64, sz sizes) []program {
	progs := make([]program, sz.coldPrograms)
	for i := range progs {
		insts := sz.coldMaxInsts
		if sz.coldPrograms > 1 {
			insts -= i * (sz.coldMaxInsts - sz.coldMinInsts) / (sz.coldPrograms - 1)
		}
		p := drawCold(newRNG(0, fmt.Sprintf("shape%d", i)), newRNG(seed, fmt.Sprintf("cold%d", i)), insts)
		progs[i] = program{name: fmt.Sprintf("cold%02d", i), source: p.source(), expected: p.run()}
	}
	return progs
}
