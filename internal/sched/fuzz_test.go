package sched

import (
	"strings"
	"testing"

	"repro/internal/c6x"
)

// fuzzBlock decodes fuzz bytes into a block. The first byte picks the
// tail: bits 0-2 the ending (none, HALT, BPKT, predicated BPKT, BREG, or
// HALT then BPKT, which is rejected), bits 3-5 the branch register, and
// bits 6-7 both set free the operand sides, so that illegal double-cross
// operands come up (otherwise a second operand crosses only if the first
// does not). Then every three bytes are one instruction of at most 24: byte 0
// the kind (low 3 bits) and the op or the volatile bit (high bits),
// byte 1 the destination or stored register, byte 2 the source registers
// and operand flags. Registers come from four per side, so dependences
// are dense. A sync wait moves to the end of the body, where the
// translator puts it, unless all five high bits of its kind byte are set;
// one left in place makes later memory ops depend on it, which is
// rejected. Every instruction's Target
// holds its index, which the checker reads back.
func fuzzBlock(data []byte) *Block {
	b := &Block{Label: "fuzz"}
	if len(data) == 0 {
		return b
	}
	tail, data := data[0], data[1:]
	reg := func(x byte) c6x.Reg {
		if x&4 != 0 {
			return c6x.B(int(x & 3))
		}
		return c6x.A(int(x & 3))
	}
	alu := []c6x.Op{c6x.ADD, c6x.SUB, c6x.MPY, c6x.AND, c6x.SHL, c6x.CMPEQ, c6x.MV, c6x.MVK, c6x.MVKH, c6x.NEG}
	loads := []c6x.Op{c6x.LDW, c6x.LDH, c6x.LDHU, c6x.LDB, c6x.LDBU}
	stores := []c6x.Op{c6x.STW, c6x.STH, c6x.STB}
	var late []Ins
	for ; len(data) >= 3 && len(b.Ins)+len(late) < 24; data = data[3:] {
		k, d, s := data[0], data[1], data[2]
		volatile := k&0x80 != 0
		var in Ins
		switch k & 7 {
		case 0, 1, 2, 3: // ALU, predicated on kind 3
			src2 := s >> 3
			if tail&0xC0 != 0xC0 && (s^d)&4 != 0 {
				src2 = src2&^4 | d&4 // the first operand crosses: not the second
			}
			in = New(c6x.Inst{Op: alu[int(k>>3)%len(alu)], Dst: reg(d), Src1: c6x.R(reg(s)), Src2: c6x.R(reg(src2))})
			if s&0x40 != 0 {
				in.Src2 = c6x.Imm(int32(s))
			}
			if k&7 == 3 {
				in.Pred = c6x.Pred{Valid: true, Neg: s&0x80 != 0, Reg: reg(d >> 3)}
			}
		case 4: // load
			in = New(c6x.Inst{Op: loads[int(k>>3)%len(loads)], Dst: reg(d), Src1: c6x.R(reg(s)), Src2: c6x.Imm(int32(s >> 3)), Volatile: volatile})
		case 5: // store
			in = New(c6x.Inst{Op: stores[int(k>>3)%len(stores)], Data: reg(d), Src1: c6x.R(reg(s)), Src2: c6x.Imm(int32(s >> 3)), Volatile: volatile})
		case 6: // sync start store
			in = New(c6x.Inst{Op: c6x.STW, Data: reg(d), Src1: c6x.R(reg(s)), Src2: c6x.Imm(0), Volatile: true})
			in.Pin = PinFirst
		case 7: // sync wait load
			in = New(c6x.Inst{Op: c6x.LDW, Dst: reg(d), Src1: c6x.R(reg(s)), Src2: c6x.Imm(0), Volatile: true})
			in.Pin = PinLast
			if k&0xF8 != 0xF8 {
				late = append(late, in)
				continue
			}
		}
		b.Ins = append(b.Ins, in)
	}
	b.Ins = append(b.Ins, late...)
	end := tail & 7
	if end == 1 || end == 5 {
		b.Ins = append(b.Ins, New(c6x.Inst{Op: c6x.HALT}))
	}
	var br Ins
	switch end {
	case 2, 5:
		br = New(c6x.Inst{Op: c6x.BPKT})
	case 3:
		br = New(c6x.Inst{Op: c6x.BPKT, Pred: c6x.Pred{Valid: true, Reg: reg(tail >> 3)}})
	case 4:
		br = New(c6x.Inst{Op: c6x.BREG, Src1: c6x.R(reg(tail >> 3))})
	}
	if br.Op != c6x.INVALID {
		br.Pin = PinBranch
		b.Ins = append(b.Ins, br)
	}
	for i := range b.Ins {
		b.Ins[i].Target = i
	}
	return b
}

// checkSchedule is the scheduler's contract, checked from the packets
// alone: placement, per-packet resources, dependences and block length.
func checkSchedule(t *testing.T, b *Block, pk []c6x.Packet) {
	t.Helper()
	n := len(b.Ins)
	at := make([]int, n)
	for i := range at {
		at[i] = -1
	}
	cyc := 0
	for p, packet := range pk {
		if len(packet.Insts) == 1 && packet.Insts[0].Op == c6x.NOP {
			if packet.Insts[0].NopCycles < 1 {
				t.Fatalf("packet %d: NOP of %d cycles", p, packet.Insts[0].NopCycles)
			}
			cyc += packet.Insts[0].NopCycles
			continue
		}
		var taken c6x.ResSet
		for _, in := range packet.Insts {
			i := in.Target
			if i < 0 || i >= n || at[i] >= 0 {
				t.Fatalf("packet %d: instruction %d unknown or emitted twice", p, i)
			}
			at[i] = cyc
			want := b.Ins[i].Inst
			want.Unit = in.Unit
			if in != want {
				t.Fatalf("packet %d: emitted %+v, want %+v", p, in, want)
			}
			if in.Op == c6x.HALT {
				if len(packet.Insts) != 1 {
					t.Fatalf("packet %d: halt not alone", p)
				}
				continue
			}
			if !strings.ContainsRune(in.Op.UnitKinds(), rune(in.Unit.Kind())) {
				t.Fatalf("packet %d: %v on unit %v", p, in.Op, in.Unit)
			}
			side := in.Dst.Side()
			if in.Op.IsMem() || in.Op == c6x.BREG {
				side = in.Src1.Reg.Side()
			}
			if (in.HasDst() || in.Op.IsMem() || in.Op == c6x.BREG) && in.Unit.Side() != side {
				t.Fatalf("packet %d: %v on the wrong side", p, in)
			}
			need, ok := in.Resources(in.Unit)
			if !ok || taken&need != 0 {
				t.Fatalf("packet %d: %v does not fit (legal %v, taken %#x, needs %#x)", p, in, ok, taken, need)
			}
			taken |= need
		}
		cyc++
	}
	cycles := cyc
	for i, c := range at {
		if c < 0 {
			t.Fatalf("instruction %d not emitted", i)
		}
	}
	lat := func(i int) int { return b.Ins[i].Op.Latency() }
	writes := func(i int, r c6x.Reg) bool { return b.Ins[i].HasDst() && b.Ins[i].Dst == r }
	reads := func(i int, r c6x.Reg) bool {
		for _, q := range b.Ins[i].Reads(nil) {
			if q == r {
				return true
			}
		}
		return false
	}
	deferred := func(i int) bool {
		op := b.Ins[i].Op
		return b.Ins[i].Pin == PinLast || op.IsBranch() || op == c6x.HALT
	}
	for j := range b.Ins {
		cj := &b.Ins[j]
		for i := 0; i < j; i++ {
			ci := &b.Ins[i]
			if ci.HasDst() && reads(j, ci.Dst) && at[j] < at[i]+lat(i) {
				t.Errorf("RAW %d -> %d: at %d, %d, latency %d", i, j, at[i], at[j], lat(i))
			}
			if ci.HasDst() && writes(j, ci.Dst) && at[j]+lat(j) <= at[i]+lat(i) {
				t.Errorf("WAW %d -> %d: commits at %d, %d", i, j, at[i]+lat(i), at[j]+lat(j))
			}
			if cj.HasDst() && reads(i, cj.Dst) && at[j] < at[i] {
				t.Errorf("WAR %d -> %d: at %d, %d", i, j, at[i], at[j])
			}
			storeish := ci.Op.IsStore() || ci.Volatile || cj.Op.IsStore() || cj.Volatile
			if ci.Op.IsMem() && cj.Op.IsMem() && storeish && at[j] <= at[i] {
				t.Errorf("memory order %d -> %d: at %d, %d", i, j, at[i], at[j])
			}
		}
		switch {
		case cj.Op.IsBranch():
			if cycles != at[j]+c6x.BranchDelay+1 {
				t.Errorf("branch at %d, block ends at %d", at[j], cycles)
			}
		case cj.Op == c6x.HALT:
			if at[j] != cycles-1 {
				t.Errorf("halt at %d, block ends at %d", at[j], cycles)
			}
		case cj.Pin == PinLast:
			for i := range b.Ins {
				if !deferred(i) && at[i] > at[j] {
					t.Errorf("sync wait %d at %d before body work %d at %d", j, at[j], i, at[i])
				}
			}
		}
		if cj.HasDst() && cj.Pin != PinLast && at[j]+lat(j) > cycles {
			t.Errorf("write %d commits at %d, after the block ends at %d", j, at[j]+lat(j), cycles)
		}
	}
}

// FuzzSchedule: every block either is rejected promptly or schedules to
// packets that keep the scheduler's contract.
func FuzzSchedule(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 1, 2, 8, 5, 6, 1, 3, 4},
		{2, 6, 1, 2, 4, 3, 4, 0x85, 3, 4, 0x84, 1, 4, 7, 7, 5},
		{3, 4, 1, 0x48, 12, 2, 2, 5, 3, 4, 1, 4, 0x80, 5, 0, 4},
		{7, 0, 5, 6, 7, 1, 6, 0x45, 2, 0x4C},
		{1, 4, 1, 2, 0x14, 3, 0x40},
	} {
		f.Add(seed)
	}
	var s Scheduler // warm across inputs, as in a translation
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBlock(data)
		pk, err := s.Schedule(nil, b)
		if err != nil {
			// The input's faults are rejected up front; a placement
			// outside the block is the scheduler's own.
			if strings.Contains(err.Error(), "placed at cycle") {
				t.Fatal(err)
			}
			return
		}
		checkSchedule(t, b, pk)
	})
}
