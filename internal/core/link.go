package core

import (
	"fmt"

	"repro/internal/c6x"
	"repro/internal/sched"
)

// link schedules every target block, lays the packets out, and resolves
// symbolic branch targets and return-address immediates to packet indices.
func (t *translator) link() (*Program, error) {
	prog := t.prog
	var s sched.Scheduler
	var packets []c6x.Packet
	tbStart := make([]int, len(t.tblocks))
	for ti, tb := range t.tblocks {
		tbStart[ti] = len(packets)
		if tb.region >= 0 {
			prog.Blocks[tb.region].PacketStart = len(packets)
		}
		var err error
		if packets, err = s.Schedule(packets, &sched.Block{Label: tb.label, Ins: tb.ins}); err != nil {
			return nil, fmt.Errorf("core: scheduling %s: %w", tb.label, err)
		}
	}
	packetOfLabel := make([]int, len(t.labelTarget))
	for lbl, ti := range t.labelTarget {
		if ti < 0 {
			packetOfLabel[lbl] = -1
			continue
		}
		packetOfLabel[lbl] = tbStart[ti]
	}
	for pi := range packets {
		for ii := range packets[pi].Insts {
			in := &packets[pi].Insts[ii]
			if in.Op == c6x.BPKT {
				if in.Target < 0 || in.Target >= len(packetOfLabel) || packetOfLabel[in.Target] < 0 {
					return nil, fmt.Errorf("core: unresolved branch label %d in packet %d", in.Target, pi)
				}
				in.Target = packetOfLabel[in.Target]
			}
			if in.SymImm {
				lbl := int(in.Src2.Imm)
				if lbl < 0 || lbl >= len(packetOfLabel) || packetOfLabel[lbl] < 0 {
					return nil, fmt.Errorf("core: unresolved label immediate %d in packet %d", lbl, pi)
				}
				p := packetOfLabel[lbl]
				if p > 0x7FFF {
					return nil, fmt.Errorf("core: packet index %d exceeds MVK range", p)
				}
				in.Src2.Imm = int32(p)
				// SymImm stays set: the immediate is a packet index,
				// which Merge must rebase when programs are combined.
			}
		}
	}
	prog.C6x = &c6x.Program{Packets: packets, Entry: 0}
	if first, end := t.probeTBs[0], t.probeTBs[1]; end > first {
		prog.ProbeRoutine = PacketRange{Entry: tbStart[first], End: len(packets)}
		if end < len(tbStart) {
			prog.ProbeRoutine.End = tbStart[end]
		}
	}
	for _, bi := range prog.Blocks {
		prog.PacketOfSrc[bi.SrcStart] = bi.PacketStart
		prog.SrcOfPacket[bi.PacketStart] = bi.SrcStart
	}
	return prog, nil
}

// Merge appends program b's packets to a's, rebasing b's branch targets
// and packet-index immediates. It returns the packet offset of b within
// the combined program. This is how the debugger's two translations (the
// block-oriented and the instruction-oriented one, Section 3.5) share one
// address space and one machine state.
func Merge(a, b *Program) int {
	off := len(a.C6x.Packets)
	for _, pk := range b.C6x.Packets {
		npk := c6x.Packet{Insts: append([]c6x.Inst(nil), pk.Insts...)}
		for i := range npk.Insts {
			in := &npk.Insts[i]
			if in.Op == c6x.BPKT {
				in.Target += off
			}
			if in.SymImm {
				in.Src2.Imm += int32(off)
			}
		}
		a.C6x.Packets = append(a.C6x.Packets, npk)
	}
	return off
}

// Listing renders the translated program with block annotations, in the
// spirit of a translator's -S output.
func (p *Program) Listing() string {
	out := fmt.Sprintf("; %s — %d source instructions, %d packets\n",
		p.Level, p.TotalSrcInsts, len(p.C6x.Packets))
	starts := map[int]BlockInfo{}
	for _, b := range p.Blocks {
		starts[b.PacketStart] = b
	}
	cyc := 0
	for i, pk := range p.C6x.Packets {
		if b, ok := starts[i]; ok {
			out += fmt.Sprintf(";; region src %#x..%#x  n=%d cycles  cabs=%d\n",
				b.SrcStart, b.SrcEnd, b.StaticCycles, b.CABs)
		}
		for j, in := range pk.Insts {
			sep := "  "
			if j > 0 {
				sep = "||"
			}
			out += fmt.Sprintf("P%-5d c%-6d %s %s\n", i, cyc, sep, in.String())
		}
		cyc += pk.Cycles()
	}
	return out
}
