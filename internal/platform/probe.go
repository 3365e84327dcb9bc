package platform

import (
	"encoding/binary"

	"repro/internal/c6x"
	"repro/internal/core"
	"repro/internal/iss"
)

// This file tells the superblock fuser what the translator's cache-probe
// subroutine means (c6x.Intrinsic): for the 1- and 2-way compact table
// layout, one Go function does what the routine's instructions do — tag
// compare, way replace, LRU word, miss penalty, every scratch register
// the path leaves behind — straight on the cache-table RAM. The fuser
// derives all timing from the routine's packets and checks the function
// against them at fuse time, so nothing here is trusted, only fast.

// probeIntrinsics declares prog's probe routine to the fuser. Wider
// geometries (the generalized routine) are declared without an effect:
// they stay on the generic lowering and show up as such in EngineStats.
func probeIntrinsics(prog *core.Program, rBase uint32) []c6x.Intrinsic {
	r := prog.ProbeRoutine
	if r.End <= r.Entry {
		return nil
	}
	in := c6x.Intrinsic{Entry: r.Entry, End: r.End}
	g := prog.Desc.ICache
	// The effect goes straight to the table. It is declared only where
	// the RAM window cannot overlap the table, so that a table address
	// never also names program data.
	tabEnd := uint64(core.CacheTableBase) + uint64(prog.CacheTableWords)*4
	disjoint := uint64(rBase)+iss.RAMSize <= core.CacheTableBase || uint64(rBase) >= tabEnd
	if g.Ways <= 2 && disjoint {
		pen := uint32(g.MissPenalty)
		if g.Ways == 1 {
			in.Effect, in.Paths = func(mem c6x.MemPort, r *[2 * c6x.NumRegs]uint32) int { return probe1Way(mem, r, pen) }, 2
		} else {
			in.Effect, in.Paths = func(mem c6x.MemPort, r *[2 * c6x.NumRegs]uint32) int { return probe2Way(mem, r, pen) }, 4
		}
		trials := probeTrials[g.Ways-1]
		in.Trials = len(trials)
		in.Trial = func(i int) (c6x.MemPort, [2 * c6x.NumRegs]uint32, func() []byte) {
			return probeTrial(prog, rBase, g.Ways, trials[i])
		}
	}
	return []c6x.Intrinsic{in}
}

// probeSet resolves a probe call's set to its words in the cache table:
// the system, the set's address and table offset, or ok=false when any of
// the set's n words lies outside the table (the routine's own loads then
// fault, or reach other memory, on the generic lowering).
func probeSet(mem c6x.MemPort, r *[2 * c6x.NumRegs]uint32, n uint32) (sys *System, addr, off uint32, ok bool) {
	sys, ok = mem.(*System)
	if !ok {
		return nil, 0, 0, false
	}
	pr := &core.ProbeRegs
	addr = r[pr.Table] + r[pr.SetOff]
	off = addr - sys.cBase
	return sys, addr, off, addr >= sys.cBase && uint64(off)+uint64(4*n) <= uint64(len(sys.ctab))
}

// probe1Way is the direct-mapped probe, table layout [way0, unused] per
// set. Paths: 0 hit, 1 miss.
func probe1Way(mem c6x.MemPort, r *[2 * c6x.NumRegs]uint32, pen uint32) int {
	sys, addr, off, ok := probeSet(mem, r, 1)
	if !ok {
		return -1
	}
	pr := &core.ProbeRegs
	tag := r[pr.Tag]
	r[pr.Addr] = addr
	r[pr.Word] = binary.LittleEndian.Uint32(sys.ctab[off:])
	if r[pr.Word] == tag {
		r[pr.Cmp] = 1
		return 0
	}
	r[pr.Cmp] = 0
	sys.setTab(off, tag, 4)
	r[pr.Corr] += pen
	return 1
}

// probe2Way is the two-way probe, table layout [way0, way1, lru] per set
// (lru = index of the way to replace next). Paths: 0 hit way 0, 1 hit
// way 1, 2 miss replacing way 0, 3 miss replacing way 1.
func probe2Way(mem c6x.MemPort, r *[2 * c6x.NumRegs]uint32, pen uint32) int {
	sys, addr, off, ok := probeSet(mem, r, 3)
	if !ok {
		return -1
	}
	pr := &core.ProbeRegs
	set := sys.ctab[off : off+12]
	tag := r[pr.Tag]
	r[pr.Addr] = addr
	r[pr.Word1] = binary.LittleEndian.Uint32(set[4:])
	switch tag {
	case binary.LittleEndian.Uint32(set):
		r[pr.Word], r[pr.Cmp] = 1, 1
		sys.setTab(off+8, 1, 4)
		return 0
	case r[pr.Word1]:
		r[pr.Word], r[pr.Cmp], r[pr.Cmp1] = 0, 0, 1
		sys.setTab(off+8, 0, 4)
		return 1
	}
	r[pr.Cmp1] = 0
	r[pr.Corr] += pen
	if binary.LittleEndian.Uint32(set[8:]) == 0 {
		r[pr.Word], r[pr.Cmp] = 1, 1
		sys.setTab(off, tag, 4)
		sys.setTab(off+8, 1, 4)
		return 2
	}
	r[pr.Word], r[pr.Cmp] = 0, 0
	sys.setTab(off+4, tag, 4)
	sys.setTab(off+8, 0, 4)
	return 3
}

// probeTrials are the set contents [way0, way1, lru] the validation
// trials start from, per associativity: with probeTrialTag they take
// every path (hits on each way, both replacements, a cold set).
const probeTrialTag = 0x8000_0155

var probeTrials = [2][][3]uint32{
	{{probeTrialTag}, {0x8000_0042}, {0}},
	{
		{probeTrialTag, 0x8000_0042, 0},
		{0x8000_0042, probeTrialTag, 1},
		{0x8000_0042, 0x8000_0077, 0},
		{0x8000_0042, 0x8000_0077, 1},
		{0, 0, 0},
	},
}

// probeTrial builds one validation machine: a bare System holding a
// two-set table — the probed set second, so a write to the wrong set
// shows in the image — and registers that are junk except for the
// routine's arguments.
func probeTrial(prog *core.Program, rBase uint32, ways int, set [3]uint32) (c6x.MemPort, [2 * c6x.NumRegs]uint32, func() []byte) {
	stride := uint32(ways+1) * 4
	sys := &System{
		Memory: *iss.NewMemory(prog.TextAddr, prog.TextImage, rBase, nil),
		Prog:   prog,
		Sync:   &SyncDev{Ratio: DefaultRatio},
		cBase:  core.CacheTableBase,
		ctab:   make([]byte, 2*stride),
	}
	for i := range sys.ctab {
		sys.ctab[i] = 0xEE
	}
	for w := 0; w <= ways; w++ {
		binary.LittleEndian.PutUint32(sys.ctab[stride+uint32(4*w):], set[w])
	}
	var regs [2 * c6x.NumRegs]uint32
	for i := range regs {
		regs[i] = 0xA5A5_0000 + uint32(i)
	}
	pr := &core.ProbeRegs
	regs[pr.Tag], regs[pr.SetOff], regs[pr.Table], regs[pr.Corr] = probeTrialTag, stride, core.CacheTableBase, 5
	return sys, regs, func() []byte { return sys.ctab }
}
