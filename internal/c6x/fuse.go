package c6x

import (
	"math/bits"
	"sort"
)

// This file is the package's one compiler: a region-graph compiler that
// traces the translated program across execute packets — and across
// cycle-region boundaries — folding the per-packet epilogue (cycle
// accounting, stats, writeback commit scans, branch-delay bookkeeping)
// into straight-line chains of closures with the constant parts
// pre-added at fuse time. A segment pays one constant-folded accounting
// closure and dispatches only at control-flow splits, so steady-state
// loops never return to the caller's region dispatcher. How much one
// segment folds is FuseConfig.MaxSegPackets: at 1 every packet is its
// own segment, the unfused reference the platform's -nofuse runs.
//
// The fuser is a tiny abstract interpreter over the scheduler's
// machine-state contract: it tracks the branch-delay counter and the
// in-flight writeback window symbolically, forking compiled segments at
// predicated branches and chaining them at static ones. Segments are
// context-free: nothing about the caller is in a segment's key, so a
// routine called from a thousand sites is compiled once. Its return — a
// BREG through a register — captures the target at issue and, when the
// branch fires, picks its continuation from a table of the return sites
// the program loads into that register (FuseConfig.ConstRegs); a target
// outside the table materializes the interpreter state there. Anything
// outside the contract — a read of an in-flight register, an op with no
// kernel, overlapping branches — ends the segment with a deoptimization
// exit that materializes the exact interpreter state (pc, pending
// writebacks, branch state, clocks, stats) and hands control back to
// the interpreter, which reproduces the oracle behavior including its
// error texts. Bit-identity with Step is the invariant every
// fusing rule below preserves; the differential tests in fuse_test.go
// and the platform matrix enforce it.
//
// Within a trace the fuser also tracks which registers hold fuse-time
// constants (fold). An unpredicated direct write whose operands are
// immediates or known registers (MVK, MVKH on a known register, any
// all-constant ALU op) emits no op; later ALU ops read the register as
// an immediate, and the write is pending until the first op that can
// observe it lands it (land): a memory op, every terminal and exit, and
// an op reading the register from Regs (a predicate, a BREG capture) or
// writing it (a direct write, a slot commit). Tracking starts empty at
// every segment.
//
// A memory op that faults mid-segment returns the interpreter's error
// (packet, cycle, text) and leaves the interpreter's Stats: the error
// path adds the faulting packet's share of the folded counts (memFault;
// TestFusedMemoryFaultExact, and platform's TestProbeFaultExact for a
// fault inside an intrinsic routine). A bound op's packet is not
// synchronized, so its fault path first applies what the packet owed
// (deviceAccess; TestFusedBoundAccess). Two things do differ after such an
// error, which is terminal: the pc, which fused code does not maintain,
// and a register written directly by an instruction issued earlier in
// the faulting packet, which the interpreter never commits.

const (
	// fuseMaxSlots bounds the in-flight writeback values a segment can
	// hold in the Sim's fixed slot array (the deepest translator output
	// keeps a handful in flight; overflow deoptimizes).
	fuseMaxSlots = 16
	// fuseDefaultMaxSegPackets is FuseConfig.MaxSegPackets when unset.
	fuseDefaultMaxSegPackets = 64
	// fuseDefaultMaxSegments bounds the traced segments (distinct packet ×
	// machine-state pairs); states interned beyond it compile as
	// immediate-deopt stubs.
	fuseDefaultMaxSegments = 16384
	// fnextMiss in Sim.fnext: an indirect branch fired to a target its
	// table does not hold; the state is materialized there.
	fnextMiss = -2
)

// FuseConfig parameterizes superblock compilation.
type FuseConfig struct {
	// RegionOf maps each packet index to the cycle region starting
	// there (-1 elsewhere). Region starts are the segment boundaries
	// where the runner's hook fires (interrupt delivery points, trace,
	// clock checks) and the only re-entry points after a deopt.
	RegionOf []int32
	// ConstRegs are the registers that hold return-site packet indices
	// (the translator's link register and the source return-address
	// register): the packets the program loads into one of them as a
	// SymImm MVK are the table candidates of every indirect branch
	// through it.
	ConstRegs []Reg
	// MaxSegments overrides fuseDefaultMaxSegments when positive. It is a
	// budget, not a limit on what fuses: states beyond it become deopt
	// stubs and the program degrades per state.
	MaxSegments int
	// MaxSegPackets bounds one segment's trace length (0 means 64);
	// longer straight-line runs chain through a continuation segment. 1
	// folds nothing across packets: every packet runs as its own segment.
	MaxSegPackets int
	// Intrinsics are the program's runtime routines whose meaning the
	// caller knows (see Intrinsic); like the fields above they are
	// derived from the program, not chosen.
	Intrinsics []Intrinsic
	// Bind, if set, may supply a direct handler for the Volatile load or
	// store in of packet pkt (see DeviceAccess), or return nil to keep
	// the MemPort access. Fuse asks once per op whose packet holds no
	// other memory op. Like Intrinsics it is derived from the program:
	// the caller knows what a device register means, the fuser does not.
	Bind func(pkt int, in Inst) DeviceAccess
}

// DeviceAccess performs one bound Volatile access (FuseConfig.Bind) in
// place of the MemPort call. addr is the computed address, val the
// store data (0 for a load) and now the cycle the interpreter passes to
// the MemPort. It returns the loaded value and the cycle the core
// continues at, or ok=false, before touching anything, to decline: the
// op then makes the ordinary MemPort call with those same arguments
// (EngineStats.DeviceFallbacks). A bound op's packet pays no accounting
// sync: now is the Sim's clock plus the stalls and cycles folded since
// the last one.
type DeviceAccess func(mem MemPort, addr, val uint32, now int64) (v uint32, cont int64, ok bool)

// fop is one compiled fused operation.
type fop func(s *Sim) error

// finflight is one in-flight writeback tracked symbolically: its value
// lives in fslotVal[slot] at run time, landing rel busy-cycles after
// the segment boundary it is relative to. pred marks a predicated
// producer whose execution is recorded in fslotOn[slot].
type finflight struct {
	reg  Reg
	rel  int64
	slot uint8
	pred bool
}

// fbr is the symbolic branch-delay state. An indirect branch (ind) has
// no static target: the BREG through reg captured it into Sim.brTgt at
// issue, where it stays until the branch fires.
type fbr struct {
	valid, ind bool
	reg        Reg
	tgt        int
	cnt        int
}

// restore materializes the branch state into the Sim (a captured target
// already sits in brTgt).
func (b fbr) restore(s *Sim) {
	if b.valid {
		s.brValid, s.brCnt = true, b.cnt
		if !b.ind {
			s.brTgt = b.tgt
		}
	}
}

// fstate is the symbolic machine state keying a segment: the packet the
// trace continues at, the branch-delay state and the in-flight writeback
// window (rel relative to the state's busy clock). Two traces reaching
// one packet in the same state share a segment. generic keys the
// per-instruction lowering of an intrinsic's entry state, kept beside
// the segment that runs the intrinsic op.
type fstate struct {
	pkt      int
	br       fbr
	inflight []finflight
	generic  bool
}

// appendKey appends the state's interning key to b.
func (st *fstate) appendKey(b []byte) []byte {
	put := func(v uint32) {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	put(uint32(st.pkt))
	switch {
	case st.br.ind:
		b = append(b, 2, byte(st.br.reg))
		put(uint32(st.br.cnt))
	case st.br.valid:
		b = append(b, 1)
		put(uint32(st.br.tgt))
		put(uint32(st.br.cnt))
	default:
		b = append(b, 0)
	}
	n := byte(len(st.inflight))
	if st.generic {
		n |= 0x80 // a window holds at most fuseMaxSlots entries
	}
	b = append(b, n)
	for _, fi := range st.inflight {
		flag := byte(0)
		if fi.pred {
			flag = 1
		}
		b = append(b, byte(fi.reg), fi.slot, flag)
		put(uint32(fi.rel))
	}
	return b
}

// fseg is one compiled segment.
type fseg struct {
	pkt      int  // packet the segment's state sits at (pc at its boundary)
	boundary bool // sits at a region start: the runner hook fires here
	noEnter  bool // zero-progress (deopts immediately): not a re-entry point
	entryBr  fbr
	// entryFlush is the in-flight window at segment entry, flushed into
	// Sim.pending when the hook stops or redirects execution here and
	// matched against it on (re-)entry.
	entryFlush []finflight
	ops        []fop
}

// FusedProgram is the superblock-compiled form of a Program. Immutable
// after Fuse and safe to share across Sims (closures only touch the Sim
// passed to them).
type FusedProgram struct {
	prog     *Program
	segs     []*fseg
	regionOf []int32 // FuseConfig.RegionOf
	// The entry index: the segments execution can enter at packet p are
	// cands[candStart[p]:candStart[p+1]] — every boundary segment the
	// traces reached there, the clean-state seed among them. Dense offsets
	// rather than a map: the lookup runs before every Step, and
	// two bounds-checked loads beat a hash there.
	candStart []int32
	cands     []int32
	entries   int
	longest   int
	sites     [NumIntrinsicOutcomes]int64
	bound     int64 // memory ops bound to a FuseConfig.Bind handler
}

// Segments returns the number of compiled segments (introspection).
func (fp *FusedProgram) Segments() int { return len(fp.segs) }

// LongestSegment returns the most packets one segment traces
// (introspection; at most FuseConfig.MaxSegPackets).
func (fp *FusedProgram) LongestSegment() int { return fp.longest }

// Entries returns the number of clean re-entry points.
func (fp *FusedProgram) Entries() int { return fp.entries }

// candidates returns the segments enterable at packet pc.
func (fp *FusedProgram) candidates(pc int) []int32 {
	if pc < 0 || pc+1 >= len(fp.candStart) {
		return nil
	}
	return fp.cands[fp.candStart[pc]:fp.candStart[pc+1]]
}

// retTable is the return-site table of one ConstRegs register: the
// packets the program loads into it as SymImm MVKs, ascending, and their
// dense inverse (packet -> index into sites, -1 elsewhere).
type retTable struct {
	sites []int
	ord   []int32
}

// fuser is the segment compiler.
type fuser struct {
	prog    *Program
	cfg     FuseConfig
	maxSegs int
	maxPkts int
	longest int
	segs    []*fseg
	states  []fstate
	index   map[string]int32
	keyBuf  []byte // state's scratch: a lookup that hits allocates nothing
	work    []int32
	seeds   map[int]int32 // seed packet -> segment index
	rets    map[Reg]*retTable
	exits   map[string]*indirectExit // (register, exit window) -> shared exit
	sites   [NumIntrinsicOutcomes]int64
	bound   []DeviceAccess // per packet: the handler of its one memory op, if bound
	nbound  int64
}

// Compile is the unfused build: Fuse with one packet per segment and
// nothing else configured.
func Compile(prog *Program) (*FusedProgram, error) {
	return Fuse(prog, FuseConfig{MaxSegPackets: 1})
}

// Fuse compiles prog into superblock segments. A program with a
// malformed packet — even an unreachable one — is rejected, where the
// interpreter would only fault if execution reached it; nothing else is:
// control flow that outgrows the segment budget leaves deopt stubs
// behind.
func Fuse(prog *Program, cfg FuseConfig) (*FusedProgram, error) {
	for i, pk := range prog.Packets {
		if msg := issueViolation(pk); msg != "" {
			return nil, &SimError{Packet: i, Msg: msg}
		}
	}
	f := &fuser{
		prog:    prog,
		cfg:     cfg,
		maxSegs: cfg.MaxSegments,
		maxPkts: cfg.MaxSegPackets,
		index:   map[string]int32{},
		seeds:   map[int]int32{},
		rets:    map[Reg]*retTable{},
		exits:   map[string]*indirectExit{},
	}
	if f.maxSegs <= 0 {
		f.maxSegs = fuseDefaultMaxSegments
	}
	if f.maxPkts <= 0 {
		f.maxPkts = fuseDefaultMaxSegPackets
	}
	f.findReturnSites()
	f.bindDevices()
	// Seeds: the program entry and every region start, in clean state.
	f.seeds[prog.Entry] = f.state(fstate{pkt: prog.Entry})
	for pkt, ri := range cfg.RegionOf {
		if ri >= 0 {
			if _, ok := f.seeds[pkt]; !ok {
				f.seeds[pkt] = f.state(fstate{pkt: pkt})
			}
		}
	}
	for len(f.work) > 0 {
		si := f.work[len(f.work)-1]
		f.work = f.work[:len(f.work)-1]
		f.compileSeg(si)
	}
	fp := &FusedProgram{prog: prog, segs: f.segs, regionOf: cfg.RegionOf, longest: f.longest, sites: f.sites, bound: f.nbound}
	for _, si := range f.seeds {
		if !f.segs[si].noEnter {
			fp.entries++
		}
	}
	// Index the enterable segments per packet: those sitting where the
	// interpreter hands control back (region starts and the program
	// entry) that make progress, in the deterministic interning order.
	for si, seg := range f.segs {
		if !seg.noEnter && !f.states[si].generic && (seg.boundary || seg.pkt == prog.Entry) && seg.pkt >= 0 && seg.pkt < len(prog.Packets) {
			fp.cands = append(fp.cands, int32(si))
		}
	}
	sort.SliceStable(fp.cands, func(i, j int) bool {
		return f.segs[fp.cands[i]].pkt < f.segs[fp.cands[j]].pkt
	})
	fp.candStart = make([]int32, len(prog.Packets)+1)
	for _, si := range fp.cands {
		fp.candStart[f.segs[si].pkt+1]++
	}
	for p := 1; p < len(fp.candStart); p++ {
		fp.candStart[p] += fp.candStart[p-1]
	}
	return fp, nil
}

// findReturnSites builds the return-site table of every ConstRegs
// register from the program's SymImm MVKs.
func (f *fuser) findReturnSites() {
	for _, r := range f.cfg.ConstRegs {
		rt := &retTable{ord: make([]int32, len(f.prog.Packets))}
		for i := range rt.ord {
			rt.ord[i] = -1
		}
		f.rets[r] = rt
	}
	for _, pk := range f.prog.Packets {
		for _, in := range pk.Insts {
			if in.Op != MVK || !in.SymImm || in.Src2.Imm < 0 || int(in.Src2.Imm) >= len(f.prog.Packets) {
				continue
			}
			if rt := f.rets[in.Dst]; rt != nil {
				rt.ord[in.Src2.Imm] = 0 // a site; numbered below
			}
		}
	}
	for _, rt := range f.rets {
		for p, o := range rt.ord {
			if o == 0 {
				rt.ord[p] = int32(len(rt.sites))
				rt.sites = append(rt.sites, p)
			}
		}
	}
}

// bindDevices asks cfg.Bind for a handler for every Volatile memory op
// that is the only memory op of its packet.
func (f *fuser) bindDevices() {
	if f.cfg.Bind == nil {
		return
	}
	for pkt, pk := range f.prog.Packets {
		var mem *Inst
		for i := range pk.Insts {
			if pk.Insts[i].Op.IsMem() {
				if mem != nil {
					mem = nil
					break
				}
				mem = &pk.Insts[i]
			}
		}
		if mem == nil || !mem.Volatile {
			continue
		}
		if h := f.cfg.Bind(pkt, *mem); h != nil {
			if f.bound == nil {
				f.bound = make([]DeviceAccess, len(f.prog.Packets))
			}
			f.bound[pkt] = h
			f.nbound++
		}
	}
}

// boundAt returns the handler bound to pkt's memory op, or nil.
func (f *fuser) boundAt(pkt int) DeviceAccess {
	if f.bound == nil {
		return nil
	}
	return f.bound[pkt]
}

// state interns a symbolic state, scheduling compilation on first use.
func (f *fuser) state(st fstate) int32 {
	f.keyBuf = st.appendKey(f.keyBuf[:0])
	if si, ok := f.index[string(f.keyBuf)]; ok {
		return si
	}
	si := int32(len(f.segs))
	f.index[string(f.keyBuf)] = si
	f.segs = append(f.segs, &fseg{})
	f.states = append(f.states, st)
	f.work = append(f.work, si)
	return si
}

// regionStart reports whether a cycle region starts at pkt.
func regionStart(regionOf []int32, pkt int) bool {
	return pkt >= 0 && pkt < len(regionOf) && regionOf[pkt] >= 0
}

// fctx is the per-segment compilation context: the working symbolic
// state plus the accumulators the next synchronization op will fold
// into the Sim.
type fctx struct {
	f   *fuser
	seg *fseg

	busy     int64 // busy offset since segment entry
	br       fbr
	inflight []finflight
	slots    uint32 // bitmask of live slots

	accCyc, accPkts, accInsts, accNop int64
	memSeen                           bool // a mem op ran since the last sync (fstall may be pending)
	progress                          bool

	// Fuse-time constants (fold): known marks the registers holding kval's
	// value here; of those, pending marks the ones not in Regs yet (land).
	known, pending uint64
	kval           [2 * NumRegs]uint32
}

// compileSeg compiles the segment for state index si.
func (f *fuser) compileSeg(si int32) {
	st := f.states[si]
	seg := f.segs[si]
	seg.pkt = st.pkt
	seg.entryBr = st.br
	seg.entryFlush = append([]finflight(nil), st.inflight...)
	// A generic twin is reached only from its intrinsic segment's op: the
	// boundary actions already ran there, and nothing enters it directly.
	seg.boundary = regionStart(f.cfg.RegionOf, st.pkt) && !st.generic

	c := &fctx{
		f:        f,
		seg:      seg,
		br:       st.br,
		inflight: append([]finflight(nil), st.inflight...),
	}
	for _, fi := range st.inflight {
		c.slots |= 1 << fi.slot
	}

	if int(si) >= f.maxSegs {
		// Interned after the budget ran out: a stub instead of a trace.
		c.exitDeopt(st.pkt, DeoptBudgetStub)
		seg.noEnter = true
		return
	}
	if in := f.intrinsicAt(st.pkt); in != nil && !st.generic && f.compileIntrinsic(seg, st, in) {
		return
	}
	pkt := st.pkt
	pkts := 0
	for {
		if pkt < 0 || pkt >= len(f.prog.Packets) {
			// Out of range: deopt; the interpreter produces the exact
			// "fell off the program" error.
			c.exitDeopt(pkt, DeoptContract)
			break
		}
		if pkt != st.pkt && regionStart(f.cfg.RegionOf, pkt) {
			// Region boundary: end the segment so the runner hook fires.
			c.termJump(c.stateAt(pkt))
			break
		}
		if pkts >= f.maxPkts {
			c.termJump(c.stateAt(pkt))
			break
		}
		pl, cause, ok := c.plan(pkt, f.prog.Packets[pkt])
		if !ok {
			c.exitDeopt(pkt, cause)
			break
		}
		pkts++
		c.emit(pkt, pl)
		c.progress = true
		if done := c.terminal(pkt, pl); done {
			break
		}
		pkt = pl.next
	}
	seg.noEnter = !c.progress
	f.longest = max(f.longest, pkts)
}

// stateAt interns the continuation state at pkt with the current
// symbolic machine state (rels rebased to the new segment's entry).
func (c *fctx) stateAt(pkt int) int32 {
	return c.f.state(fstate{pkt: pkt, br: c.br, inflight: c.flushList()})
}

// fwrite is one planned register write of a packet.
type fwrite struct {
	inst      int // index into the packet's insts
	reg       Reg
	commitOff int64
	direct    bool
	slot      uint8
	pred      bool
}

// fplan is the static execution plan of one packet.
type fplan struct {
	hasMem  bool
	busyPk  int64
	busyEff int64
	nop     int64
	uncond  int64 // unpredicated executed instructions (folded count)

	writes []fwrite
	due    []finflight // commits landing at this packet's end, in order
	keep   []finflight // still in flight afterwards

	condBr   bool // predicated branch issued (fork at terminal)
	issued   fbr  // the branch this packet issues
	halt     bool // unpredicated HALT
	haltCond bool // predicated HALT
	fired    fbr  // the unpredicated branch firing at this packet's end
	brAfter  fbr  // branch state after this packet (not-taken path for condBr)
	brTaken  fbr  // branch state after this packet on the taken path (condBr)
	next     int  // fallthrough packet
}

// plan statically simulates one packet against the symbolic state. A
// false result means the packet (in this state) is outside the fusable
// contract and the segment must deoptimize before it, for the cause
// returned.
func (c *fctx) plan(pkt int, pk Packet) (fplan, DeoptCause, bool) {
	var pl fplan
	pl.next = pkt + 1
	pl.busyPk = int64(pk.Cycles())
	if n := pk.Cycles(); n > 1 {
		pl.nop = int64(n - 1)
	}

	// In-flight read contract: any read of an in-flight register deopts
	// (the interpreter errors).
	// readEnd[i] ends instruction i's reads (Fuse checked len(Insts) ≤ 8).
	var readBuf [24]Reg
	var readEnd [8]int
	reads := readBuf[:0]
	for i, in := range pk.Insts {
		reads = in.Reads(reads)
		readEnd[i] = len(reads)
	}
	for _, r := range reads {
		for _, fi := range c.inflight {
			if fi.reg == r {
				return pl, DeoptInflightRead, false
			}
		}
	}

	branches := 0
	for idx, in := range pk.Insts {
		if in.Op != NOP && !in.Pred.Valid {
			pl.uncond++
		}
		switch {
		case in.Op == NOP:
		case in.Op == HALT:
			if in.Pred.Valid {
				pl.haltCond = true
			} else {
				pl.halt = true
			}
		case in.Op == BPKT || in.Op == BREG:
			branches++
			if branches > 1 || c.br.valid {
				return pl, DeoptContract, false // overlap: Step reproduces the contract error
			}
			pl.issued = fbr{valid: true, tgt: in.Target, cnt: BranchDelay + 1}
			pl.condBr = in.Pred.Valid
			if in.Op == BREG {
				pl.issued.tgt = int(in.Src1.Imm)
				if !in.Src1.IsImm {
					if pl.condBr {
						return pl, DeoptContract, false // predicated capture: not a scheduler shape
					}
					pl.issued.ind, pl.issued.reg = true, in.Src1.Reg
				}
			}
		case in.Op.IsStore():
			pl.hasMem = true
		default: // a load or an ALU op: one register write
			if in.Op.IsLoad() {
				pl.hasMem = true
			} else if in.Op.info().kernel == nil {
				return pl, DeoptNoKernel, false // Step errors
			}
			pl.writes = append(pl.writes, fwrite{
				inst: idx, reg: in.Dst,
				commitOff: c.busy + int64(in.Op.Latency()),
				pred:      in.Pred.Valid,
			})
		}
	}

	// Cycle accounting: a pending branch shortens a multi-cycle NOP. The
	// only path-dependent case (a predicated branch in a packet whose
	// busy differs by takenness) cannot come from the scheduler; deopt.
	pl.busyEff = pl.busyPk
	if c.br.valid && int64(c.br.cnt) < pl.busyEff {
		pl.busyEff = int64(c.br.cnt)
	}
	if pl.condBr {
		takenEff := pl.busyPk
		if int64(BranchDelay+1) < takenEff {
			takenEff = int64(BranchDelay + 1)
		}
		if takenEff != pl.busyEff {
			return pl, DeoptContract, false
		}
	}
	busyAfter := c.busy + pl.busyEff

	// Writeback window: split due/keep in pending order, stable-sort due
	// by commit cycle, detect same-cycle collisions (deopt: Step
	// produces the exact contract error), decide direct writes.
	var all []finflight
	all = append(all, c.inflight...)
	for wi := range pl.writes {
		w := &pl.writes[wi]
		// A direct write (straight to Regs at issue) is legal when the
		// commit lands exactly at this packet's end, no other same-packet
		// instruction reads the register (the writer's own read precedes
		// its write inside one op), and no other write to it is in flight
		// or planned — otherwise commit order matters and the value goes
		// through a slot.
		w.direct = w.commitOff == busyAfter
		if w.direct {
			own := 0
			if w.inst > 0 {
				own = readEnd[w.inst-1]
			}
			for i, r := range reads {
				if r == w.reg && (i < own || i >= readEnd[w.inst]) {
					w.direct = false
					break
				}
			}
		}
		if w.direct {
			for _, fi := range c.inflight {
				if fi.reg == w.reg {
					w.direct = false
					break
				}
			}
			for oi := range pl.writes {
				if oi != wi && pl.writes[oi].reg == w.reg {
					w.direct = false
					break
				}
			}
		}
		if !w.direct {
			slot := -1
			for b := 0; b < fuseMaxSlots; b++ {
				if c.slots&(1<<b) == 0 {
					slot = b
					break
				}
			}
			if slot < 0 {
				return pl, DeoptSlotPressure, false
			}
			c.slots |= 1 << slot // provisional; freed on commit or rolled back by caller discipline
			w.slot = uint8(slot)
			all = append(all, finflight{reg: w.reg, rel: w.commitOff, slot: w.slot, pred: w.pred})
		}
	}
	for _, fi := range all {
		if fi.rel <= busyAfter {
			pl.due = append(pl.due, fi)
		} else {
			pl.keep = append(pl.keep, fi)
		}
	}
	sort.SliceStable(pl.due, func(i, j int) bool { return pl.due[i].rel < pl.due[j].rel })
	for i := range pl.due {
		for j := i + 1; j < len(pl.due); j++ {
			if pl.due[i].reg == pl.due[j].reg && pl.due[i].rel == pl.due[j].rel {
				return pl, DeoptContract, false // writeback collision: Step reproduces it
			}
		}
	}

	// Branch bookkeeping after this packet.
	pl.brAfter = c.br
	if branches == 1 && !pl.condBr {
		pl.brAfter = pl.issued
	}
	if pl.brAfter.valid {
		pl.brAfter.cnt -= int(pl.busyEff)
		if pl.brAfter.cnt <= 0 {
			if !pl.condBr {
				pl.fired = pl.brAfter
			}
			pl.brAfter = fbr{}
		}
	}
	if pl.condBr {
		pl.brTaken = pl.issued
		pl.brTaken.cnt -= int(pl.busyEff)
		if pl.brTaken.cnt <= 0 {
			// Degenerate: a predicated branch firing at its own packet end
			// (busy ≥ 6) cannot come from the scheduler; deopt.
			return pl, DeoptContract, false
		}
	}
	if pl.fired.ind && (pl.halt || pl.haltCond) {
		return pl, DeoptContract, false // HALT under a captured branch: no static exit pc
	}
	return pl, 0, true
}

// emit lowers the planned packet into ops and advances the symbolic
// state. Issue ops run in instruction order, then the due commits in
// their sorted order, exactly like the interpreter's packet epilogue.
func (c *fctx) emit(pkt int, pl fplan) {
	pk := c.f.prog.Packets[pkt]
	if pl.hasMem && c.f.boundAt(pkt) == nil {
		c.emitSync()
	}
	wi := 0
	var issued int64 // unpredicated instructions so far: what a fault owes the count
	for idx, in := range pk.Insts {
		var w *fwrite
		if wi < len(pl.writes) && pl.writes[wi].inst == idx {
			w = &pl.writes[wi]
			wi++
		}
		if in.Op != NOP && !in.Pred.Valid {
			issued++
		}
		c.emitInst(pkt, in, w, issued)
	}
	if pl.hasMem {
		c.memSeen = true
	}

	// Commit ops, in due order. A slot write's register stays known until
	// its commit, where a pending constant of it lands first.
	for _, fi := range pl.due {
		slot, reg := fi.slot, fi.reg
		op := func(s *Sim) error {
			s.Regs[reg] = s.fslotVal[slot]
			return nil
		}
		if fi.pred {
			op = func(s *Sim) error {
				if s.fslotOn[slot] {
					s.Regs[reg] = s.fslotVal[slot]
				}
				return nil
			}
		}
		c.seg.ops = append(c.seg.ops, c.landFor(reg, op))
		c.known &^= 1 << reg
	}
	c.advance(pl)
}

// advance moves the symbolic state past the planned packet: its landed
// writebacks free their slots and its constants join the accounting.
func (c *fctx) advance(pl fplan) {
	for _, fi := range pl.due {
		c.slots &^= 1 << fi.slot
	}
	c.accCyc += pl.busyEff
	c.accPkts++
	c.accInsts += pl.uncond
	c.accNop += pl.nop
	c.busy += pl.busyEff
	c.inflight = append(c.inflight[:0], pl.keep...)
}

// terminal emits the segment terminal the packet requires, returning
// whether the segment ends here. The branch state advance (brAfter /
// taken-fork / fire) was computed by plan.
func (c *fctx) terminal(pkt int, pl fplan) bool {
	switch {
	case pl.halt:
		c.br = pl.brAfter
		exitPC := pl.next
		if pl.fired.valid {
			exitPC = pl.fired.tgt
		}
		c.exitHalt(exitPC)
		return true
	case pl.haltCond:
		// Runtime fork on s.halted (set by the guarded HALT op). The
		// continuation pc is the same either way (fallthrough, or the
		// target of a pre-existing branch firing at this packet's end).
		c.br = pl.brAfter
		next := pl.next
		if pl.fired.valid {
			next = pl.fired.tgt
		}
		c.termHaltCond(next, c.stateAt(next))
		return true
	case pl.condBr:
		c.br = pl.brTaken
		taken := c.stateAt(pl.next)
		c.br = pl.brAfter
		fallSeg := c.stateAt(pl.next)
		c.termCond(taken, fallSeg)
		return true
	case pl.fired.ind:
		c.br = fbr{}
		c.termIndirect(pl.fired.reg)
		return true
	case pl.fired.valid:
		c.br = fbr{}
		c.termJump(c.stateAt(pl.fired.tgt))
		return true
	default:
		c.br = pl.brAfter
		return false
	}
}

// facct is the constant part of every interpreted packet epilogue since
// the last synchronization point, folded at fuse time and paid once.
type facct struct{ cyc, pkts, insts, nop int64 }

// apply folds the accounting into the Sim. Memory stalls collected in
// fstall freeze the cycle clock exactly like the interpreter's
// per-packet stall accounting.
func (a facct) apply(s *Sim) {
	s.cycle += a.cyc + s.fstall
	s.busy += a.cyc
	s.stats.StallCycles += s.fstall
	s.fstall = 0
	s.stats.Packets += a.pkts
	s.stats.Instructions += a.insts
	s.stats.NopCycles += a.nop
}

// take drains the accounting accumulators for a terminal/sync op.
func (c *fctx) take() facct {
	a := facct{c.accCyc, c.accPkts, c.accInsts, c.accNop}
	c.accCyc, c.accPkts, c.accInsts, c.accNop = 0, 0, 0, 0
	c.memSeen = false
	return a
}

// emitSync folds the accumulated constants into the Sim.
func (c *fctx) emitSync() {
	if c.accCyc == 0 && c.accPkts == 0 && !c.memSeen {
		return
	}
	a := c.take()
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		a.apply(s)
		return nil
	})
}

// operand returns o, a known register replaced by its constant.
func (c *fctx) operand(o Operand) Operand {
	if !o.IsImm && c.known&(1<<o.Reg) != 0 {
		return Imm(int32(c.kval[o.Reg]))
	}
	return o
}

// fold records a constant write of v to r that costs no op: r is known
// from here and its write pending until the next op that can observe it.
func (c *fctx) fold(r Reg, v uint32) {
	c.known |= 1 << r
	c.pending |= 1 << r
	c.kval[r] = v
}

// land returns op preceded by the pending constant writes, which have
// landed from then on: op itself when nothing is pending. Every op that
// can observe the register file as a whole (a memory op, whose MemPort
// may read it or fault, and every terminal and exit) is wrapped in it.
func (c *fctx) land(op fop) fop {
	var regs []Reg
	var vals []uint32
	for m := c.pending; m != 0; m &= m - 1 {
		r := Reg(bits.TrailingZeros64(m))
		regs, vals = append(regs, r), append(vals, c.kval[r])
	}
	c.pending = 0
	switch len(regs) {
	case 0:
		return op
	case 1:
		r, v := regs[0], vals[0]
		return func(s *Sim) error {
			s.Regs[r] = v
			return op(s)
		}
	}
	return func(s *Sim) error {
		for i, r := range regs {
			s.Regs[r] = vals[i]
		}
		return op(s)
	}
}

// landFor is land for an op that reads or writes Regs[r] only: the
// pending writes land before it if r is one of them.
func (c *fctx) landFor(r Reg, op fop) fop {
	if c.pending&(1<<r) != 0 {
		return c.land(op)
	}
	return op
}

// flushList returns the current in-flight window with rels rebased to
// the exit's busy clock: a continuation's entry window, and what
// flushWindow materializes at run time.
func (c *fctx) flushList() []finflight {
	var fl []finflight
	for _, fi := range c.inflight {
		fi.rel -= c.busy
		fl = append(fl, fi)
	}
	return fl
}

// flushWindow materializes an in-flight window held in fused slots into
// the ordinary pending list.
func flushWindow(s *Sim, fl []finflight) {
	for _, fi := range fl {
		if fi.pred && !s.fslotOn[fi.slot] {
			continue
		}
		s.pending = append(s.pending, writeback{reg: fi.reg, val: s.fslotVal[fi.slot], commitAt: s.busy + fi.rel})
	}
}

// leaveFused materializes the exact interpreter state at pc — in-flight
// window, branch state — and ends fused execution (fnext = -1).
func leaveFused(s *Sim, fl []finflight, pc int, br fbr) {
	flushWindow(s, fl)
	s.pc = pc
	br.restore(s)
	s.fnext = -1
}

// exitDeopt leaves fused execution at pkt, counting the deopt under its
// cause.
func (c *fctx) exitDeopt(pkt int, cause DeoptCause) {
	a, fl, br := c.take(), c.flushList(), c.br
	c.seg.ops = append(c.seg.ops, c.land(func(s *Sim) error {
		a.apply(s)
		leaveFused(s, fl, pkt, br)
		s.es.DeoptsBy[cause]++
		return nil
	}))
}

// exitHalt materializes the halted state (HALT executed this packet).
func (c *fctx) exitHalt(exitPC int) {
	a, fl, br := c.take(), c.flushList(), c.br
	c.seg.ops = append(c.seg.ops, c.land(func(s *Sim) error {
		a.apply(s)
		s.halted = true
		leaveFused(s, fl, exitPC, br)
		return nil
	}))
}

// termHaltCond forks at run time on whether the guarded HALT executed.
func (c *fctx) termHaltCond(exitPC int, fall int32) {
	a, fl, br := c.take(), c.flushList(), c.br
	c.seg.ops = append(c.seg.ops, c.land(func(s *Sim) error {
		a.apply(s)
		if !s.halted {
			s.fnext = fall
			return nil
		}
		leaveFused(s, fl, exitPC, br)
		return nil
	}))
}

// termCond forks on the predicated branch issued this packet (fcond0
// was set by its issue op).
func (c *fctx) termCond(taken, fall int32) {
	a := c.take()
	c.seg.ops = append(c.seg.ops, c.land(func(s *Sim) error {
		a.apply(s)
		if s.fcond0 {
			s.fnext = taken
		} else {
			s.fnext = fall
		}
		return nil
	}))
}

// termJump chains to the next segment.
func (c *fctx) termJump(next int32) {
	a := c.take()
	c.seg.ops = append(c.seg.ops, c.land(func(s *Sim) error {
		a.apply(s)
		s.fnext = next
		return nil
	}))
}

// indirectExit is the dispatch of a fired indirect branch: the target
// (in Sim.brTgt since issue) selects its continuation among the segments
// compiled, for this exit's window, at each of the register's return
// sites. Any other target materializes the interpreter state there
// (fnextMiss): the same table dispatch with nothing compiled.
type indirectExit struct {
	rt   *retTable
	next []int32
	fl   []finflight
}

// indirectExit returns the exit for a branch captured from reg firing in
// the current symbolic state. Exits are shared per (register, window):
// the paths of one routine usually leave with the same window, and a
// table has an entry per call site.
func (c *fctx) indirectExit(reg Reg) *indirectExit {
	fl := c.flushList()
	key := string((&fstate{pkt: int(reg), inflight: fl}).appendKey(nil))
	if x := c.f.exits[key]; x != nil {
		return x
	}
	rt := c.f.rets[reg]
	if rt == nil {
		rt = &retTable{} // not a return-site register: every target misses
	}
	x := &indirectExit{rt: rt, fl: fl, next: make([]int32, len(rt.sites))}
	for i, p := range rt.sites {
		x.next[i] = c.f.state(fstate{pkt: p, inflight: fl})
	}
	c.f.exits[key] = x
	return x
}

func (x *indirectExit) fire(s *Sim) {
	if t := s.brTgt; uint(t) < uint(len(x.rt.ord)) && x.rt.ord[t] >= 0 {
		s.fnext = x.next[x.rt.ord[t]]
		return
	}
	leaveFused(s, x.fl, s.brTgt, fbr{})
	s.es.DeoptsBy[DeoptIndirectMiss]++
	s.fnext = fnextMiss
}

// termIndirect ends the segment where the branch captured from reg
// fires.
func (c *fctx) termIndirect(reg Reg) {
	a, x := c.take(), c.indirectExit(reg)
	c.seg.ops = append(c.seg.ops, c.land(func(s *Sim) error {
		a.apply(s)
		x.fire(s)
		return nil
	}))
}

// emitInst lowers one instruction. w is its planned write (nil for
// non-writing instructions); issued counts the packet's unpredicated
// instructions up to and including this one.
func (c *fctx) emitInst(pkt int, in Inst, w *fwrite, issued int64) {
	switch {
	case in.Op == NOP:
		return
	case in.Op == HALT:
		if !in.Pred.Valid {
			return // folded into the exit terminal
		}
		pr, neg := in.Pred.Reg, in.Pred.Neg
		c.seg.ops = append(c.seg.ops, c.landFor(pr, func(s *Sim) error {
			if (s.Regs[pr] != 0) == neg {
				return nil
			}
			s.stats.Instructions++
			s.halted = true
			return nil
		}))
		return
	case in.Op == BPKT || in.Op == BREG:
		if !in.Pred.Valid {
			// Accounting folded; only a register target is captured, at
			// issue like Step (later writes to the register do not move it).
			if r := in.Src1.Reg; in.Op == BREG && !in.Src1.IsImm {
				c.seg.ops = append(c.seg.ops, c.landFor(r, func(s *Sim) error {
					s.brTgt = int(int32(s.Regs[r]))
					return nil
				}))
			}
			return
		}
		pr, neg := in.Pred.Reg, in.Pred.Neg
		c.seg.ops = append(c.seg.ops, c.landFor(pr, func(s *Sim) error {
			t := (s.Regs[pr] != 0) != neg
			if t {
				s.stats.Instructions++
			}
			s.fcond0 = t
			return nil
		}))
		return
	case in.Op.IsMem():
		c.emitMem(pkt, in, w, issued)
		return
	}
	c.emitALU(in, w)
}

// memFault is the error of a faulting memory op. The packets before the
// faulting one are synchronized (emit syncs ahead of every memory
// packet); the faulting packet itself and its issued unpredicated
// instructions, which the next sync would have folded, are added here,
// so Stats at the fault equal the interpreter's.
func (s *Sim) memFault(pkt int, issued int64, what string, addr uint32, err error) error {
	s.stats.Packets++
	s.stats.Instructions += issued
	return s.errf(pkt, "%s @%#x: %v", what, addr, err)
}

// emitMem lowers a load or a store: the access, wrapped in its
// predicate if it has one. The instruction count is folded (pl.uncond)
// for the unpredicated shape and counted at run time by the wrapper,
// which also records whether a load bound for a slot ran. An op bound
// to a device handler sits alone in a packet that paid no accounting
// sync (emit): it carries what the packet owes.
func (c *fctx) emitMem(pkt int, in Inst, w *fwrite, issued int64) {
	var wr fwrite // a store plans no register write
	if w != nil {
		wr = *w
	}
	var body fop
	if dev := c.f.boundAt(pkt); dev != nil {
		body = deviceAccess(pkt, in, wr, issued, dev, facct{c.accCyc, c.accPkts, c.accInsts, c.accNop})
	} else {
		body = memAccess(pkt, in, wr, issued)
	}
	if wr.direct {
		c.known &^= 1 << wr.reg
	}
	// The MemPort (and a bound handler) may read the register file, and a
	// fault ends the run: every pending constant lands first.
	if !in.Pred.Valid {
		c.seg.ops = append(c.seg.ops, c.land(body))
		return
	}
	pr, neg, track, slot := in.Pred.Reg, in.Pred.Neg, in.Op.IsLoad() && !wr.direct, wr.slot
	c.seg.ops = append(c.seg.ops, c.land(func(s *Sim) error {
		on := (s.Regs[pr] != 0) != neg
		if track {
			s.fslotOn[slot] = on
		}
		if !on {
			return nil
		}
		s.stats.Instructions++
		return body(s)
	}))
}

// memAccess returns the op performing a load (into w's register or
// slot) or a store.
func memAccess(pkt int, in Inst, w fwrite, issued int64) fop {
	off, sz, base := uint32(in.Src2.Imm), in.Op.MemSize(), in.Src1.Reg
	immBase, immAddr := in.Src1.IsImm, uint32(in.Src1.Imm)+off
	if in.Op.IsStore() {
		data, p32 := in.Data, int32(pkt)
		return func(s *Sim) error {
			s.fusedPkt = p32
			addr := immAddr
			if !immBase {
				addr = s.Regs[base] + off
			}
			cont, err := s.mem.Store(addr, s.Regs[data], sz, s.cycle)
			if err != nil {
				return s.memFault(pkt, issued, "store", addr, err)
			}
			s.fstall += cont - s.cycle
			return nil
		}
	}
	ext, slot, dst, direct := in.Op.info().kernel, w.slot, w.reg, w.direct
	return func(s *Sim) error {
		addr := immAddr
		if !immBase {
			addr = s.Regs[base] + off
		}
		v, cont, err := s.mem.Load(addr, sz, s.cycle)
		if err != nil {
			return s.memFault(pkt, issued, "load", addr, err)
		}
		s.fstall += cont - s.cycle
		if ext != nil {
			v = ext(v, 0)
		}
		if direct {
			s.Regs[dst] = v
		} else {
			s.fslotVal[slot] = v
		}
		return nil
	}
}

// boundAccess is a memory op bound to a device handler. Its ops are
// methods, which read the fields through the receiver: a closure would
// copy every captured value in its prologue, the fault path's included.
type boundAccess struct {
	dev     DeviceAccess
	base    Reg
	off     uint32
	immBase bool
	immAddr uint32
	reg     Reg // store data, or load destination
	direct  bool
	slot    uint8
	ext     func(a, b uint32) uint32
	size    int
	pkt     int
	issued  int64
	owed    facct
}

// deviceAccess returns the op performing a bound access: the handler,
// or on its refusal the MemPort call with the same arguments. No sync
// ran before the packet, so owed is the accounting folded since the last
// one: its cycles place the access on the interpreter's clock, and a
// fault applies all of it ahead of memFault, whose premise is a
// synchronized packet start.
func deviceAccess(pkt int, in Inst, w fwrite, issued int64, dev DeviceAccess, owed facct) fop {
	b := &boundAccess{dev: dev, base: in.Src1.Reg, off: uint32(in.Src2.Imm), immBase: in.Src1.IsImm,
		reg: w.reg, direct: w.direct, slot: w.slot, ext: in.Op.info().kernel, size: in.Op.MemSize(),
		pkt: pkt, issued: issued, owed: owed}
	b.immAddr = uint32(in.Src1.Imm) + b.off
	if in.Op.IsStore() {
		b.reg = in.Data
		return b.store
	}
	return b.load
}

func (b *boundAccess) addr(s *Sim) uint32 {
	if b.immBase {
		return b.immAddr
	}
	return s.Regs[b.base] + b.off
}

func (b *boundAccess) store(s *Sim) error {
	addr, val, now := b.addr(s), s.Regs[b.reg], s.cycle+s.fstall+b.owed.cyc
	_, cont, ok := b.dev(s.mem, addr, val, now)
	if !ok {
		s.es.DeviceFallbacks++
		s.fusedPkt = int32(b.pkt)
		var err error
		if cont, err = s.mem.Store(addr, val, b.size, now); err != nil {
			b.owed.apply(s)
			return s.memFault(b.pkt, b.issued, "store", addr, err)
		}
	}
	s.fstall += cont - now
	return nil
}

func (b *boundAccess) load(s *Sim) error {
	addr, now := b.addr(s), s.cycle+s.fstall+b.owed.cyc
	v, cont, ok := b.dev(s.mem, addr, 0, now)
	if !ok {
		s.es.DeviceFallbacks++
		var err error
		if v, cont, err = s.mem.Load(addr, b.size, now); err != nil {
			b.owed.apply(s)
			return s.memFault(b.pkt, b.issued, "load", addr, err)
		}
	}
	s.fstall += cont - now
	if b.ext != nil {
		v = b.ext(v, 0)
	}
	if b.direct {
		s.Regs[b.reg] = v
	} else {
		s.fslotVal[b.slot] = v
	}
	return nil
}

// emitALU lowers a register-writing ALU op: its table kernel bound to
// the operand shape (fusedCompute), a known register read as its
// constant, inside the direct/slot and predicate shells. The unpredicated
// direct write, most of translator output, is one closure (directWrite),
// or none when every operand is a constant (fold).
func (c *fctx) emitALU(in Inst, w *fwrite) {
	k := in.Op.info().kernel
	a, b := in.args()
	a, b = c.operand(a), c.operand(b)
	if w.direct && !in.Pred.Valid && a.IsImm && b.IsImm {
		c.fold(w.reg, k(uint32(a.Imm), uint32(b.Imm)))
		return
	}
	// A pending constant of the predicate lands before it is read, and one
	// of a direct write's destination before the write (a slot write's
	// lands at its commit).
	op := aluOp(in.Pred, k, a, b, *w)
	if w.direct {
		op = c.landFor(w.reg, op)
		c.known &^= 1 << w.reg
	}
	if in.Pred.Valid {
		op = c.landFor(in.Pred.Reg, op)
	}
	c.seg.ops = append(c.seg.ops, op)
}

// aluOp returns the op computing k(a, b) into w's register or slot under
// predicate p. Unpredicated, the instruction count is folded into the
// accounting sync (pl.uncond).
func aluOp(p Pred, k func(a, b uint32) uint32, a, b Operand, w fwrite) fop {
	slot, dst := w.slot, w.reg
	if w.direct && !p.Valid {
		return directWrite(k, a, b, dst)
	}
	compute := fusedCompute(k, a, b)
	if !p.Valid {
		return func(s *Sim) error {
			s.fslotVal[slot] = compute(s)
			return nil
		}
	}
	pr, neg := p.Reg, p.Neg
	if w.direct {
		return func(s *Sim) error {
			if (s.Regs[pr] != 0) == neg {
				return nil
			}
			s.stats.Instructions++
			s.Regs[dst] = compute(s)
			return nil
		}
	}
	return func(s *Sim) error {
		if (s.Regs[pr] != 0) == neg {
			s.fslotOn[slot] = false
			return nil
		}
		s.stats.Instructions++
		s.fslotOn[slot] = true
		s.fslotVal[slot] = compute(s)
		return nil
	}
}

// fusedCompute builds the value function of kernel k on operands a and b
// (same-packet reads see packet-start register values: plan routes any
// same-packet writer of a read register through a slot, so Regs is
// stable here).
func fusedCompute(k func(a, b uint32) uint32, a, b Operand) func(s *Sim) uint32 {
	switch {
	case !a.IsImm && !b.IsImm:
		r1, r2 := a.Reg, b.Reg
		return func(s *Sim) uint32 { return k(s.Regs[r1], s.Regs[r2]) }
	case !a.IsImm:
		r1, v2 := a.Reg, uint32(b.Imm)
		return func(s *Sim) uint32 { return k(s.Regs[r1], v2) }
	case !b.IsImm:
		v1, r2 := uint32(a.Imm), b.Reg
		return func(s *Sim) uint32 { return k(v1, s.Regs[r2]) }
	}
	v := k(uint32(a.Imm), uint32(b.Imm))
	return func(*Sim) uint32 { return v }
}

// directWrite is fusedCompute's shapes writing straight to Regs[dst]:
// per op one closure call and one kernel call instead of two and one. An
// all-constant write has no op (fold), so one operand is a register.
func directWrite(k func(a, b uint32) uint32, a, b Operand, dst Reg) fop {
	switch {
	case !a.IsImm && !b.IsImm:
		r1, r2 := a.Reg, b.Reg
		return func(s *Sim) error { s.Regs[dst] = k(s.Regs[r1], s.Regs[r2]); return nil }
	case !a.IsImm:
		r1, v2 := a.Reg, uint32(b.Imm)
		return func(s *Sim) error { s.Regs[dst] = k(s.Regs[r1], v2); return nil }
	}
	v1, r2 := uint32(a.Imm), b.Reg
	return func(s *Sim) error { s.Regs[dst] = k(v1, s.Regs[r2]); return nil }
}
