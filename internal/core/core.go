package core

import (
	"fmt"

	"repro/internal/c6x"
	"repro/internal/elf32"
	"repro/internal/march"
	"repro/internal/tc32"
)

// Level is the cycle-accuracy detail level of the generated code
// (Section 3.2 of the paper).
type Level int

// Detail levels, in the paper's order.
const (
	// Level0 is purely functional translation: no cycle annotation at all
	// ("C6x w/o cycle inf." in Figure 5).
	Level0 Level = iota
	// Level1 annotates each basic block with its statically predicted
	// cycle count ("C6x with cycle inf.").
	Level1
	// Level2 adds dynamic correction of the static branch prediction
	// ("C6x branch pred.").
	Level2
	// Level3 additionally simulates the instruction cache with cache
	// analysis blocks ("C6x cache").
	Level3
)

// String names the level as in the paper's figures.
func (l Level) String() string {
	switch l {
	case Level0:
		return "C6x w/o cycle info"
	case Level1:
		return "C6x with cycle info"
	case Level2:
		return "C6x branch prediction"
	case Level3:
		return "C6x caches"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Platform memory-map constants of the emulation system.
const (
	// SyncBase is the synchronization device in the FPGA fabric.
	SyncBase = 0x8000_0000
	// SyncStart: writing n starts generation of n cycles; reading blocks
	// until the generation has drained (Figure 2).
	SyncStart = SyncBase + 0
	// SyncAdd: writing c adds c correction cycles to the running
	// generation (the correction block of Figure 3).
	SyncAdd = SyncBase + 4
	// SyncTotal reads the total number of generated cycles (low word).
	SyncTotal = SyncBase + 8
	// CacheTableBase is the reserved memory holding the simulated
	// instruction cache's tag/valid/LRU words ("space reserved at the end
	// of the translated program" in Section 3.4.2; we place it in a
	// dedicated emulation RAM region).
	CacheTableBase = 0x2000_0000

	// Interrupt support registers of the platform (next to the sync
	// device; visible only to generated code, never to source programs).
	// The source-level interrupt state of a translated core — IE, the
	// shadow PC, the in-handler flag — lives on the platform side, which
	// also owns delivery: at a region boundary whose region starts at a
	// basic-block leader, a pending line redirects the C6x to the
	// translated handler (see internal/platform).
	//
	// IRQCtl: writing 1 is the source program's ei, 0 its di.
	IRQCtl = SyncBase + 0x10
	// IRQRet: written by the translated reti just before it branches
	// through RegIRQShadow; the platform restores IE and clears the
	// in-handler flag (a write outside a handler is an error, exactly
	// like the ISS's spurious reti).
	IRQRet = SyncBase + 0x14
	// IRQWait: written by the translated wfi; the platform idles the
	// emulated clock until the interrupt line delivers.
	IRQWait = SyncBase + 0x18
)

// RegIRQShadow is the reserved C6x register holding the shadow return
// packet index: interrupt entry writes the interrupted region's packet
// index here, and the translated reti branches through it (BREG). It is
// reserved alongside the translator's other fixed registers and never
// allocated to generated code.
var RegIRQShadow = c6x.B(27)

// RegCorrCycles is the reserved C6x register accumulating correction
// cycles (cache-miss penalties, branch-prediction corrections) not yet
// flushed into the sync device. The platform reads it to stamp bus
// transactions at the reference simulator's convention: the instruction
// issue cycle includes penalties the translated code only flushes at the
// region end.
var RegCorrCycles = regCorr

// RegSyncBase is the reserved C6x register holding SyncBase: every access
// of the generated code to the sync device and the interrupt registers
// is based on it. The platform recognizes the sync device's accesses by
// it (and their offset) to bind them at fuse time.
var RegSyncBase = regSyncBase

// Reserved C6x registers. TC32 data registers d0..d15 map to A0..A15 and
// address registers a0..a15 to B0..B15; everything above is owned by the
// translator.
var (
	regTempA = []c6x.Reg{c6x.A(16), c6x.A(17), c6x.A(18), c6x.A(19), c6x.A(20), c6x.A(21), c6x.A(22), c6x.A(23)}
	regTempB = []c6x.Reg{c6x.B(16), c6x.B(17), c6x.B(18), c6x.B(19), c6x.B(20), c6x.B(21), c6x.B(22), c6x.B(23)}

	// Routine argument/scratch registers (runtime routines are leaf and
	// register-only, so no stack is needed).
	regArg0    = c6x.A(24)
	regArg1    = c6x.A(25)
	regScratch = []c6x.Reg{c6x.A(26), c6x.A(27), c6x.A(28), c6x.A(29)}
	regBScr0   = c6x.B(24)
	regBScr1   = c6x.B(25)

	regLink      = c6x.B(26) // runtime-routine return packet index
	regCacheTab  = c6x.B(28) // cache table base (level 3)
	regSyncBase  = c6x.B(29) // sync device base
	regCorr      = c6x.B(30) // cycle correction counter
	regWaitDummy = c6x.A(31) // sync wait load destination (never read)
)

// ProbeRegs is the register convention of the 1- and 2-way cache-probe
// routine (emitProbeRoutine): the caller passes the expected tag/valid
// word and the set's byte offset; the routine leaves the set's address,
// the loaded words and its compare results behind and adds the miss
// penalty to Corr.
var ProbeRegs = struct {
	Tag, SetOff, Table, Addr, Corr c6x.Reg
	// Word, Word1 receive the words the routine loaded (and the LRU value
	// it stored); Cmp, Cmp1 its compare results.
	Word, Word1, Cmp, Cmp1 c6x.Reg
}{
	Tag: regArg0, SetOff: regArg1, Table: regCacheTab, Addr: regBScr0, Corr: regCorr,
	Word: regScratch[0], Word1: regScratch[1], Cmp: regScratch[2], Cmp1: regScratch[3],
}

// FusedConstRegs returns the registers that hold return-site packet
// indices: the runtime-routine link register and the source
// return-address register. Calls park the translated return packet
// index in them as SymImm MVK immediates, and the superblock fuser
// (c6x.Fuse) makes those packets the dispatch table of every indirect
// branch through the register. RegIRQShadow is deliberately absent: its
// value is written by the platform at interrupt entry, not loaded by
// the program, so the translated reti has no table and leaves fused
// code at the interrupted leader.
func FusedConstRegs() []c6x.Reg {
	return []c6x.Reg{regLink, aR(tc32.RA)}
}

// Options configure a translation.
type Options struct {
	Level Level
	// Desc is the source-processor description (pipelines, caches,
	// branch costs); nil selects march.Default(). In the full tool flow
	// this comes from the XML description (internal/isadesc).
	Desc *march.Desc
	// InstructionOriented translates every instruction as its own cycle
	// region (cycle generation per instruction). This is the second
	// translation used by the debugger for single-stepping (Section 3.5).
	InstructionOriented bool
	// InlineCacheProbe inlines the cache-simulation code into large
	// basic blocks instead of calling the subroutine (Section 3.4.2,
	// "In large basic blocks, this code can be included into the basic
	// block"). Blocks with at least InlineCacheThreshold instructions
	// use the inline form.
	InlineCacheProbe     bool
	InlineCacheThreshold int
	// SingleDrainCorrection flushes correction cycles through the sync
	// device's ADD register so one blocking read drains everything. The
	// default (false) is the paper's Figure 3 shape: wait for the base
	// generation, start a separate correction generation, wait again —
	// costlier per block, and part of why the branch-prediction and cache
	// levels slow down in Table 1. The single-drain form is this
	// reproduction's improvement, measured by the ablation bench.
	SingleDrainCorrection bool
}

// BlockInfo describes one translated cycle region (one source basic block,
// or one instruction in instruction-oriented mode).
type BlockInfo struct {
	SrcStart     uint32 // first source instruction address
	SrcEnd       uint32 // one past the last source instruction
	SrcInsts     int    // number of source instructions
	StaticCycles int64  // statically predicted source cycles (n)
	PacketStart  int    // first packet of the region
	CondBranch   bool   // region ends with a conditional branch
	CABs         int    // cache analysis blocks (level 3)
	// Leader marks a region that starts at a source basic-block leader
	// (tc32.Leaders). Regions produced by I/O or instruction-oriented
	// splitting are not leaders. Leader region starts are the translated
	// program's interrupt delivery points: the reference simulator
	// checks the line at exactly the same set, which is what makes a
	// pending interrupt land at the identical source cycle in both.
	Leader bool
}

// PacketRange is the packets [Entry, End) of a runtime routine.
type PacketRange struct{ Entry, End int }

// Program is a translated program plus its metadata.
type Program struct {
	C6x   *c6x.Program
	Level Level
	Desc  *march.Desc

	// Blocks in layout order.
	Blocks []BlockInfo
	// PacketOfSrc maps a source basic-block start address to its first
	// packet (used by the debugger and by indirect-jump lookup).
	PacketOfSrc map[uint32]int
	// SrcOfPacket is the reverse map for block starts.
	SrcOfPacket map[int]uint32

	// TextAddr/TextImage is the source code image (mapped read-only on
	// the platform so constant loads from .text work).
	TextAddr  uint32
	TextImage []byte
	// DataAddr/DataImage is the initialized data image to load.
	DataAddr  uint32
	DataImage []byte
	// BSS extent (zero-initialized).
	BssAddr uint32
	BssSize uint32

	// CacheTableWords is the size of the simulated I-cache state in
	// 32-bit words (level 3). 1- and 2-way geometries use the compact
	// per-set layout [way0, way1, lru]; wider geometries use
	// [tag0..tagN-1, age0..ageN-1] with CacheTableInit holding the
	// initial words (the true-LRU ages must start as a permutation).
	CacheTableWords int
	// CacheTableInit is the initial contents of the cache table (empty =
	// all zeros, the 1-/2-way case). The platform loads it into the
	// reserved emulation RAM before the run.
	CacheTableInit []uint32

	// ProbeRoutine is where the generated cache-simulation subroutine
	// (emitProbeRoutine, for Desc.ICache) sits in C6x.Packets; zero when
	// the program has none (below Level3, or every probe inlined). The
	// routine is leaf, entered only at Entry and left only through the
	// link register, which is what lets the platform hand the fuser its
	// meaning as one host function (platform.probeIntrinsics).
	ProbeRoutine PacketRange

	// TotalSrcInsts is the number of source instructions translated.
	TotalSrcInsts int

	// IRQEntry is the source address of the `__irq` interrupt handler
	// (0 = the program has no handler and interrupts are undeliverable).
	IRQEntry uint32
}

// Translate translates an assembled TC32 ELF image.
func Translate(f *elf32.File, opts Options) (*Program, error) {
	if opts.Desc == nil {
		opts.Desc = march.Default()
	}
	if opts.InlineCacheThreshold == 0 {
		opts.InlineCacheThreshold = 24
	}
	if opts.Level < Level0 || opts.Level > Level3 {
		return nil, fmt.Errorf("core: invalid level %d", int(opts.Level))
	}
	t := &translator{opts: opts, desc: opts.Desc}
	return t.run(f)
}

// translator carries the per-run state through the pipeline stages.
type translator struct {
	opts Options
	desc *march.Desc

	entry    uint32
	irqEntry uint32      // `__irq` vector (0 = none)
	insts    []tc32.Inst // decoded source instructions
	index    map[uint32]int
	leaders  map[uint32]bool // basic-block leader set (tc32.Leaders)
	blocks   []*srcBlock
	blkAt    map[uint32]int // source addr -> blocks index

	regions *regionAnalysis

	tblocks     []*tblock
	labelTarget []int // label id -> tblock index (-1 until defined)
	blockLabel  []int // source block index -> label id
	routines    map[string]int
	probeTBs    [2]int // tblock index range of the cache-probe routine (empty = none)

	prog *Program
}

func (t *translator) run(f *elf32.File) (*Program, error) {
	text := f.Section(".text")
	if text == nil {
		return nil, fmt.Errorf("core: no .text section in object file")
	}
	t.entry = f.Entry
	if err := t.decode(text.Data, text.Addr, f.Entry); err != nil {
		return nil, err
	}
	// The `__irq` symbol is the interrupt vector: an extra entry point
	// reachable only through interrupt delivery, so it must be seeded as
	// a block leader (and into the region analysis) explicitly.
	if sym, ok := f.Symbol("__irq"); ok {
		if _, isInst := t.index[sym.Value]; !isInst {
			return nil, fmt.Errorf("core: __irq vector %#x is not an instruction", sym.Value)
		}
		t.irqEntry = sym.Value
	}
	if err := t.buildBlocks(f.Entry); err != nil {
		return nil, err
	}
	t.analyzeRegions()
	t.splitIOBlocks()
	t.calcCycles()
	if err := t.lowerAll(); err != nil {
		return nil, err
	}
	prog, err := t.link()
	if err != nil {
		return nil, err
	}
	prog.Level = t.opts.Level
	prog.Desc = t.desc
	prog.TotalSrcInsts = len(t.insts)
	prog.IRQEntry = t.irqEntry
	if t.irqEntry != 0 {
		if _, ok := prog.PacketOfSrc[t.irqEntry]; !ok {
			return nil, fmt.Errorf("core: __irq vector %#x has no translated region", t.irqEntry)
		}
	}
	prog.TextAddr = text.Addr
	prog.TextImage = append([]byte(nil), text.Data...)
	if data := f.Section(".data"); data != nil {
		prog.DataAddr = data.Addr
		prog.DataImage = append([]byte(nil), data.Data...)
	}
	if bss := f.Section(".bss"); bss != nil {
		prog.BssAddr = bss.Addr
		prog.BssSize = bss.Size
	}
	if t.opts.Level >= Level3 {
		g := t.desc.ICache
		if g.Ways <= 2 {
			prog.CacheTableWords = g.Sets * (g.Ways + 1)
		} else {
			prog.CacheTableWords = g.Sets * 2 * g.Ways
			prog.CacheTableInit = make([]uint32, prog.CacheTableWords)
			for s := 0; s < g.Sets; s++ {
				base := s * 2 * g.Ways
				for w := 0; w < g.Ways; w++ {
					// Ages start as the same permutation the reference
					// model resets to (march.Cache.Reset): way index.
					prog.CacheTableInit[base+g.Ways+w] = uint32(w)
				}
			}
		}
	}
	return prog, nil
}
