package march

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tc32"
)

func TestDefaultDesc(t *testing.T) {
	d := Default()
	if d.ICache.Size() != 512 {
		t.Errorf("I-cache size = %d, want 512", d.ICache.Size())
	}
	if d.ClockHz != 48_000_000 {
		t.Errorf("clock = %d, want 48 MHz", d.ClockHz)
	}
	if !d.PredictTaken(tc32.Inst{Op: tc32.JEQ, Imm: -4}) {
		t.Error("backward branch should predict taken")
	}
	if d.PredictTaken(tc32.Inst{Op: tc32.JEQ, Imm: 8}) {
		t.Error("forward branch should predict not taken")
	}
}

func TestBranchCostModel(t *testing.T) {
	d := Default()
	// predicted taken (backward), actually taken: base cost, no correction
	if c := d.CondBranchCost(true, true); c != 2 {
		t.Errorf("taken-ok cost = %d, want 2", c)
	}
	if c := d.CondBranchCorrection(true, true); c != 0 {
		t.Errorf("taken-ok correction = %d, want 0", c)
	}
	// predicted taken, actually not taken: mispredict
	if c := d.CondBranchCost(true, false); c != 3 {
		t.Errorf("backward mispredict cost = %d, want 3", c)
	}
	if c := d.CondBranchCorrection(true, false); c != 1 {
		t.Errorf("backward mispredict correction = %d, want 1", c)
	}
	// predicted not taken, actually taken: mispredict
	if c := d.CondBranchCorrection(false, true); c != 2 {
		t.Errorf("forward mispredict correction = %d, want 2", c)
	}
	if c := d.CondBranchCorrection(false, false); c != 0 {
		t.Errorf("not-taken-ok correction = %d, want 0", c)
	}
}

func mkInst(op tc32.Op, rd, rs1, rs2 uint8) *tc32.Inst {
	return &tc32.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}
}

func TestPipeSingleIssue(t *testing.T) {
	p := NewPipe(Default())
	// Three dependent adds: strictly serial, one per cycle.
	p.Issue(mkInst(tc32.ADD, 1, 0, 0))
	p.Issue(mkInst(tc32.ADD, 2, 1, 1))
	p.Issue(mkInst(tc32.ADD, 3, 2, 2))
	if got := p.Cycles(); got != 3 {
		t.Errorf("3 dependent adds = %d cycles, want 3", got)
	}
}

func TestPipePairing(t *testing.T) {
	p := NewPipe(Default())
	// Independent IP + LS pair should issue in one cycle.
	p.Issue(mkInst(tc32.ADD, 1, 0, 0)) // IP
	p.Issue(mkInst(tc32.LEA, 2, 3, 0)) // LS, independent
	if got := p.Cycles(); got != 1 {
		t.Errorf("IP+LS pair = %d cycles, want 1", got)
	}
	// A second LS cannot triple-issue.
	p.Issue(mkInst(tc32.LEA, 4, 5, 0))
	if got := p.Cycles(); got != 2 {
		t.Errorf("pair + LS = %d cycles, want 2", got)
	}
}

func TestPipePairingBlockedByDependency(t *testing.T) {
	p := NewPipe(Default())
	p.Issue(mkInst(tc32.ADD, 1, 0, 0))    // IP writes d1
	p.Issue(mkInst(tc32.MOVD2A, 2, 1, 0)) // LS reads d1 -> cannot pair
	if got := p.Cycles(); got != 2 {
		t.Errorf("dependent IP->LS = %d cycles, want 2", got)
	}
}

func TestPipeLSThenIPDoesNotPair(t *testing.T) {
	p := NewPipe(Default())
	p.Issue(mkInst(tc32.LEA, 2, 3, 0)) // LS first
	p.Issue(mkInst(tc32.ADD, 1, 0, 0)) // IP second: no pairing (IP must come first)
	if got := p.Cycles(); got != 2 {
		t.Errorf("LS,IP = %d cycles, want 2", got)
	}
}

func TestPipeLoadUse(t *testing.T) {
	p := NewPipe(Default())
	p.Issue(&tc32.Inst{Op: tc32.LDW, Rd: 1, Rs1: 0}) // load d1
	p.Issue(mkInst(tc32.ADD, 2, 1, 1))               // uses d1: 1 bubble
	if got := p.Cycles(); got != 3 {
		t.Errorf("load-use = %d cycles, want 3 (issue 0, stall, issue 2)", got)
	}
	p.Reset()
	p.Issue(&tc32.Inst{Op: tc32.LDW, Rd: 1, Rs1: 0})
	p.Issue(mkInst(tc32.ADD, 2, 3, 3)) // independent: no stall
	if got := p.Cycles(); got != 2 {
		t.Errorf("load + independent = %d cycles, want 2", got)
	}
}

func TestPipeMulLatency(t *testing.T) {
	p := NewPipe(Default())
	p.Issue(mkInst(tc32.MUL, 1, 0, 0))
	p.Issue(mkInst(tc32.ADD, 2, 1, 1)) // dependent on mul: issues at 2
	if got := p.Cycles(); got != 3 {
		t.Errorf("mul-use = %d cycles, want 3", got)
	}
}

func TestPipeDivBlocks(t *testing.T) {
	p := NewPipe(Default())
	p.Issue(mkInst(tc32.DIV, 1, 0, 0))
	if got := p.Cycles(); got != 18 {
		t.Errorf("div = %d cycles, want 18", got)
	}
	p.Issue(mkInst(tc32.ADD, 2, 3, 3)) // independent, but divider blocks issue
	if got := p.Cycles(); got != 19 {
		t.Errorf("div + add = %d cycles, want 19", got)
	}
}

func TestPipeControlAndStall(t *testing.T) {
	p := NewPipe(Default())
	is := p.Issue(&tc32.Inst{Op: tc32.JEQ, Rs1: 0, Rs2: 1, Imm: -4})
	p.Control(is, 2) // predicted-taken cost
	if got := p.Cycles(); got != 2 {
		t.Errorf("taken branch = %d cycles, want 2", got)
	}
	p.Stall(8) // icache miss penalty
	if got := p.Cycles(); got != 10 {
		t.Errorf("after stall = %d cycles, want 10", got)
	}
	p.Issue(mkInst(tc32.ADD, 1, 0, 0))
	if got := p.Cycles(); got != 11 {
		t.Errorf("after add = %d cycles, want 11", got)
	}
}

func TestPipeBranchNeverPairs(t *testing.T) {
	p := NewPipe(Default())
	p.Issue(mkInst(tc32.ADD, 1, 0, 0)) // IP, opens pair slot
	is := p.Issue(&tc32.Inst{Op: tc32.JZ, Rs1: 3})
	if is != 1 {
		t.Errorf("branch issued at %d, want 1 (no pairing)", is)
	}
}

func TestPipeDeterminism(t *testing.T) {
	// Same instruction stream must always produce the same cycle count.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		insts := make([]tc32.Inst, n)
		ops := []tc32.Op{tc32.ADD, tc32.SUB, tc32.MUL, tc32.LDW, tc32.STW, tc32.LEA, tc32.MOVI, tc32.MOVHA}
		for i := range insts {
			op := ops[r.Intn(len(ops))]
			insts[i] = tc32.Inst{Op: op, Rd: uint8(r.Intn(16)), Rs1: uint8(r.Intn(16)), Rs2: uint8(r.Intn(16))}
		}
		run := func() int64 {
			p := NewPipe(Default())
			for _, in := range insts {
				p.Issue(&in)
			}
			return p.Cycles()
		}
		a, b := run(), run()
		if a != b {
			return false
		}
		// Sanity: cycles within [ceil(n/2), sum of worst latencies].
		if a < int64((n+1)/2) || a > int64(n*20) {
			t.Logf("cycle count %d out of sane range for %d insts", a, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(CacheGeom{Sets: 4, Ways: 2, LineBytes: 16, MissPenalty: 8})
	if c.Access(0x100) {
		t.Error("first access should miss")
	}
	if !c.Access(0x104) {
		t.Error("same line should hit")
	}
	if !c.Access(0x10C) {
		t.Error("same line should hit")
	}
	if c.Access(0x200) {
		t.Error("different line should miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", c.Hits, c.Misses)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	// 1 set version for clarity: 2 ways, lines map to set 0 when
	// addr/16 % 4 == 0.
	c := NewCache(CacheGeom{Sets: 4, Ways: 2, LineBytes: 16, MissPenalty: 8})
	a0 := uint32(0x000) // set 0
	a1 := uint32(0x040) // set 0 (0x40/16 = 4, 4%4 = 0)
	a2 := uint32(0x080) // set 0
	c.Access(a0)
	c.Access(a1)
	// Set 0 now holds a0 (older) and a1 (MRU). Touch a0 so a1 is LRU.
	c.Access(a0)
	// Insert a2: must evict a1.
	c.Access(a2)
	if !c.Probe(a0) {
		t.Error("a0 should survive (was MRU)")
	}
	if c.Probe(a1) {
		t.Error("a1 should have been evicted (was LRU)")
	}
	if !c.Probe(a2) {
		t.Error("a2 should be resident")
	}
}

func TestCacheGeometryHelpers(t *testing.T) {
	c := NewCache(CacheGeom{Sets: 16, Ways: 2, LineBytes: 16, MissPenalty: 8})
	addr := uint32(0x12345678)
	if got := c.LineAddr(addr); got != 0x12345670 {
		t.Errorf("LineAddr = %#x", got)
	}
	if got := c.Set(addr); got != uint32((0x12345678>>4)&15) {
		t.Errorf("Set = %d", got)
	}
	if got := c.Tag(addr); got != 0x12345678>>8 {
		t.Errorf("Tag = %#x", got)
	}
}

// naiveCache is an obviously-correct fully associative-per-set LRU model
// used as the property-test oracle.
type naiveCache struct {
	geom CacheGeom
	sets [][]uint32 // per set: line addresses, most recent first
}

func newNaive(g CacheGeom) *naiveCache {
	return &naiveCache{geom: g, sets: make([][]uint32, g.Sets)}
}

func (n *naiveCache) access(addr uint32) bool {
	line := addr &^ uint32(n.geom.LineBytes-1)
	set := int(line / uint32(n.geom.LineBytes) % uint32(n.geom.Sets))
	s := n.sets[set]
	for i, l := range s {
		if l == line {
			copy(s[1:i+1], s[:i])
			s[0] = line
			return true
		}
	}
	s = append([]uint32{line}, s...)
	if len(s) > n.geom.Ways {
		s = s[:n.geom.Ways]
	}
	n.sets[set] = s
	return false
}

func TestCacheMatchesNaiveModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := CacheGeom{Sets: 1 << (1 + r.Intn(4)), Ways: 1 + r.Intn(4), LineBytes: 16, MissPenalty: 8}
		c := NewCache(g)
		n := newNaive(g)
		for k := 0; k < 500; k++ {
			addr := uint32(r.Intn(1 << 12))
			if c.Access(addr) != n.access(addr) {
				t.Logf("divergence at access %d addr %#x geom %+v", k, addr, g)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(CacheGeom{Sets: 2, Ways: 2, LineBytes: 16, MissPenalty: 8})
	c.Access(0)
	c.Access(16)
	c.Reset()
	if c.Hits != 0 || c.Misses != 0 {
		t.Error("reset should clear stats")
	}
	if c.Probe(0) {
		t.Error("reset should invalidate lines")
	}
}
