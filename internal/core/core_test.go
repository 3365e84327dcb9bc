package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/iss"
	"repro/internal/platform"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

func assemble(t *testing.T, src string) *elf32.File {
	t.Helper()
	f, err := tc32asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func runISS(t *testing.T, f *elf32.File) *iss.Sim {
	t.Helper()
	s, err := iss.New(f, iss.Config{CycleAccurate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func translateRun(t *testing.T, f *elf32.File, level core.Level) (*core.Program, *platform.System) {
	t.Helper()
	prog, err := core.Translate(f, core.Options{Level: level})
	if err != nil {
		t.Fatalf("translate L%d: %v", int(level), err)
	}
	sys := platform.New(prog)
	if err := sys.Run(); err != nil {
		t.Fatalf("platform run L%d: %v\n%s", int(level), err, prog.Listing())
	}
	return prog, sys
}

func checkOutputs(t *testing.T, name string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: output %v, want %v", name, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: out[%d] = %#x, want %#x", name, i, got[i], want[i])
		}
	}
}

const tinyProgram = `
	.global _start
_start:	movh.a	sp, 0x1010
	la	a15, 0xF0000F00
	movi	d0, 6
	movi	d1, 7
	mul	d2, d0, d1
	st.w	d2, 0(a15)
	movi	d3, 100
loop:	addi	d3, d3, -3
	jnz	d3, loop	; 100/... wait 100 not divisible by 3? 100-3k: k=34 leaves 100-102=-2 -> never zero
	halt
`

// A corrected tiny loop program (counts down by 4 from 100).
const tinyLoop = `
	.global _start
_start:	movh.a	sp, 0x1010
	la	a15, 0xF0000F00
	movi	d0, 6
	movi	d1, 7
	mul	d2, d0, d1
	st.w	d2, 0(a15)
	movi	d3, 100
loop:	addi	d3, d3, -4
	jnz	d3, loop
	st.w	d3, 0(a15)
	halt
`

func TestTranslateTinyAllLevels(t *testing.T) {
	f := assemble(t, tinyLoop)
	ref := runISS(t, f)
	for _, level := range []core.Level{core.Level0, core.Level1, core.Level2, core.Level3} {
		prog, sys := translateRun(t, f, level)
		checkOutputs(t, level.String(), sys.Output, ref.Output())
		if level == core.Level0 {
			if sys.Sync.Total != 0 {
				t.Errorf("L0 generated %d cycles, want 0", sys.Sync.Total)
			}
			continue
		}
		gen := sys.Stats().GeneratedCycles
		refCycles := ref.Stats().Cycles
		dev := float64(gen-refCycles) / float64(refCycles)
		t.Logf("%s: generated %d vs reference %d (%.1f%%), c6x %d cycles, %d packets",
			level, gen, refCycles, 100*dev, sys.Stats().C6xCycles, len(prog.C6x.Packets))
		if dev < -0.5 || dev > 0.5 {
			t.Errorf("%s: generated cycles %d wildly off reference %d", level, gen, refCycles)
		}
	}
}

func TestTranslatedWorkloadsFunctionallyEquivalent(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			f := assemble(t, w.Source)
			for _, level := range []core.Level{core.Level0, core.Level1, core.Level2, core.Level3} {
				_, sys := translateRun(t, f, level)
				checkOutputs(t, w.Name+"/"+level.String(), sys.Output, w.Expected)
			}
		})
	}
}

func TestCycleAccuracyPerLevel(t *testing.T) {
	// Figure 6's property: generated cycle counts approach the board
	// measurement as the detail level rises. Level 2 must be within 20%
	// (paper: 3–15%), level 3 within 5%.
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			f := assemble(t, w.Source)
			ref := runISS(t, f).Stats()
			devOf := func(level core.Level) float64 {
				_, sys := translateRun(t, f, level)
				gen := sys.Stats().GeneratedCycles
				d := float64(gen-ref.Cycles) / float64(ref.Cycles)
				t.Logf("%v: generated %d vs reference %d (%+.2f%%)", level, gen, ref.Cycles, 100*d)
				return d
			}
			d2 := devOf(core.Level2)
			d3 := devOf(core.Level3)
			if d2 < -0.20 || d2 > 0.20 {
				t.Errorf("level 2 deviation %.2f%% exceeds 20%%", 100*d2)
			}
			if d3 < -0.05 || d3 > 0.05 {
				t.Errorf("level 3 deviation %.2f%% exceeds 5%%", 100*d3)
			}
		})
	}
}

func TestDivisionTranslations(t *testing.T) {
	src := `
	.global _start
_start:	movh.a	sp, 0x1010
	la	a15, 0xF0000F00
	movi	d0, -100
	movi	d1, 7
	div	d2, d0, d1
	st.w	d2, 0(a15)
	rem	d3, d0, d1
	st.w	d3, 0(a15)
	movi	d4, 100
	divu	d5, d4, d1
	st.w	d5, 0(a15)
	remu	d6, d4, d1
	st.w	d6, 0(a15)
	movi	d7, 0
	div	d8, d0, d7	; divide by zero
	st.w	d8, 0(a15)
	rem	d9, d0, d7
	st.w	d9, 0(a15)
	movhi	d10, 0x8000	; MinInt32
	movi	d11, -1
	div	d12, d10, d11
	st.w	d12, 0(a15)
	rem	d13, d10, d11
	st.w	d13, 0(a15)
	halt
`
	f := assemble(t, src)
	ref := runISS(t, f)
	for _, level := range []core.Level{core.Level0, core.Level2} {
		_, sys := translateRun(t, f, level)
		checkOutputs(t, level.String(), sys.Output, ref.Output())
	}
}

func TestICacheMissCountsMatchReference(t *testing.T) {
	// The generated cache-simulation subroutine must agree with the
	// reference model: total level-3 correction cycles from cache misses
	// equal reference misses × penalty (plus branch corrections).
	w, _ := workload.ByName("gcd")
	f := assemble(t, w.Source)
	ref := runISS(t, f)
	prog, sys := translateRun(t, f, core.Level3)
	refStats := ref.Stats()

	// Sum of static cycles actually generated = total - corrections.
	// Corrections = mispredict cycles + miss penalties. We can't split
	// them directly, but level 2 gives us the mispredict part.
	_, sys2 := translateRun(t, f, core.Level2)
	staticPlusBranch := sys2.Stats().GeneratedCycles
	cacheCorr := sys.Stats().GeneratedCycles - staticPlusBranch
	wantCache := refStats.ICacheMisses * int64(prog.Desc.ICache.MissPenalty)
	if cacheCorr != wantCache {
		t.Errorf("cache correction cycles = %d, want %d (%d misses × %d)",
			cacheCorr, wantCache, refStats.ICacheMisses, prog.Desc.ICache.MissPenalty)
	}
}

func TestIndirectJumpThroughRegister(t *testing.T) {
	src := `
	.global _start
_start:	movh.a	sp, 0x1010
	la	a15, 0xF0000F00
	la	a2, target
	ji	a2
	movi	d0, 1	; skipped
	halt
target:	movi	d0, 7
	st.w	d0, 0(a15)
	halt
`
	f := assemble(t, src)
	ref := runISS(t, f)
	for _, level := range []core.Level{core.Level0, core.Level2} {
		_, sys := translateRun(t, f, level)
		checkOutputs(t, level.String(), sys.Output, ref.Output())
	}
}

func TestLevel0FasterThanLevel3(t *testing.T) {
	w, _ := workload.ByName("sieve")
	f := assemble(t, w.Source)
	_, s0 := translateRun(t, f, core.Level0)
	_, s1 := translateRun(t, f, core.Level1)
	_, s3 := translateRun(t, f, core.Level3)
	c0, c1, c3 := s0.Stats().C6xCycles, s1.Stats().C6xCycles, s3.Stats().C6xCycles
	if !(c0 < c1 && c1 < c3) {
		t.Errorf("cycle ordering violated: L0=%d L1=%d L3=%d", c0, c1, c3)
	}
	// The paper's Table 1: the cache level costs several times more.
	if c3 < 3*c1 {
		t.Errorf("L3 (%d) should cost several times L1 (%d)", c3, c1)
	}
}

func TestListingSmoke(t *testing.T) {
	f := assemble(t, tinyLoop)
	prog, err := core.Translate(f, core.Options{Level: core.Level2})
	if err != nil {
		t.Fatal(err)
	}
	l := prog.Listing()
	if len(l) == 0 {
		t.Fatal("empty listing")
	}
}

func TestBlockMetadata(t *testing.T) {
	f := assemble(t, tinyLoop)
	prog, err := core.Translate(f, core.Options{Level: core.Level1})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Blocks) < 3 {
		t.Fatalf("expected several regions, got %d", len(prog.Blocks))
	}
	for _, b := range prog.Blocks {
		if b.SrcInsts <= 0 {
			t.Errorf("region %#x has no instructions", b.SrcStart)
		}
		if b.StaticCycles <= 0 {
			t.Errorf("region %#x has no static cycles", b.SrcStart)
		}
		if got, ok := prog.PacketOfSrc[b.SrcStart]; !ok || got != b.PacketStart {
			t.Errorf("PacketOfSrc[%#x] = %d, want %d", b.SrcStart, got, b.PacketStart)
		}
	}
}
