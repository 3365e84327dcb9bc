package platform

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/iss"
	"repro/internal/tc32"
	"repro/internal/tc32asm"
)

// raProg reads its return address as data: the first program of ROADMAP
// item 13 (call f, where f does mov.d d0, ra and writes d0 to the debug
// port), its call at 0xc. f clears d0 again, so that a11 is the one
// register that differs.
const raProg = `	.text
	.global _start
_start:	la	a15, 0xF0000F00
	movi	d1, 0
	call	f
	halt
f:	mov.d	d0, ra
	st.w	d0, 0(a15)
	movi	d0, 0
	ret
`

// TestReturnAddressKnownDifference pins a known difference: translated
// code keeps a packet index in a11 where the ISS keeps the source return
// address, so a guest that reads it as data prints the return site's
// packet index, 10 at Level 0 and 22 at Level 3, where the ISS prints 16,
// and ArchState.Diff leaves a11 out so that every other comparison
// still holds. ROADMAP item 13 makes a11
// the source address; it flips this test: equal outputs, equal a11, and
// no exclusion in Diff.
func TestReturnAddressKnownDifference(t *testing.T) {
	f, err := tc32asm.Assemble(raProg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := iss.New(f, iss.Config{CycleAccurate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(ref.Output()); got != "[16]" {
		t.Fatalf("ISS prints %s, want [16]", got)
	}
	want := ref.State()
	ra := tc32.A(tc32.RA)
	for _, c := range []struct {
		level core.Level
		out   string
	}{{core.Level0, "[10]"}, {core.Level3, "[22]"}} {
		prog, err := core.Translate(f, core.Options{Level: c.level})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []Engine{EngineCompiled, EngineCompiledNoFuse, EngineInterp} {
			sys := NewWithEngine(prog, eng)
			if err := sys.Run(); err != nil {
				t.Fatalf("L%d %s: %v", c.level, eng, err)
			}
			got := sys.State()
			if out := fmt.Sprint(sys.Output); out != c.out {
				t.Errorf("L%d %s: prints %s, want %s", c.level, eng, out, c.out)
			}
			if got.R[ra] == want.R[ra] {
				t.Errorf("L%d %s: a11 = %#x as on the ISS: the known difference is gone", c.level, eng, got.R[ra])
			}
			if c.level == core.Level0 {
				got.Cycles = want.Cycles // Level 0 has no cycle model
			}
			for _, d := range got.Diff(want) {
				t.Errorf("L%d %s: %s", c.level, eng, d)
			}
		}
	}
}
