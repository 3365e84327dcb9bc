package platform

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/tc32asm"
)

// Checkpoint/rollback exactness for the translated platform — which
// transitively exercises the C6x core's own hook under both execution
// engines. Two identical systems run in quantum-sized steps; one
// speculates past each boundary and rolls back; the worlds must stay
// bit-identical through the end of the run.

const ckProgram = `
	.global _start
_start:	la	a2, buf
	la	a15, 0xF0000F00
	movi	d0, 1
	movi	d1, 20
	movi	d4, 1
	movi	d3, 0
loop:	st.w	d0, 0(a2)
	ld.w	d2, 0(a2)
	add	d3, d3, d2
	mul	d0, d0, d2
	st.w	d3, 0(a15)
	addi.a	a2, a2, 4
	sub	d1, d1, d4
	jnz	d1, loop
	st.w	d3, 0(a15)
	halt
	.data
buf:	.space	128
`

func buildCk(t *testing.T, engine Engine) *System {
	t.Helper()
	f, err := tc32asm.Assemble(ckProgram)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Translate(f, core.Options{Level: core.Level3})
	if err != nil {
		t.Fatal(err)
	}
	return NewWithEngine(prog, engine)
}

// comparePlat demands observable equality of two systems.
func comparePlat(t *testing.T, label string, a, b *System) {
	t.Helper()
	if a.CPU.Regs != b.CPU.Regs {
		t.Errorf("%s: register files differ", label)
	}
	if a.Now() != b.Now() {
		t.Errorf("%s: clock %d vs %d", label, a.Now(), b.Now())
	}
	if a.CPU.Halted() != b.CPU.Halted() {
		t.Errorf("%s: halted %v vs %v", label, a.CPU.Halted(), b.CPU.Halted())
	}
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Errorf("%s: stats differ:\na: %+v\nb: %+v", label, a.Stats(), b.Stats())
	}
	// Truncation can leave an empty-but-non-nil Output; only the
	// contents are architectural.
	if len(a.Output) != len(b.Output) || (len(a.Output) > 0 && !reflect.DeepEqual(a.Output, b.Output)) {
		t.Errorf("%s: output %v vs %v", label, a.Output, b.Output)
	}
}

// TestPlatformCheckpointRollback: at every quantum boundary, checkpoint
// and speculate one quantum ahead, roll back, then advance for real —
// the speculating system must shadow its twin exactly, on both engines.
func TestPlatformCheckpointRollback(t *testing.T) {
	for _, engine := range []Engine{EngineCompiled, EngineCompiledNoFuse, EngineInterp} {
		t.Run(fmt.Sprint(engine), func(t *testing.T) {
			a, b := buildCk(t, engine), buildCk(t, engine)
			const quantum = 16
			for limit := int64(quantum); !b.CPU.Halted() && limit < 100_000; limit += quantum {
				a.Checkpoint()
				if err := a.RunUntil(limit + quantum); err != nil { // speculate ahead
					t.Fatal(err)
				}
				a.Rollback()
				if err := a.RunUntil(limit); err != nil {
					t.Fatal(err)
				}
				if err := b.RunUntil(limit); err != nil {
					t.Fatal(err)
				}
				comparePlat(t, fmt.Sprintf("limit %d", limit), a, b)
			}
			if !b.CPU.Halted() {
				t.Fatal("program did not halt")
			}
		})
	}
}

// TestPlatformCheckpointCommit: committed checkpoints are free of side
// effects.
func TestPlatformCheckpointCommit(t *testing.T) {
	a, b := buildCk(t, EngineCompiled), buildCk(t, EngineCompiled)
	const quantum = 32
	for limit := int64(quantum); !b.CPU.Halted() && limit < 100_000; limit += quantum {
		a.Checkpoint()
		if err := a.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
		a.CommitCheckpoint()
		if err := b.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
		comparePlat(t, fmt.Sprintf("limit %d", limit), a, b)
	}
}

// TestPlatformRollbackRestoresRAM pins the platform's write journal: a
// speculative quantum's stores revert byte-exactly.
func TestPlatformRollbackRestoresRAM(t *testing.T) {
	a := buildCk(t, EngineCompiled)
	if err := a.RunUntil(64); err != nil {
		t.Fatal(err)
	}
	snap := append([]byte(nil), ramOf(a)...)
	a.Checkpoint()
	if err := a.RunUntil(512); err != nil {
		t.Fatal(err)
	}
	a.Rollback()
	if !reflect.DeepEqual(snap, ramOf(a)) {
		t.Error("platform RAM not restored byte-exactly after rollback")
	}
}
