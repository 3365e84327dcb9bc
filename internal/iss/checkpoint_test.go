package iss_test

import (
	"reflect"
	"testing"

	"repro/internal/iss"
	"repro/internal/tc32asm"
)

// The checkpoint/rollback contract is exactness: after Rollback, the
// simulator is indistinguishable — architecturally and microarchitec-
// turally — from one that never ran past the checkpoint. The test
// drives two identical sims, lets one speculate and roll back, and
// compares everything observable both immediately and at the end of
// the run (a corrupted cache, pipe or memory byte would skew the
// continued timing or results).

const ckProgram = `
	.global _start
_start:	la	a2, buf
	la	a15, 0xF0000F00
	movi	d0, 1
	movi	d1, 24
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

func newCkSim(t *testing.T) *iss.Sim {
	t.Helper()
	f, err := tc32asm.Assemble(ckProgram)
	if err != nil {
		t.Fatal(err)
	}
	s, err := iss.New(f, iss.Config{CycleAccurate: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func stepN(t *testing.T, s *iss.Sim, n int) {
	t.Helper()
	for i := 0; i < n && !s.Arch.Halted; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// compareSims demands observable equality of two sims.
func compareSims(t *testing.T, label string, a, b *iss.Sim) {
	t.Helper()
	if a.Arch.R != b.Arch.R {
		t.Errorf("%s: register files differ:\n%v vs %v", label, a.Arch.R, b.Arch.R)
	}
	if a.Arch.PC != b.Arch.PC || a.Arch.Halted != b.Arch.Halted || a.Arch.Retired != b.Arch.Retired {
		t.Errorf("%s: PC/halt/retired differ: %v/%v/%v vs %v/%v/%v",
			label, a.Arch.PC, a.Arch.Halted, a.Arch.Retired, b.Arch.PC, b.Arch.Halted, b.Arch.Retired)
	}
	if a.Cycles() != b.Cycles() {
		t.Errorf("%s: cycles %d vs %d", label, a.Cycles(), b.Cycles())
	}
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Errorf("%s: stats %+v vs %+v", label, a.Stats(), b.Stats())
	}
	if !reflect.DeepEqual(a.Output(), b.Output()) {
		t.Errorf("%s: output %v vs %v", label, a.Output(), b.Output())
	}
}

// TestCheckpointRollbackExact: checkpoint, speculate, rollback — the
// sim must match a twin that never speculated, now and at run end.
func TestCheckpointRollbackExact(t *testing.T) {
	a, b := newCkSim(t), newCkSim(t)
	stepN(t, a, 30)
	stepN(t, b, 30)

	a.Checkpoint()
	stepN(t, a, 40) // speculative execution: stores, loads, output, cache fills
	a.Rollback()
	compareSims(t, "after rollback", a, b)

	// The worlds must also stay identical through the rest of the run —
	// any state the rollback missed (a memory byte, a cache line, a pipe
	// slot) would desynchronize the timing or the results downstream.
	stepN(t, a, 1000)
	stepN(t, b, 1000)
	compareSims(t, "run end", a, b)
	if !a.Arch.Halted {
		t.Fatal("program did not halt")
	}
}

// TestCheckpointCommit: a committed speculation is just execution — the
// checkpoint must be free of side effects.
func TestCheckpointCommit(t *testing.T) {
	a, b := newCkSim(t), newCkSim(t)
	stepN(t, a, 25)
	stepN(t, b, 25)
	a.Checkpoint()
	stepN(t, a, 30)
	a.CommitCheckpoint()
	stepN(t, b, 30)
	compareSims(t, "after commit", a, b)
	stepN(t, a, 1000)
	stepN(t, b, 1000)
	compareSims(t, "run end", a, b)
}

// TestCheckpointRepeated interleaves commits and rollbacks across many
// checkpoints — the quantum scheduler's actual usage pattern.
func TestCheckpointRepeated(t *testing.T) {
	a, b := newCkSim(t), newCkSim(t)
	for i := 0; !b.Arch.Halted; i++ {
		a.Checkpoint()
		stepN(t, a, 7)
		if i%3 == 1 {
			a.Rollback()
			stepN(t, a, 7) // re-run, as the scheduler would
		} else {
			a.CommitCheckpoint()
		}
		stepN(t, b, 7)
		compareSims(t, "interleaved", a, b)
	}
}

// TestRollbackRestoresMemory pins the journal directly: a speculative
// store must be reverted byte-exactly.
func TestRollbackRestoresMemory(t *testing.T) {
	f, err := tc32asm.Assemble(ckProgram)
	if err != nil {
		t.Fatal(err)
	}
	a, err := iss.New(f, iss.Config{CycleAccurate: true})
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, a, 10)
	m := a.Arch.Mem
	// A RAM word clear of the program's buffer.
	probe := f.Section(".data").Addr + 0x100
	before := m.ReadWord(probe)
	a.Checkpoint()
	if err := m.Write(0, probe, 0xDEADBEEF, 4, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadWord(probe); got != 0xDEADBEEF {
		t.Fatalf("speculative store not visible: %#x", got)
	}
	a.Rollback()
	if got := m.ReadWord(probe); got != before {
		t.Errorf("journal failed to revert store: %#x, want %#x", got, before)
	}
}
