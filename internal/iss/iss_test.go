package iss_test

import (
	"strings"
	"testing"

	"repro/internal/iss"
	"repro/internal/march"
	"repro/internal/tc32asm"
)

func run(t *testing.T, src string, cycleAccurate bool) *iss.Sim {
	t.Helper()
	f, err := tc32asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := iss.New(f, iss.Config{CycleAccurate: cycleAccurate})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestArithmetic(t *testing.T) {
	s := run(t, `
_start:		movi	d0, 7
		movi	d1, 3
		add	d2, d0, d1
		sub	d3, d0, d1
		mul	d4, d0, d1
		div	d5, d0, d1
		rem	d6, d0, d1
		la	a15, 0xF0000F00
		st.w	d2, 0(a15)
		st.w	d3, 0(a15)
		st.w	d4, 0(a15)
		st.w	d5, 0(a15)
		st.w	d6, 0(a15)
		halt
	`, false)
	want := []uint32{10, 4, 21, 2, 1}
	got := s.Output()
	if len(got) != len(want) {
		t.Fatalf("output %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLoadsStores(t *testing.T) {
	s := run(t, `
_start:		la	a2, buf
		movi	d0, -2
		st.w	d0, 0(a2)
		ld.w	d1, 0(a2)
		st.h	d0, 8(a2)
		ld.h	d2, 8(a2)
		ld.hu	d3, 8(a2)
		st.b	d0, 12(a2)
		ld.b	d4, 12(a2)
		ld.bu	d5, 12(a2)
		la	a15, 0xF0000F00
		st.w	d1, 0(a15)
		st.w	d2, 0(a15)
		st.w	d3, 0(a15)
		st.w	d4, 0(a15)
		st.w	d5, 0(a15)
		halt
		.bss
buf:		.space	16
	`, false)
	want := []uint32{0xFFFFFFFE, 0xFFFFFFFE, 0xFFFE, 0xFFFFFFFE, 0xFE}
	got := s.Output()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestCallReturnAndStack(t *testing.T) {
	s := run(t, `
		.global _start
_start:		movh.a	sp, 0x1010	; stack top
		movi	d0, 5
		call	double
		la	a15, 0xF0000F00
		st.w	d0, 0(a15)
		halt
double:		addi.a	sp, sp, -4
		st.w	d0, 0(sp)
		ld.w	d1, 0(sp)
		add	d0, d0, d1
		addi.a	sp, sp, 4
		ret
	`, false)
	if got := s.Output(); len(got) != 1 || got[0] != 10 {
		t.Errorf("output = %v, want [10]", got)
	}
}

func TestLoopCycleAccuracy(t *testing.T) {
	// A tight backward loop: the branch is predicted taken, so each
	// iteration should cost addi(1) + jnz(2) = 3 cycles, with a
	// mispredict (+3 instead of 2) on exit.
	s := run(t, `
_start:		movi	d0, 10
loop:		addi	d0, d0, -1
		jnz	d0, loop
		halt
	`, true)
	st := s.Stats()
	if st.Retired != 1+20+1 {
		t.Errorf("retired = %d, want 22", st.Retired)
	}
	if st.Mispredicts != 1 {
		t.Errorf("mispredicts = %d, want 1 (loop exit)", st.Mispredicts)
	}
	if st.CondBranches != 10 || st.TakenCond != 9 {
		t.Errorf("cond=%d taken=%d, want 10/9", st.CondBranches, st.TakenCond)
	}
	// Cycle breakdown: movi 1, 9×(addi 1 + jnz-taken 2), (addi 1 +
	// jnz-mispredict 3), halt 1, plus cold icache misses.
	wantCore := int64(1 + 9*3 + 4 + 1)
	misses := st.ICacheMisses
	want := wantCore + misses*int64(s.Desc().ICache.MissPenalty)
	if st.Cycles != want {
		t.Errorf("cycles = %d, want %d (core %d + %d misses)", st.Cycles, want, wantCore, misses)
	}
}

func TestICacheColdMisses(t *testing.T) {
	s := run(t, `
_start:		nop
		nop
		nop
		nop
		halt
	`, true)
	st := s.Stats()
	// 5 instructions × 4 bytes = 20 bytes = 3 cache lines (8-byte lines).
	if st.ICacheMisses != 3 {
		t.Errorf("misses = %d, want 3", st.ICacheMisses)
	}
	if st.ICacheHits != 2 {
		t.Errorf("hits = %d, want 2", st.ICacheHits)
	}
}

func TestFunctionalModeCountsInstructions(t *testing.T) {
	s := run(t, `
_start:		movi	d0, 3
		addi	d0, d0, 4
		halt
	`, false)
	st := s.Stats()
	if st.Cycles != st.Retired {
		t.Errorf("functional mode: cycles %d != retired %d", st.Cycles, st.Retired)
	}
}

func TestIOWaitStates(t *testing.T) {
	src := `
_start:		la	a15, 0xF0000F00
		st.w	d0, 0(a15)
		halt
	`
	fast, slow := run(t, src, false), run(t, src, true)
	// The I/O store must cost extra wait-state cycles in accurate mode.
	if slow.Stats().Cycles <= fast.Stats().Cycles {
		t.Error("cycle-accurate run should cost more than functional count")
	}
}

func TestMemoryFault(t *testing.T) {
	f, err := tc32asm.Assemble(`
_start:		movh.a	a2, 0x4000
		ld.w	d0, 0(a2)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := iss.New(f, iss.Config{})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Run()
	if err == nil || !strings.Contains(err.Error(), "memory fault") {
		t.Errorf("err = %v, want memory fault", err)
	}
}

func TestWriteToCodeFaults(t *testing.T) {
	f, err := tc32asm.Assemble(`
_start:		movh.a	a2, 0
		st.w	d0, 0(a2)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := iss.New(f, iss.Config{})
	if err := s.Run(); err == nil {
		t.Error("writing .text should fault")
	}
}

func TestInstructionLimit(t *testing.T) {
	f, err := tc32asm.Assemble("loop:\tj loop\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := iss.New(f, iss.Config{MaxInstructions: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil {
		t.Error("infinite loop should hit the instruction limit")
	}
}

func TestJumpIndirect(t *testing.T) {
	s := run(t, `
_start:		la	a2, target
		ji	a2
		movi	d0, 1	; skipped
target:		movi	d0, 7
		la	a15, 0xF0000F00
		st.w	d0, 0(a15)
		halt
	`, false)
	if got := s.Output(); len(got) != 1 || got[0] != 7 {
		t.Errorf("output = %v, want [7]", got)
	}
}

func TestShortForms(t *testing.T) {
	s := run(t, `
_start:		movi16	d15, 3
		movi16	d0, 0
loop:		addi16	d0, 2
		addi16	d15, -1
		jnz16	loop
		mov16	d1, d0
		la	a15, 0xF0000F00
		st.w	d1, 0(a15)
		halt
	`, true)
	if got := s.Output(); len(got) != 1 || got[0] != 6 {
		t.Errorf("output = %v, want [6]", got)
	}
}

func TestDualIssueVisible(t *testing.T) {
	// An IP/LS pair-rich program should have CPI < 1 per instruction pair.
	pairs := `
_start:		movi	d0, 1
		lea	a2, 0(a3)
		movi	d1, 2
		lea	a4, 0(a5)
		movi	d2, 3
		lea	a6, 0(a7)
		halt
	`
	s := run(t, pairs, true)
	st := s.Stats()
	core := st.Cycles - st.ICacheMisses*int64(s.Desc().ICache.MissPenalty)
	// 3 pairs (1 cycle each) + halt = 4 cycles.
	if core != 4 {
		t.Errorf("core cycles = %d, want 4 (dual issue)", core)
	}
}

func TestCustomDesc(t *testing.T) {
	d := march.Default()
	d.ICache.MissPenalty = 0
	f, _ := tc32asm.Assemble("_start: nop\n halt\n")
	s, err := iss.New(f, iss.Config{Desc: d, CycleAccurate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Cycles; got != 2 {
		t.Errorf("cycles = %d, want 2 with zero miss penalty", got)
	}
}
