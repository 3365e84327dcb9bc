package platform

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"repro/internal/c6x"
	"repro/internal/core"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// Dispatcher-exit coverage for the superblock engine: the fused hot
// path must leave its loops only at the documented exits — interrupt
// delivery points, quantum boundaries, checkpoint/rollback — and every
// exit must land in a state the unfused engines continue from
// bit-identically.

// TestFusedEngineSelection pins the engine plumbing and proves that
// -nofuse is not a vacuous reference: on every workload and level
// EngineCompiledNoFuse retires every packet in fused code, at one packet
// per segment, with no intrinsic op, while EngineCompiled attaches
// longer segments and EngineInterp attaches nothing.
func TestFusedEngineSelection(t *testing.T) {
	for _, w := range workload.All() {
		f, err := tc32asm.Assemble(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range []core.Level{core.Level0, core.Level1, core.Level2, core.Level3} {
			label := fmt.Sprintf("%s/L%d", w.Name, int(level))
			prog, err := core.Translate(f, core.Options{Level: level})
			if err != nil {
				t.Fatal(err)
			}
			// FuseCached hands back the memoized builds NewWithEngine attached.
			build := func(engine Engine, segPkts int) *c6x.FusedProgram {
				sys := NewWithEngine(prog, engine)
				if sys.Engine() != engine || !sys.CPU.Fused() {
					t.Fatalf("%s %v: engine=%v fused=%v", label, engine, sys.Engine(), sys.CPU.Fused())
				}
				fp, err := c6x.FuseCached(prog.C6x, c6x.FuseConfig{MaxSegPackets: segPkts})
				if err != nil {
					t.Fatal(err)
				}
				return fp
			}
			if fp := build(EngineCompiled, 0); fp.LongestSegment() <= 1 {
				t.Errorf("%s: fused build's longest segment holds %d packets", label, fp.LongestSegment())
			}
			if fp := build(EngineCompiledNoFuse, 1); fp.LongestSegment() != 1 {
				t.Errorf("%s: unfused build's longest segment holds %d packets, want 1", label, fp.LongestSegment())
			}
			nofuse := NewWithEngine(prog, EngineCompiledNoFuse)
			if err := nofuse.Run(); err != nil {
				t.Fatal(err)
			}
			if es := nofuse.CPU.EngineStats(); es.Packets == 0 || es.GenericShare() != 0 || es.IntrinsicRuns != 0 {
				t.Errorf("%s: -nofuse ran %d of %d packets on the interpreter and %d intrinsic ops, want 0 and 0: %+v",
					label, es.GenericPackets, es.Packets, es.IntrinsicRuns, es)
			}
			if interp := NewWithEngine(prog, EngineInterp); interp.Engine() != EngineInterp || interp.CPU.Fused() {
				t.Fatalf("%s: EngineInterp attached a fused program", label)
			}
		}
	}
}

// TestFusedVsNoFuseWorkloads: the fused engine against its like-for-like
// reference (compiled, fusion off) across every workload and level —
// stats, output, registers and final cycle all bit-identical.
func TestFusedVsNoFuseWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		for _, level := range []core.Level{core.Level0, core.Level1, core.Level2, core.Level3} {
			t.Run(fmt.Sprintf("%s/L%d", w.Name, int(level)), func(t *testing.T) {
				f, err := tc32asm.Assemble(w.Source)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := core.Translate(f, core.Options{Level: level})
				if err != nil {
					t.Fatal(err)
				}
				a := NewWithEngine(prog, EngineCompiled)
				if !a.CPU.Fused() {
					t.Skip("program declined fusion")
				}
				if err := a.Run(); err != nil {
					t.Fatalf("fused: %v", err)
				}
				b := NewWithEngine(prog, EngineCompiledNoFuse)
				if err := b.Run(); err != nil {
					t.Fatalf("nofuse: %v", err)
				}
				comparePlat(t, "fused-vs-nofuse", a, b)
				if a.CPU.Regs != b.CPU.Regs {
					t.Fatal("register-file divergence")
				}
				if a.CPU.Cycle() != b.CPU.Cycle() {
					t.Fatalf("c6x cycle divergence: %d vs %d", a.CPU.Cycle(), b.CPU.Cycle())
				}
			})
		}
	}
}

// TestFusedIRQDeferredToBoundary: an interrupt asserted mid-superblock
// is delivered at the next delivery-point boundary — the identical
// cycle the unfused engines pick, pinned through the whole post-handler
// state. The injection schedule sweeps cycles that land inside the
// fused busy loop.
func TestFusedIRQDeferredToBoundary(t *testing.T) {
	f, err := tc32asm.Assemble(irqCountProg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{0, 7, 23, 101, 500, 999} {
		for _, lv := range []core.Level{core.Level1, core.Level2, core.Level3} {
			opts := core.Options{Level: lv}
			label := fmt.Sprintf("k=%d L%d", k, int(lv))
			fused, err := runPlatformIRQ(t, f, opts, EngineCompiled, []int64{k})
			if err != nil {
				t.Fatalf("%s fused: %v", label, err)
			}
			nofuse, err := runPlatformIRQ(t, f, opts, EngineCompiledNoFuse, []int64{k})
			if err != nil {
				t.Fatalf("%s nofuse: %v", label, err)
			}
			if err := diffIRQState(nofuse, fused, label+" fused-vs-nofuse"); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestFusedRunUntilQuantum: quantum-driven execution (the SoC
// scheduler's path) stops the fused engine at the same clock positions
// as the unfused engine, for pathological quantum sizes included — and
// the stopped core goes back into fused code: the stops add under 5 %
// of the packets to what the generic engine retires in an
// uninterrupted run (nothing). The comparison alone cannot tell: a core
// that never re-enters is the unfused engine, and trivially agrees with
// it.
func TestFusedRunUntilQuantum(t *testing.T) {
	for _, w := range workload.All() {
		f, err := tc32asm.Assemble(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range []core.Level{core.Level1, core.Level2, core.Level3} {
			prog, err := core.Translate(f, core.Options{Level: level})
			if err != nil {
				t.Fatal(err)
			}
			whole := NewWithEngine(prog, EngineCompiled)
			if err := whole.Run(); err != nil {
				t.Fatal(err)
			}
			for _, quantum := range []int64{1, 3, 64, 1024} {
				t.Run(fmt.Sprintf("%s/L%d/q%d", w.Name, int(level), quantum), func(t *testing.T) {
					a := NewWithEngine(prog, EngineCompiled)
					if !a.CPU.Fused() {
						t.Skip("program declined fusion")
					}
					b := NewWithEngine(prog, EngineCompiledNoFuse)
					for limit := quantum; !a.CPU.Halted() || !b.CPU.Halted(); limit += quantum {
						if err := a.RunUntil(limit); err != nil {
							t.Fatalf("fused: %v", err)
						}
						if err := b.RunUntil(limit); err != nil {
							t.Fatalf("nofuse: %v", err)
						}
						if a.Now() != b.Now() {
							t.Fatalf("limit %d: clock %d vs %d", limit, a.Now(), b.Now())
						}
						if limit > 10_000_000 {
							t.Fatal("runaway")
						}
					}
					comparePlat(t, "final", a, b)
					if es := a.CPU.EngineStats(); es.HookStops == 0 {
						t.Errorf("no quantum stopped inside fused code: %+v", es)
					}
					if g, floor := a.CPU.EngineStats().GenericShare(), whole.CPU.EngineStats().GenericShare(); g >= floor+0.05 {
						t.Errorf("generic engine retired %.1f%% of the packets, %.1f%% uninterrupted, want < 5%% added: %+v",
							100*g, 100*floor, a.CPU.EngineStats())
					}
				})
			}
		}
	}
}

// TestFusedCheckpointRollbackExact: checkpoint mid-run, speculate
// through fused superblocks (RAM stores included), roll back, and
// re-execute — the re-execution must reproduce the speculated world
// exactly, the rollback must leave no fused-engine residue, and the
// re-execution must run fused again. This is the parallel SoC
// scheduler's exact usage pattern.
func TestFusedCheckpointRollbackExact(t *testing.T) {
	build := func() *System { return buildCk(t, EngineCompiled) }
	a, b := build(), build()
	if !a.CPU.Fused() {
		t.Fatal("checkpoint program declined fusion — test would be vacuous")
	}
	const quantum = 24
	for limit := int64(quantum); !b.CPU.Halted() && limit < 100_000; limit += quantum {
		a.Checkpoint()
		if err := a.RunUntil(limit + 3*quantum); err != nil { // deep speculation
			t.Fatal(err)
		}
		specRegs, specNow := a.CPU.Regs, a.Now()
		a.Rollback()
		a.Checkpoint()
		if err := a.RunUntil(limit + 3*quantum); err != nil { // re-execute
			t.Fatal(err)
		}
		if a.CPU.Regs != specRegs || a.Now() != specNow {
			t.Fatalf("limit %d: re-execution after rollback diverged from speculation", limit)
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
	// Every rollback restored a pending window; the re-runs entered fused
	// code from it (the counters describe the committed execution only).
	if es := a.CPU.EngineStats(); es.EntriesMatched == 0 || a.CPU.EngineStats().GenericShare() >= 0.05 {
		t.Errorf("rolled-back core left fused code: generic engine retired %.1f%% of the packets: %+v", 100*a.CPU.EngineStats().GenericShare(), es)
	}
}

// TestFusedRAMGrowthRollback pins the demand-grown RAM against the
// write journal: speculative stores that grow the backing array revert
// to zeros on rollback, indistinguishable from the virtual zero fill.
func TestFusedRAMGrowthRollback(t *testing.T) {
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
	got := ramOf(a)
	if len(got) < len(snap) {
		t.Fatalf("backing array shrank: %d < %d", len(got), len(snap))
	}
	if !reflect.DeepEqual(snap, got[:len(snap)]) {
		t.Error("platform RAM not restored byte-exactly after rollback")
	}
	for i := len(snap); i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("grown RAM byte %d = %#x after rollback, want 0", i, got[i])
		}
	}
}

// TestFusedBuildFreedWithProgram: the fused build is memoized on the
// program it was built from, so a translation that is run once and
// dropped is collected, build and all — nothing process-wide pins it.
func TestFusedBuildFreedWithProgram(t *testing.T) {
	w, _ := workload.ByName("gcd")
	prog, err := core.Translate(mustAssemble(t, w.Source), core.Options{Level: core.Level2})
	if err != nil {
		t.Fatal(err)
	}
	sys := New(prog)
	if !sys.CPU.Fused() {
		t.Fatal("gcd at Level 2 declined fusion")
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	p := weak.Make(prog.C6x)
	prog, sys = nil, nil
	for i := 0; i < 5 && p.Value() != nil; i++ {
		runtime.GC()
	}
	if p.Value() != nil {
		t.Fatal("a dropped program and its fused build are still reachable after 5 collections")
	}
}
