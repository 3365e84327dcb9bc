package platform

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// Every way a core leaves fused code must lead back into it: these
// tests read the engine counters, because bit-identity with the unfused
// engine is exactly what a core that never re-enters also shows.

// TestRunUntilQuantumAllocs: a steady-state scheduler quantum on the
// fused engine — entry match, fused run, hook stop, window flush —
// allocates nothing.
func TestRunUntilQuantumAllocs(t *testing.T) {
	for _, level := range []core.Level{core.Level2, core.Level3} {
		w, _ := workload.ByName("sieve")
		_, sys := build(t, w.Source, level)
		if !sys.CPU.Fused() {
			t.Fatal("sieve declined fusion")
		}
		limit := int64(0)
		quantum := func() {
			limit += 64
			if err := sys.RunUntil(limit); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			quantum() // warm: RAM growth, pending capacity
		}
		if allocs := testing.AllocsPerRun(100, quantum); allocs != 0 {
			t.Errorf("L%d: RunUntil allocates %.1f objects per quantum", int(level), allocs)
		}
		if sys.CPU.Halted() {
			t.Fatal("program ended inside the measurement — quanta were not steady-state")
		}
		if es := sys.CPU.EngineStats(); es.GenericPackets != 0 || es.HookStops < 100 {
			t.Errorf("L%d: measured quanta did not run fused: %+v", int(level), es)
		}
	}
}

// TestFusedReentryAfterIRQ: interrupt delivery redirects the core out
// of fused code with the sync-device scratch write in flight, a state
// no segment was compiled for; reti lands back at the interrupted
// boundary. The generic engine carries each detour for a few regions at
// most and the busy loop is fused again — bit-identical to the unfused
// engine throughout.
func TestFusedReentryAfterIRQ(t *testing.T) {
	at := []int64{50, 300, 301, 700, 1100}
	for _, lv := range []core.Level{core.Level1, core.Level2, core.Level3} {
		_, built := build(t, irqCountProg, lv)
		prog := built.Prog
		run := func(engine Engine) *System {
			sys := NewWithEngine(prog, engine)
			inj := &injector{at: at, now: sys.Now, taken: func() int64 { return sys.Stats().IRQsTaken }}
			sys.IRQLine = inj.line
			if err := sys.Run(); err != nil {
				t.Fatalf("L%d %v: %v", int(lv), engine, err)
			}
			return sys
		}
		a, b := run(EngineCompiled), run(EngineCompiledNoFuse)
		comparePlat(t, fmt.Sprintf("L%d", int(lv)), a, b)
		if got := a.Stats().IRQsTaken; got != int64(len(at)) {
			t.Fatalf("L%d: %d interrupts taken, want %d", int(lv), got, len(at))
		}
		es := a.CPU.EngineStats()
		if entries := es.EntriesClean + es.EntriesMatched; entries <= int64(len(at)) {
			t.Errorf("L%d: %d fused entries for %d deliveries — the core did not come back: %+v", int(lv), entries, len(at), es)
		}
		if g := a.CPU.EngineStats().GenericShare(); g >= 0.05 {
			t.Errorf("L%d: generic engine retired %.1f%% of the packets: %+v", int(lv), 100*g, es)
		}
	}
}

// TestFusedReentryAfterWfiWake: fusion is gated off between a wfi trap
// and its wake; every wake goes back into fused code.
func TestFusedReentryAfterWfiWake(t *testing.T) {
	at := []int64{40, 200, 400, 401, 900}
	for _, lv := range []core.Level{core.Level1, core.Level2, core.Level3} {
		_, built := build(t, irqWaitProg, lv)
		prog := built.Prog
		run := func(engine Engine) *System {
			sys := NewWithEngine(prog, engine)
			inj := &injector{at: at, now: sys.Now, taken: func() int64 { return sys.Stats().IRQsTaken }}
			sys.IRQLine = inj.line
			for limit := int64(64); !sys.CPU.Halted(); limit += 64 {
				if err := sys.RunUntil(limit); err != nil {
					t.Fatalf("L%d %v: %v", int(lv), engine, err)
				}
				if limit > 1_000_000 {
					t.Fatal("runaway")
				}
			}
			return sys
		}
		a, b := run(EngineCompiled), run(EngineCompiledNoFuse)
		comparePlat(t, fmt.Sprintf("L%d", int(lv)), a, b)
		es := a.CPU.EngineStats()
		if entries := es.EntriesClean + es.EntriesMatched; a.Stats().IdleCycles == 0 || entries <= int64(len(at)) {
			t.Errorf("L%d: idled %d cycles, %d fused entries for %d wakes: %+v", int(lv), a.Stats().IdleCycles, entries, len(at), es)
		}
	}
}

// TestFusedReentryAfterSingleStep: a debugger stepping packets leaves
// the core mid-region with writebacks in flight; the continue that
// follows is fused again from the next boundary.
func TestFusedReentryAfterSingleStep(t *testing.T) {
	for _, lv := range []core.Level{core.Level1, core.Level2, core.Level3} {
		w, _ := workload.ByName("sieve")
		_, built := build(t, w.Source, lv)
		prog := built.Prog
		run := func(engine Engine) *System {
			sys := NewWithEngine(prog, engine)
			for round := int64(1); round <= 5; round++ {
				if err := sys.RunUntil(200 * round); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					if err := sys.CPU.Step(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			return sys
		}
		a, b := run(EngineCompiled), run(EngineCompiledNoFuse)
		comparePlat(t, fmt.Sprintf("L%d", int(lv)), a, b)
		es := a.CPU.EngineStats()
		if es.GenericPackets < 15 || a.CPU.EngineStats().GenericShare() >= 0.05 {
			t.Errorf("L%d: generic engine retired %d packets (%.1f%%), want the 15 stepped ones and under 5%%: %+v",
				int(lv), es.GenericPackets, 100*a.CPU.EngineStats().GenericShare(), es)
		}
	}
}
