package soc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/socbus"
	"repro/internal/workload"
)

// TestEngineEquivalence runs every multi-core workload on the fused,
// unfused and interpreted C6x engines — all-translated and mixed
// translated/ISS, cycle lockstep and a large quantum, Level 0 (untimed,
// where the clock moves with every packet) and Level 2 — and requires
// bit-identical SoC results, including per-core CPI, cycles, bus traffic
// and output, and the identical bus transaction trace.
func TestEngineEquivalence(t *testing.T) {
	for _, mw := range workload.MCAll(4) {
		for _, quantum := range []int64{1, 64} {
			for _, mixed := range []bool{false, true} {
				useISS := []bool{false}
				label := "translated"
				if mixed {
					useISS = []bool{false, true}
					label = "mixed"
				}
				t.Run(fmt.Sprintf("%s/q%d/%s", mw.Name, quantum, label), func(t *testing.T) {
					for _, level := range []core.Level{core.Level0, core.Level2} {
						engines := []platform.Engine{platform.EngineCompiled, platform.EngineCompiledNoFuse, platform.EngineInterp}
						results := make([]Stats, len(engines))
						logs := make([][]socbus.Transaction, len(engines))
						for i, engine := range engines {
							cfg := buildConfig(t, mw, quantum, useISS, core.Options{Level: level})
							cfg.Engine = engine
							s, log := mustRunLogged(t, cfg, fmt.Sprintf("L%d %v", int(level), engine))
							verifyOutputs(t, mw, s, engine.String())
							results[i], logs[i] = s.Results(), log
							// The comparison alone cannot see a core that never enters
							// fused code: it is the interpreter, and agrees with it.
							for c := 0; c < s.Cores() && engine != platform.EngineInterp; c++ {
								if es := s.EngineStats(c); es.GenericShare() >= 0.25 {
									t.Errorf("L%d %v core%d: the interpreter retired %.1f%% of the packets", int(level), engine, c, 100*es.GenericShare())
								}
							}
						}
						for i := 1; i < len(engines); i++ {
							if !reflect.DeepEqual(results[0], results[i]) {
								t.Fatalf("L%d engine divergence:\n  %v: %+v\n  %v: %+v",
									int(level), engines[0], results[0], engines[i], results[i])
							}
							if !reflect.DeepEqual(logs[0], logs[i]) {
								t.Fatalf("L%d bus trace divergence: %v %d transactions, %v %d",
									int(level), engines[0], len(logs[0]), engines[i], len(logs[i]))
							}
						}
					}
				})
			}
		}
	}
}

// TestFusedCoresStayFused: the differential matrices cannot see a
// core that fell out of fused code for good — it is the unfused engine,
// and agrees with it. The engine counters can: on the sharded sieve at a
// scheduler-sized quantum every core stops inside fused code hundreds of
// times and the generic engine retires under 5 % of its packets, on
// both schedulers (a rolled-back lane re-enters from the restored
// pending window like any other stop).
func TestFusedCoresStayFused(t *testing.T) {
	mw, _ := workload.MCByName("mc-sieve", 4)
	for _, level := range []core.Level{core.Level2, core.Level3} {
		for _, parallel := range []bool{false, true} {
			cfg := buildConfig(t, mw, 64, []bool{false}, core.Options{Level: level})
			cfg.Parallel = parallel
			s := mustRun(t, cfg, fmt.Sprintf("L%d par=%v", int(level), parallel))
			for i := 0; i < s.Cores(); i++ {
				es := s.EngineStats(i)
				if es.HookStops < 100 || es.GenericShare() >= 0.05 {
					t.Errorf("L%d parallel=%v core%d: generic engine retired %.1f%% of the packets: %+v",
						int(level), parallel, i, 100*es.GenericShare(), es)
				}
			}
		}
	}
}

// TestFusedCoresReenterAfterIRQ: on the interrupt-driven set every
// delivery redirects a core out of fused code, every reti deoptimizes
// (an indirect branch through the shadow register), and wfi gates
// fusion off until the wake. Each of those detours ends back in fused
// code: a core enters it more often than it took interrupts, and the
// generic engine retires under a quarter of the packets even of these
// few-hundred-packet programs (ten per delivery).
func TestFusedCoresReenterAfterIRQ(t *testing.T) {
	for _, mw := range irqWorkloads(3) {
		for _, parallel := range []bool{false, true} {
			cfg := buildConfig(t, mw, 64, []bool{false}, core.Options{Level: core.Level2})
			cfg.Parallel = parallel
			label := fmt.Sprintf("%s par=%v", mw.Name, parallel)
			s := mustRun(t, cfg, label)
			for i, cr := range s.Results().Cores {
				es := s.EngineStats(i)
				if entries := es.EntriesClean + es.EntriesMatched; entries <= cr.IRQsTaken || es.GenericShare() >= 0.25 {
					t.Errorf("%s core%d: %d fused entries for %d interrupts, generic share %.1f%%: %+v",
						label, i, entries, cr.IRQsTaken, 100*es.GenericShare(), es)
				}
			}
		}
	}
}
