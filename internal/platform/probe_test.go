package platform

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/c6x"
	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/march"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// Differential coverage of the cache-probe intrinsic (probe.go). Every
// case compares the fused engine, where the probe routine is one op,
// with the engines that execute its instructions — down to the final
// cache-table bytes — and then reads the engine counters: the op must
// have run on the geometries it covers and must not exist on the others,
// so no case passes by quietly running the generic lowering.

// probeGeoms are the I-cache geometries of the matrix: op says whether
// the routine compiles to the intrinsic op. Two sets make every line
// conflict, so both replacement paths and both hit paths stay hot.
var probeGeoms = []struct {
	name       string
	sets, ways int
	op         bool
}{
	{"1way", 32, 1, true},
	{"2way", 32, 2, true},
	{"2way-2sets", 2, 2, true},
	{"4way", 8, 4, false},
}

func probeOpts(sets, ways int) core.Options {
	d := march.Default()
	d.ICache = march.CacheGeom{Sets: sets, Ways: ways, LineBytes: 8, MissPenalty: 8}
	return core.Options{Level: core.Level3, Desc: d}
}

func mustAssemble(t *testing.T, src string) *elf32.File {
	t.Helper()
	f, err := tc32asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// checkProbeOp asserts through the engine counters that the intrinsic
// op ran exactly where it should: on the fused engine with a covered
// geometry every entry state compiled and calls went through the op;
// anywhere else no call did (-nofuse declares no intrinsics), and an
// uncovered geometry's routine is reported as generic for want of an
// effect.
func checkProbeOp(t *testing.T, label string, sys *System, op bool) {
	t.Helper()
	es := sys.CPU.EngineStats()
	var want [c6x.NumIntrinsicOutcomes]int64
	switch {
	case sys.Engine() != EngineCompiled:
	case op:
		want[c6x.IntrinsicCompiled] = es.IntrinsicSites[c6x.IntrinsicCompiled]
		if es.IntrinsicRuns == 0 || want[c6x.IntrinsicCompiled] == 0 {
			t.Errorf("%s: the probe op never ran: %d runs, sites %s", label, es.IntrinsicRuns, es.IntrinsicSummary())
		}
	default:
		want[c6x.IntrinsicNoEffect] = es.IntrinsicSites[c6x.IntrinsicNoEffect]
		if want[c6x.IntrinsicNoEffect] == 0 {
			t.Errorf("%s: routine not reported generic: sites %s", label, es.IntrinsicSummary())
		}
	}
	if es.IntrinsicSites != want || (!op || sys.Engine() != EngineCompiled) && es.IntrinsicRuns != 0 {
		t.Errorf("%s: %d op runs, sites %s", label, es.IntrinsicRuns, es.IntrinsicSummary())
	}
}

// compareProbe is comparePlat plus what the probe touches beyond it: the
// C6x-side statistics and the cache table.
func compareProbe(t *testing.T, label string, a, b *System) {
	t.Helper()
	comparePlat(t, label, a, b)
	if a.CPU.Stats() != b.CPU.Stats() {
		t.Errorf("%s: c6x stats differ:\na: %+v\nb: %+v", label, a.CPU.Stats(), b.CPU.Stats())
	}
	if !bytes.Equal(a.ctab, b.ctab) {
		t.Errorf("%s: cache tables differ", label)
	}
}

// TestProbeOpMatrix: geometries × workloads at Level 3, fused against
// the unfused build and the interpreter.
func TestProbeOpMatrix(t *testing.T) {
	for _, g := range probeGeoms {
		for _, w := range workload.All() {
			t.Run(g.name+"/"+w.Name, func(t *testing.T) {
				prog, err := core.Translate(mustAssemble(t, w.Source), probeOpts(g.sets, g.ways))
				if err != nil {
					t.Fatal(err)
				}
				var ref *System
				for _, engine := range []Engine{EngineInterp, EngineCompiledNoFuse, EngineCompiled} {
					sys := NewWithEngine(prog, engine)
					if err := sys.Run(); err != nil {
						t.Fatalf("%s: %v", engine, err)
					}
					checkProbeOp(t, engine.String(), sys, g.op)
					if ref == nil {
						ref = sys
						if err := workload.SameOutput(sys.Output, w.Expected); err != nil {
							t.Fatal(err)
						}
						continue
					}
					compareProbe(t, engine.String()+" vs interp", sys, ref)
				}
			})
		}
	}
}

// TestProbeOpQuantaRollback extends TestFusedCheckpointRollbackExact to
// the probe op: at every quantum the fused core checkpoints, speculates
// ahead, rolls back — which must restore the cache table, so the op's
// table writes have to be in the undo journal — re-executes to the same
// world, rolls back again and advances for real beside the unfused
// reference.
func TestProbeOpQuantaRollback(t *testing.T) {
	for _, g := range probeGeoms {
		for _, w := range workload.All() {
			prog, err := core.Translate(mustAssemble(t, w.Source), probeOpts(g.sets, g.ways))
			if err != nil {
				t.Fatal(err)
			}
			for _, quantum := range []int64{1, 3, 64} {
				t.Run(fmt.Sprintf("%s/%s/q%d", g.name, w.Name, quantum), func(t *testing.T) {
					a, b := NewWithEngine(prog, EngineCompiled), NewWithEngine(prog, EngineCompiledNoFuse)
					journaled := 0
					for limit := quantum; !b.CPU.Halted(); limit += quantum {
						before := append([]byte(nil), a.ctab...)
						a.Checkpoint()
						if err := a.RunUntil(limit + 2*quantum); err != nil {
							t.Fatal(err)
						}
						journaled += len(a.ctabUndo)
						specRegs, specNow, specTab := a.CPU.Regs, a.Now(), append([]byte(nil), a.ctab...)
						a.Rollback()
						if !bytes.Equal(a.ctab, before) {
							t.Fatalf("limit %d: rollback left the cache table changed", limit)
						}
						a.Checkpoint()
						if err := a.RunUntil(limit + 2*quantum); err != nil {
							t.Fatal(err)
						}
						if a.CPU.Regs != specRegs || a.Now() != specNow || !bytes.Equal(a.ctab, specTab) {
							t.Fatalf("limit %d: re-execution after rollback diverged from the speculation", limit)
						}
						a.Rollback()
						if err := a.RunUntil(limit); err != nil {
							t.Fatal(err)
						}
						if err := b.RunUntil(limit); err != nil {
							t.Fatal(err)
						}
						compareProbe(t, fmt.Sprintf("limit %d", limit), a, b)
						if t.Failed() || limit > 10_000_000 {
							t.FailNow()
						}
					}
					checkProbeOp(t, "fused", a, g.op)
					checkProbeOp(t, "nofuse", b, g.op)
					if journaled == 0 {
						t.Error("no cache-table write was ever journaled")
					}
				})
			}
		}
	}
}

// TestProbeOpIRQ: interrupts injected at the TestIRQRandomInjection
// offsets land on the same boundary, in the same world, whether the
// probes between the boundaries are ops or instructions.
func TestProbeOpIRQ(t *testing.T) {
	f := mustAssemble(t, irqCountProg)
	for _, g := range probeGeoms {
		for _, k := range []int64{0, 7, 23, 101} {
			t.Run(fmt.Sprintf("%s/k%d", g.name, k), func(t *testing.T) {
				var ref *System
				for _, engine := range []Engine{EngineInterp, EngineCompiledNoFuse, EngineCompiled} {
					sys, err := runSysIRQ(t, f, probeOpts(g.sets, g.ways), engine, []int64{k})
					if err != nil {
						t.Fatalf("%s: %v", engine, err)
					}
					checkProbeOp(t, engine.String(), sys, g.op)
					if ref == nil {
						ref = sys
						if sys.Stats().IRQsTaken != 1 {
							t.Fatalf("took %d interrupts, want 1", sys.Stats().IRQsTaken)
						}
						continue
					}
					compareProbe(t, engine.String()+" vs interp", sys, ref)
					if sys.IRQShadowPC() != ref.IRQShadowPC() {
						t.Errorf("%s: shadow pc %#x vs %#x", engine, sys.IRQShadowPC(), ref.IRQShadowPC())
					}
				}
			})
		}
	}
}

// TestProbeFaultExact: with the cache table cut off in the middle of a
// set, the first probe of that set faults in the routine's second load.
// The op declines the call (its set is not wholly in the table), the
// generic lowering of the same entry state runs it, and the error — packet,
// cycle, text — and every statistic equal the interpreter's. See
// c6x.TestFusedMemoryFaultExact for what may differ after such an error.
func TestProbeFaultExact(t *testing.T) {
	w, _ := workload.ByName("sieve")
	prog, err := core.Translate(mustAssemble(t, w.Source), probeOpts(32, 2))
	if err != nil {
		t.Fatal(err)
	}
	run := func(engine Engine) (*System, error) {
		sys := NewWithEngine(prog, engine)
		sys.ctab = sys.ctab[:8*12+4] // sets 0..7 and the first word of set 8
		return sys, sys.Run()
	}
	ref, rerr := run(EngineInterp)
	sys, err := run(EngineCompiled)
	if rerr == nil || err == nil || err.Error() != rerr.Error() {
		t.Fatalf("errors differ:\n  interp: %v\n  fused:  %v", rerr, err)
	}
	if se := err.(*c6x.SimError); se.Packet < prog.ProbeRoutine.Entry || se.Packet >= prog.ProbeRoutine.End {
		t.Fatalf("fault at packet %d, outside the probe routine %+v", se.Packet, prog.ProbeRoutine)
	}
	if !reflect.DeepEqual(sys.Stats(), ref.Stats()) || sys.CPU.Stats() != ref.CPU.Stats() || !bytes.Equal(sys.ctab, ref.ctab) {
		t.Errorf("state at the fault differs:\n  interp: %+v %+v\n  fused:  %+v %+v", ref.Stats(), ref.CPU.Stats(), sys.Stats(), sys.CPU.Stats())
	}
	if es := sys.CPU.EngineStats(); es.IntrinsicRuns == 0 || es.GenericPackets != 0 {
		t.Errorf("want probes of the sets in range on the op and the fault inside fused code: %+v", es)
	}
}

// TestProbeIntrinsicDeclared pins what the platform tells the fuser: the
// routine's packets always, its meaning only for the compact 1-/2-way
// layout and only while the RAM window cannot shadow the table.
func TestProbeIntrinsicDeclared(t *testing.T) {
	w, _ := workload.ByName("gcd")
	f := mustAssemble(t, w.Source)
	for _, g := range probeGeoms {
		prog, err := core.Translate(f, probeOpts(g.sets, g.ways))
		if err != nil {
			t.Fatal(err)
		}
		ins := probeIntrinsics(prog, 0x1000_0000)
		if len(ins) != 1 || ins[0].Entry != prog.ProbeRoutine.Entry || ins[0].End != prog.ProbeRoutine.End || (ins[0].Effect != nil) != g.op {
			t.Errorf("%s: declared %+v for routine %+v, effect wanted: %v", g.name, ins, prog.ProbeRoutine, g.op)
		}
		if over := probeIntrinsics(prog, core.CacheTableBase-16); over[0].Effect != nil {
			t.Errorf("%s: effect supplied although RAM overlaps the cache table", g.name)
		}
	}
	prog, err := core.Translate(f, core.Options{Level: core.Level2})
	if err != nil {
		t.Fatal(err)
	}
	if ins := probeIntrinsics(prog, 0x1000_0000); ins != nil {
		t.Errorf("Level 2 program declares %+v", ins)
	}
}
