package platform_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/iss"
	"repro/internal/platform"
	"repro/internal/soc"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// TestSrcInstructionAttribution pins the platform's per-region source
// instruction accounting to the reference simulator: on a single-core
// run every retired instruction belongs to exactly one executed cycle
// region, so the attributed count must equal the ISS retirement count —
// in both correction-drain shapes (the two-drain shape re-writes the
// sync START register mid-region, which the attribution must not double
// count) and in instruction-oriented mode. One static rule (the packet
// holding a region's base start credits it) serves every engine: the
// fused engine's bound sync accesses, the unfused build's MemPort stores
// and the interpreter, under Run and under RunUntil quanta of 1, 3 and
// 64. The trajectories RecordCurve samples at each credit are identical
// across all of them.
func TestSrcInstructionAttribution(t *testing.T) {
	engines := []platform.Engine{platform.EngineCompiled, platform.EngineCompiledNoFuse, platform.EngineInterp}
	for _, wname := range []string{"gcd", "sieve", "fir"} {
		w, ok := workload.ByName(wname)
		if !ok {
			t.Fatalf("workload %s missing", wname)
		}
		f, err := tc32asm.Assemble(w.Source)
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
		retired := ref.Stats().Retired

		opts := []core.Options{
			{Level: core.Level1},
			{Level: core.Level2},
			{Level: core.Level3},
			{Level: core.Level3, SingleDrainCorrection: true},
			{Level: core.Level2, InstructionOriented: true},
		}
		for _, o := range opts {
			name := fmt.Sprintf("%s-L%d-sd%v-io%v", wname, int(o.Level), o.SingleDrainCorrection, o.InstructionOriented)
			prog, err := core.Translate(f, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var curve platform.CycleCurve // the first run's
			for i, e := range engines {
				for j, q := range []int64{0, 1, 3, 64} { // 0: Run
					label := fmt.Sprintf("%s %v q=%d", name, e, q)
					sys := platform.NewWithEngine(prog, e)
					sys.RecordCurve()
					if err := runQuanta(sys, q); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got := sys.Stats().SrcInstructions; got != retired {
						t.Errorf("%s: attributed %d source instructions, ISS retired %d", label, got, retired)
					}
					if i == 0 && j == 0 {
						curve = sys.Curve()
					} else if !reflect.DeepEqual(sys.Curve(), curve) {
						t.Errorf("%s: recorded cycle curve differs from %v's under Run (%d vs %d points)", label, engines[0], len(sys.Curve()), len(curve))
					}
				}
			}
		}
	}
}

// runQuanta runs sys to halt: in RunUntil quanta of q source cycles, or
// with Run when q is 0.
func runQuanta(sys *platform.System, q int64) error {
	if q == 0 {
		return sys.Run()
	}
	for limit := q; !sys.CPU.Halted(); limit += q {
		if err := sys.RunUntil(limit); err != nil {
			return err
		}
	}
	return nil
}

// TestSrcInstructionAttributionIRQ: on an interrupt-driven SoC workload
// whose instruction stream does not depend on timing (mc-irq-timer),
// every translated core's attributed count equals its ISS twin's
// retirements on every engine, level and quantum, so that interrupt
// entries and returns neither lose nor double a region's credit.
func TestSrcInstructionAttributionIRQ(t *testing.T) {
	mw := workload.MCIRQTimer(2)
	run := func(level core.Level, q int64, iss bool, e platform.Engine) []soc.CoreResult {
		cfg := soc.Config{Quantum: q, Engine: e}
		for _, w := range mw.Cores {
			f, err := tc32asm.Assemble(w.Source)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Cores = append(cfg.Cores, soc.CoreConfig{Name: w.Name, ELF: f, UseISS: iss, Options: core.Options{Level: level}})
		}
		s, err := soc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("%s L%d q=%d iss=%v %v: %v", mw.Name, int(level), q, iss, e, err)
		}
		return s.Results().Cores
	}
	for _, level := range []core.Level{core.Level1, core.Level2, core.Level3} {
		for _, q := range []int64{1, 3, 64} {
			ref := run(level, q, true, 0)
			for _, e := range []platform.Engine{platform.EngineCompiled, platform.EngineCompiledNoFuse, platform.EngineInterp} {
				for i, c := range run(level, q, false, e) {
					if c.IRQsTaken == 0 || c.Instructions != ref[i].Instructions {
						t.Errorf("%s L%d q=%d %v core %d: attributed %d instructions (%d irqs), ISS retired %d",
							mw.Name, int(level), q, e, i, c.Instructions, c.IRQsTaken, ref[i].Instructions)
					}
				}
			}
		}
	}
}
