package platform

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/c6x"
	"repro/internal/core"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// runEngines executes one translated program on both engines and
// requires bit-identical platform stats, debug-port output, final
// register file and C6x cycle count.
func runEngines(t *testing.T, name string, opts core.Options) {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	f, err := tc32asm.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Translate(f, opts)
	if err != nil {
		t.Fatal(err)
	}

	comp := NewWithEngine(prog, EngineCompiled)
	if comp.Engine() != EngineCompiled {
		t.Fatal("compiled engine did not attach")
	}
	if err := comp.Run(); err != nil {
		t.Fatalf("compiled: %v", err)
	}

	interp := NewWithEngine(prog, EngineInterp)
	if interp.Engine() != EngineInterp || interp.CPU.Fused() {
		t.Fatal("interpreter engine not selected")
	}
	if err := interp.Run(); err != nil {
		t.Fatalf("interp: %v", err)
	}

	if comp.Stats() != interp.Stats() {
		t.Fatalf("stats divergence:\n  compiled: %+v\n  interp:   %+v", comp.Stats(), interp.Stats())
	}
	if !reflect.DeepEqual(comp.Output, interp.Output) {
		t.Fatalf("debug output divergence: %v vs %v", comp.Output, interp.Output)
	}
	if comp.CPU.Regs != interp.CPU.Regs {
		t.Fatal("register-file divergence")
	}
	if comp.CPU.Cycle() != interp.CPU.Cycle() {
		t.Fatalf("cycle divergence: %d vs %d", comp.CPU.Cycle(), interp.CPU.Cycle())
	}
	if err := workload.SameOutput(comp.Output, w.Expected); err != nil {
		t.Fatalf("compiled engine wrong output: %v", err)
	}
}

// TestEnginesBitIdentical sweeps every single-core workload at every
// detail level and both correction-drain shapes: the compiled engine
// must match the interpreter bit for bit.
func TestEnginesBitIdentical(t *testing.T) {
	for _, w := range workload.All() {
		for _, level := range []core.Level{core.Level0, core.Level1, core.Level2, core.Level3} {
			for _, single := range []bool{false, true} {
				drain := "two-wait"
				if single {
					drain = "single-drain"
				}
				t.Run(fmt.Sprintf("%s/L%d/%s", w.Name, int(level), drain), func(t *testing.T) {
					runEngines(t, w.Name, core.Options{Level: level, SingleDrainCorrection: single})
				})
			}
		}
	}
}

// TestEnginesBitIdenticalVariants covers the remaining translation
// shapes: instruction-oriented cycle generation and the inlined level-3
// cache probe.
func TestEnginesBitIdenticalVariants(t *testing.T) {
	t.Run("instruction-oriented", func(t *testing.T) {
		runEngines(t, "gcd", core.Options{Level: core.Level2, InstructionOriented: true})
	})
	t.Run("inline-cache-probe", func(t *testing.T) {
		runEngines(t, "sieve", core.Options{Level: core.Level3, InlineCacheProbe: true, InlineCacheThreshold: 16})
	})
}

// TestCompiledPlatformSteadyStateAllocs: stepping a platform through the
// interpreter (CPU + sync device + RAM traffic) stays allocation-free in
// steady state — debug-port writes excepted, which sieve only performs
// at the end of the run. A fused-engine platform steps here on interrupt
// detours, wfi and debugger single-steps.
func TestCompiledPlatformSteadyStateAllocs(t *testing.T) {
	w, _ := workload.ByName("sieve")
	f, err := tc32asm.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Translate(f, core.Options{Level: core.Level2})
	if err != nil {
		t.Fatal(err)
	}
	sys := New(prog)
	for i := 0; i < 4096; i++ { // warm scratch buffers and sync device
		if err := sys.CPU.Step(); err != nil {
			t.Fatal(err)
		}
		if sys.CPU.Halted() {
			t.Fatal("workload too short for a steady-state window")
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 128; i++ {
			if err := sys.CPU.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if sys.CPU.Halted() {
		t.Fatal("measurement window ran past the program")
	}
	if allocs != 0 {
		t.Fatalf("steady-state platform stepping allocates: %.1f allocs per 128 packets", allocs)
	}
}

// TestEngineFallbackOnBadProgram: a program with a malformed (even
// unreachable) packet cannot compile; New must fall back to the
// interpreter and still run it like the oracle.
func TestEngineFallbackOnBadProgram(t *testing.T) {
	prog := &core.Program{C6x: &c6x.Program{Packets: []c6x.Packet{
		{Insts: []c6x.Inst{{Op: c6x.HALT}}},
		{Insts: []c6x.Inst{ // unreachable unit conflict
			{Op: c6x.ADD, Unit: c6x.L1, Dst: c6x.A(1), Src1: c6x.R(c6x.A(2)), Src2: c6x.R(c6x.A(3))},
			{Op: c6x.SUB, Unit: c6x.L1, Dst: c6x.A(4), Src1: c6x.R(c6x.A(5)), Src2: c6x.R(c6x.A(6))},
		}},
	}}}
	sys := New(prog)
	if sys.Engine() != EngineInterp {
		t.Fatalf("engine = %v, want fallback to interp", sys.Engine())
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !sys.CPU.Halted() {
		t.Fatal("program did not halt")
	}
}

// TestMalformedFieldsRejected: programs come gob-decoded from the stores
// with no check beyond decoding, so a unit field past .D2, or a register
// field past B31 that the op reads or writes (NoReg included), must come
// back as a SimError — from the interpreter, from Fuse at load, and from
// the platform on every engine, the compiled ones falling back to the
// interpreter — and never as a panic.
func TestMalformedFieldsRejected(t *testing.T) {
	w, _ := workload.ByName("gcd")
	f, err := tc32asm.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	good, err := core.Translate(f, core.Options{Level: core.Level2})
	if err != nil {
		t.Fatal(err)
	}
	a2, a3 := c6x.R(c6x.A(2)), c6x.R(c6x.A(3))
	cases := map[string]c6x.Inst{
		"unit":       {Op: c6x.ADD, Unit: 9, Dst: c6x.A(1), Src1: a2, Src2: a3},
		"dst":        {Op: c6x.ADD, Unit: c6x.L1, Dst: 100, Src1: a2, Src2: a3},
		"src1":       {Op: c6x.ADD, Unit: c6x.L1, Dst: c6x.A(1), Src1: c6x.R(100), Src2: a3},
		"src2-noreg": {Op: c6x.ADD, Unit: c6x.L1, Dst: c6x.A(1), Src1: a2, Src2: c6x.R(c6x.NoReg)},
		"pred":       {Op: c6x.ADD, Unit: c6x.L1, Dst: c6x.A(1), Src1: a2, Src2: a3, Pred: c6x.Pred{Valid: true, Reg: 100}},
		"mvkh-dst":   {Op: c6x.MVKH, Unit: c6x.S1, Dst: c6x.NoReg, Src2: c6x.Imm(1)},
		"load-dst":   {Op: c6x.LDW, Unit: c6x.D1, Dst: 100, Src1: a2, Src2: c6x.Imm(0)},
		"store-data": {Op: c6x.STW, Unit: c6x.D1, Data: 100, Src1: a2, Src2: c6x.Imm(0)},
		"breg-src1":  {Op: c6x.BREG, Unit: c6x.S2, Src1: c6x.R(c6x.NoReg)},
		"nop-pred":   {Op: c6x.NOP, Pred: c6x.Pred{Valid: true, Reg: c6x.NoReg}},
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			prog, cp := *good, &c6x.Program{Packets: slices.Clone(good.C6x.Packets), Entry: good.C6x.Entry}
			cp.Packets[cp.Entry] = c6x.Packet{Insts: []c6x.Inst{bad}}
			prog.C6x = cp
			var se *c6x.SimError
			if err := c6x.NewSim(cp, nil).Run(); !errors.As(err, &se) {
				t.Errorf("Sim.Run: %v, want a SimError", err)
			}
			if _, err := c6x.Fuse(cp, c6x.FuseConfig{}); !errors.As(err, &se) {
				t.Errorf("Fuse: %v, want a SimError", err)
			}
			for _, e := range []Engine{EngineCompiled, EngineCompiledNoFuse, EngineInterp} {
				if err := NewWithEngine(&prog, e).Run(); !errors.As(err, &se) {
					t.Errorf("%v: %v, want a SimError", e, err)
				}
			}
		})
	}
}
