package soc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/iss"
	"repro/internal/platform"
	"repro/internal/socbus"
	"repro/internal/workload"
)

// The differential interrupt matrix: every interrupt-driven workload ×
// execution engine (reference ISS / interpreted C6x / compiled C6x) ×
// both correction-drain shapes, pinned bit-identical against the
// all-ISS oracle at the same quantum — registers, cycle counts, per-core
// CPI (instructions), memory traffic and delivered-interrupt counts.
// The workloads are exactly statically predictable at Level3 (see
// internal/workload/mcirq.go), which is what entitles the tests to
// demand zero tolerance.

// coreSnapshot is everything the matrix compares per core; the cycle
// count is State's.
type coreSnapshot struct {
	Output       []uint32
	Instructions int64
	CPI          float64
	BusGrants    int64
	BusWaits     int64
	IRQsTaken    int64
	State        iss.ArchState
}

func snapshotSoC(s *System) []coreSnapshot {
	st := s.Results()
	out := make([]coreSnapshot, len(st.Cores))
	for i, cr := range st.Cores {
		out[i] = coreSnapshot{
			Output:       cr.Output,
			Instructions: cr.Instructions,
			CPI:          cr.CPI,
			BusGrants:    cr.BusGrants,
			BusWaits:     cr.BusWaitCycles,
			IRQsTaken:    cr.IRQsTaken,
			State:        s.cores[i].State(),
		}
	}
	return out
}

// Comparison strengths.
//
// compareFull is the same-quantum, homogeneous-engine contract: zero
// tolerance on everything, including cycle counts, per-core CPI and bus
// traffic. compareFunctional drops the timing, traffic and delivery
// counts: it applies across quanta (wfi wake cycles are quantum
// boundaries, and coalesced IPIs change wake counts) and to mixed-engine
// SoCs (the two engines stamp bus transactions at different pipeline
// positions — a pre-existing convention skew that shifts arbitration
// collisions when the engines share one bus).
const (
	compareFull = iota
	compareFunctional
)

func compareSnapshots(t *testing.T, label string, ref, got []coreSnapshot, mode int) {
	t.Helper()
	for i := range ref {
		r, g := ref[i], got[i]
		if !reflect.DeepEqual(r.Output, g.Output) {
			t.Errorf("%s core %d: output %v, want %v", label, i, g.Output, r.Output)
		}
		if mode == compareFull {
			if g.IRQsTaken != r.IRQsTaken {
				t.Errorf("%s core %d: irqs %d, want %d", label, i, g.IRQsTaken, r.IRQsTaken)
			}
			if g.BusGrants != r.BusGrants {
				t.Errorf("%s core %d: bus grants %d, want %d", label, i, g.BusGrants, r.BusGrants)
			}
			if g.Instructions != r.Instructions {
				t.Errorf("%s core %d: instructions %d, want %d", label, i, g.Instructions, r.Instructions)
			}
			if g.CPI != r.CPI {
				t.Errorf("%s core %d: CPI %v, want %v", label, i, g.CPI, r.CPI)
			}
			if g.BusWaits != r.BusWaits {
				t.Errorf("%s core %d: bus waits %d, want %d", label, i, g.BusWaits, r.BusWaits)
			}
		} else {
			g.State.Cycles = r.State.Cycles // timing
		}
		for _, d := range g.State.Diff(r.State) {
			t.Errorf("%s core %d: %s", label, i, d)
		}
	}
}

// runIRQSoC builds and runs one SoC configuration of a multi-core
// workload and verifies every core's functional output.
func runIRQSoC(t *testing.T, mw workload.MultiWorkload, quantum int64, useISS bool, opts core.Options, engine platform.Engine, arb Arbitration) *System {
	t.Helper()
	cfg := buildConfig(t, mw, quantum, []bool{useISS}, opts)
	cfg.Engine = engine
	cfg.Arbitration = arb
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", mw.Name, err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("%s: Run: %v", mw.Name, err)
	}
	verifyOutputs(t, mw, s, fmt.Sprintf("q=%d", quantum))
	return s
}

// irqWorkloads instantiates the interrupt-driven set at the given core
// count.
func irqWorkloads(cores int) []workload.MultiWorkload {
	return []workload.MultiWorkload{
		workload.MCIRQPingPong(cores),
		workload.MCIRQBarrier(cores),
		workload.MCIRQTimer(cores),
	}
}

// TestIRQDifferentialMatrix is the differential interrupt matrix. For
// every mc-irq-* workload and both tested quanta, the quantum's all-ISS
// run is the oracle; all-translated runs at Level3 under both engines
// and both drain shapes must reproduce it bit-exactly — an interrupt
// raised at source cycle k is taken at the identical source cycle on
// every engine, and nothing downstream may differ.
func TestIRQDifferentialMatrix(t *testing.T) {
	for _, mw := range irqWorkloads(3) {
		for _, quantum := range []int64{1, 64} {
			oracle := runIRQSoC(t, mw, quantum, true, core.Options{}, platform.EngineCompiled, RoundRobin)
			ref := snapshotSoC(oracle)
			var totalIRQs int64
			for _, c := range ref {
				totalIRQs += c.IRQsTaken
			}
			if totalIRQs == 0 {
				t.Fatalf("%s q=%d: oracle delivered no interrupts — the matrix would be vacuous", mw.Name, quantum)
			}
			for _, drain := range []bool{false, true} {
				for _, eng := range []platform.Engine{platform.EngineInterp, platform.EngineCompiled, platform.EngineCompiledNoFuse} {
					opts := core.Options{Level: core.Level3, SingleDrainCorrection: drain}
					label := fmt.Sprintf("%s q=%d drain%d %s", mw.Name, quantum, map[bool]int{false: 2, true: 1}[drain], eng)
					s := runIRQSoC(t, mw, quantum, false, opts, eng, RoundRobin)
					compareSnapshots(t, label, ref, snapshotSoC(s), compareFull)
				}
			}
		}
	}
}

// TestIRQMixedCores runs translated and ISS cores side by side in one
// SoC at Level3: the per-core differential mode must also be
// bit-identical against the all-ISS oracle — the aligned bus-timestamp
// convention and region-at-a-time quantum progress make even a
// heterogeneous SoC's arbitration outcomes exact.
func TestIRQMixedCores(t *testing.T) {
	for _, mw := range irqWorkloads(4) {
		for _, quantum := range []int64{1, 64} {
			oracle := runIRQSoC(t, mw, quantum, true, core.Options{}, platform.EngineCompiled, RoundRobin)
			cfg := buildConfig(t, mw, quantum, []bool{false, true}, core.Options{Level: core.Level3})
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: New: %v", mw.Name, err)
			}
			if err := s.Run(); err != nil {
				t.Fatalf("%s: Run: %v", mw.Name, err)
			}
			verifyOutputs(t, mw, s, "mixed")
			compareSnapshots(t, fmt.Sprintf("%s mixed q=%d", mw.Name, quantum), snapshotSoC(oracle), snapshotSoC(s), compareFull)
		}
	}
}

// TestIRQQuantumEquivalence extends the quantum-equivalence suite to the
// interrupt-driven workloads: quantum 1 vs 64, under both arbitration
// policies and for both core kinds, the functional results — outputs,
// final register files, bus traffic, delivered-interrupt counts — are
// bit-identical. (Cycle counts legitimately differ across quanta: wfi
// wake cycles are quantum boundaries.)
func TestIRQQuantumEquivalence(t *testing.T) {
	for _, mw := range irqWorkloads(4) {
		for _, arb := range []Arbitration{RoundRobin, FixedPriority} {
			for _, kind := range []string{KindISS, KindTranslated} {
				t.Run(fmt.Sprintf("%s/%v/%s", mw.Name, arb, kind), func(t *testing.T) {
					useISS := kind == KindISS
					opts := core.Options{}
					if !useISS {
						opts = core.Options{Level: core.Level3}
					}
					a := runIRQSoC(t, mw, 1, useISS, opts, platform.EngineCompiled, arb)
					b := runIRQSoC(t, mw, 64, useISS, opts, platform.EngineCompiled, arb)
					compareSnapshots(t, "q1-vs-q64", snapshotSoC(a), snapshotSoC(b), compareFunctional)
				})
			}
		}
	}
}

// TestIRQTimerTickCount pins the timer workload's semantics directly:
// every core takes exactly the configured number of timer interrupts
// (the saturating handler makes the count quantum-invariant) and spends
// real emulated time idle in wfi.
func TestIRQTimerTickCount(t *testing.T) {
	mw := workload.MCIRQTimer(2)
	s := runIRQSoC(t, mw, 16, false, core.Options{Level: core.Level2}, platform.EngineCompiled, RoundRobin)
	st := s.Results()
	for i, cr := range st.Cores {
		if cr.IRQsTaken < 6 {
			t.Errorf("core %d: %d interrupts, want >= 6 (6 ticks + coalesced wakes)", i, cr.IRQsTaken)
		}
		if cr.IdleCycles == 0 {
			t.Errorf("core %d: no wfi idle time recorded", i)
		}
	}
	if s.IRQ.Claims == 0 {
		t.Errorf("controller recorded no claims")
	}
}

// TestIRQConfigValidation covers the config error paths: every
// misconfiguration must be rejected by New with a direct error.
func TestIRQConfigValidation(t *testing.T) {
	mw := workload.MCIRQTimer(1)
	files := assembleMulti(t, mw)
	good := func() Config {
		return Config{
			Quantum: 1,
			Cores:   []CoreConfig{{Name: "c0", ELF: files[0], UseISS: true}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no-cores", func(c *Config) { c.Cores = nil }},
		{"quantum-zero", func(c *Config) { c.Quantum = 0 }},
		{"quantum-negative", func(c *Config) { c.Quantum = -3 }},
		{"bad-arbitration", func(c *Config) { c.Arbitration = Arbitration(7) }},
		{"bad-engine", func(c *Config) { c.Engine = platform.Engine(9) }},
		{"negative-bus-busy", func(c *Config) { c.BusBusyCycles = -1 }},
		{"negative-shared", func(c *Config) { c.SharedWords = -1 }},
		{"negative-counters", func(c *Config) { c.CounterRegs = -1 }},
		{"negative-max-cycles", func(c *Config) { c.MaxCycles = -1 }},
		{"iss-core-no-elf", func(c *Config) { c.Cores[0].ELF = nil }},
		{"translated-core-no-input", func(c *Config) { c.Cores[0].ELF = nil; c.Cores[0].UseISS = false }},
		{"parallel-unshadowable-device", func(c *Config) {
			c.Parallel = true
			c.ExtraDevices = []socbus.Device{opaqueDevice{}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good()
			tc.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Errorf("New accepted %s", tc.name)
			}
		})
	}
	// The unmutated config must pass.
	if _, err := New(good()); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	// A shadowable extra device must pass under Parallel.
	cfg := good()
	cfg.Parallel = true
	cfg.ExtraDevices = []socbus.Device{socbus.NewUART(4)}
	if _, err := New(cfg); err != nil {
		t.Fatalf("parallel config with shadowable device rejected: %v", err)
	}
}

// opaqueDevice is a bus device without shadow support — the parallel
// scheduler must reject it at Validate.
type opaqueDevice struct{}

func (opaqueDevice) Range() (uint32, uint32)                   { return 0xF0FF_0000, 0x100 }
func (opaqueDevice) Read(off uint32, cycle int64) uint32       { return 0 }
func (opaqueDevice) Write(off uint32, val uint32, cycle int64) {}

// TestIRQAllWaitingDeadlock pins the fail-fast deadlock diagnosis: a
// program that sleeps with no raiser must produce the deadlock error,
// not spin to the cycle limit.
func TestIRQAllWaitingDeadlock(t *testing.T) {
	w := workload.Workload{
		Name: "sleeper",
		Source: "\t.text\n\t.global _start\n_start:\tla\ta8, 0xF0130000\n\tmovi\td0, 1\n" +
			"\tst.w\td0, 4(a8)\n\tei\n\twfi\n\thalt\n__irq:\treti\n",
	}
	mw := workload.MultiWorkload{Name: "sleeper", Cores: []workload.Workload{w}}
	files := assembleMulti(t, mw)
	s, err := New(Config{Quantum: 4, Cores: []CoreConfig{{ELF: files[0], UseISS: true}}})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Run()
	if err == nil {
		t.Fatal("deadlocked SoC ran to completion")
	}
	if want := "deadlock"; !containsStr(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
