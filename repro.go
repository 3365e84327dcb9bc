// Package repro is the public API of the reproduction of Schnerr,
// Bringmann and Rosenstiel, "Cycle Accurate Binary Translation for
// Simulation Acceleration in Rapid Prototyping of SoCs" (DATE 2005).
//
// The pipeline it exposes:
//
//	source (TC32 assembly) ──tc32asm──▶ ELF32 object
//	ELF32 ──iss──▶ reference run ("TC10GP evaluation board")
//	ELF32 ──core.Translate──▶ annotated C6x VLIW program
//	program ──platform──▶ emulation run (cycle generation + SoC bus)
//
// Measure and the Figure*/Table* helpers regenerate every figure and
// table of the paper's evaluation.
//
// Batch traffic runs on the simulation farm (internal/simfarm): a
// bounded worker pool with a content-addressed translation cache keyed
// on (ELF contents, translation options). MeasureTable1 and
// MeasureTable2 execute through the shared farm returned by Farm, so
// the paper's tables are produced by the same code path that serves
// sweeps; cmd/cabt-farm runs full workload × level × cache-config
// sweeps and emits JSON reports. Measure remains a direct, farm-free
// path and is the equivalence oracle the farm is tested against.
//
// The translation cache persists: with -cache-dir, cmd/cabt-farm, the
// benchmark harness and the cmd/cabt-serve HTTP service write translated
// programs through to a content-addressed on-disk store
// (internal/simfarm/store), so any process pointed at the same directory
// reuses every program translated before it. cabt-serve additionally
// namespaces the store per tenant. See README.md and
// docs/architecture.md.
//
// Multi-core SoC simulation lives in internal/soc: N cores (translated,
// or the reference ISS per core) advance in a configurable cycle
// quantum around a shared arbitrated bus with inter-core devices. The
// farm runs such jobs through simfarm.RunSoC, cmd/cabt-soc sweeps core
// count × quantum × arbitration, and cabt-serve accepts them at
// POST /v1/soc-jobs.
package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/iss"
	"repro/internal/march"
	"repro/internal/platform"
	"repro/internal/simfarm"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// sharedFarm serves the table helpers (MeasureTable1/MeasureTable2) and
// any other batch consumer in the process: repeated table regeneration
// reuses its content-addressed translation cache. Measure stays a
// direct, farm-free path and doubles as the equivalence oracle for the
// farm (see internal/simfarm's equivalence test).
var sharedFarm = simfarm.New(simfarm.Config{})

// Farm returns the process-wide simulation farm used by the table
// helpers. Callers running their own sweeps through it share its
// translation cache and memoized reference runs.
func Farm() *simfarm.Farm { return sharedFarm }

// Level re-exports the translator's cycle-accuracy detail level.
type Level = core.Level

// Detail levels of the generated code (Section 3.2 of the paper).
const (
	Level0 = core.Level0 // functional only ("C6x w/o cycle inf.")
	Level1 = core.Level1 // static prediction ("C6x with cycle inf.")
	Level2 = core.Level2 // + branch prediction correction
	Level3 = core.Level3 // + instruction cache simulation
)

// Clock rates of the evaluation setup, from the paper.
const (
	SourceClockHz = 48_000_000  // TriCore TC10GP evaluation board
	C6xClockHz    = 200_000_000 // C6x on the emulation platform
	FPGAClockHz   = 8_000_000   // full-core FPGA emulation (Table 2)
)

// Assemble assembles TC32 assembly into an ELF32 executable.
func Assemble(src string) (*elf32.File, error) { return tc32asm.Assemble(src) }

// Translate runs the cycle-accurate binary translator at the given level.
func Translate(f *elf32.File, level Level) (*core.Program, error) {
	return core.Translate(f, core.Options{Level: level})
}

// TranslateOpts exposes the full translator options.
func TranslateOpts(f *elf32.File, opts core.Options) (*core.Program, error) {
	return core.Translate(f, opts)
}

// RefResult is a reference-simulator run ("the evaluation board").
type RefResult struct {
	Stats  iss.Stats
	Output []uint32
}

// RunReference runs the cycle-accurate reference simulator.
func RunReference(f *elf32.File) (*RefResult, error) {
	s, err := iss.New(f, iss.Config{CycleAccurate: true})
	if err != nil {
		return nil, err
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	return &RefResult{Stats: s.Stats(), Output: s.Output()}, nil
}

// PlatResult is an emulation-platform run of a translated program.
type PlatResult struct {
	Stats  platform.Stats
	Output []uint32
}

// RunTranslated runs a translated program on the platform simulation.
func RunTranslated(prog *core.Program) (*PlatResult, error) {
	sys := platform.New(prog)
	if err := sys.Run(); err != nil {
		return nil, err
	}
	return &PlatResult{Stats: sys.Stats(), Output: sys.Output}, nil
}

// LevelRun is one (workload, level) measurement.
type LevelRun struct {
	Level           Level
	C6xCycles       int64   // platform execution cycles at 200 MHz
	GeneratedCycles int64   // emulated source cycles produced
	CPI             float64 // C6x cycles per source instruction (Table 1)
	MIPS            float64 // emulated-source MIPS at 200 MHz (Figure 5)
	DeviationPct    float64 // generated vs board cycles (Figure 6)
	Seconds         float64 // platform time (Table 2)
}

// Measurement is the full evaluation of one workload.
type Measurement struct {
	Name         string
	Instructions int64   // executed source instructions
	BoardCycles  int64   // reference cycles ("TC10GP evaluation board")
	BoardCPI     float64 // board cycles per instruction
	BoardMIPS    float64 // board-native MIPS at 48 MHz
	BoardSeconds float64
	Levels       map[Level]LevelRun
}

// Measure assembles, reference-runs and translate-runs one workload at
// the given levels, verifying functional equivalence along the way.
func Measure(w workload.Workload, levels ...Level) (*Measurement, error) {
	f, err := Assemble(w.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	ref, err := RunReference(f)
	if err != nil {
		return nil, fmt.Errorf("%s: reference: %w", w.Name, err)
	}
	if err := sameOutput(ref.Output, w.Expected); err != nil {
		return nil, fmt.Errorf("%s: reference %w", w.Name, err)
	}
	m := &Measurement{
		Name:         w.Name,
		Instructions: ref.Stats.Retired,
		BoardCycles:  ref.Stats.Cycles,
		Levels:       map[Level]LevelRun{},
	}
	m.BoardCPI = float64(m.BoardCycles) / float64(m.Instructions)
	m.BoardSeconds = float64(m.BoardCycles) / SourceClockHz
	m.BoardMIPS = float64(m.Instructions) / m.BoardSeconds / 1e6
	for _, level := range levels {
		prog, err := Translate(f, level)
		if err != nil {
			return nil, fmt.Errorf("%s L%d: %w", w.Name, int(level), err)
		}
		res, err := RunTranslated(prog)
		if err != nil {
			return nil, fmt.Errorf("%s L%d: %w", w.Name, int(level), err)
		}
		if err := sameOutput(res.Output, w.Expected); err != nil {
			return nil, fmt.Errorf("%s L%d: %w", w.Name, int(level), err)
		}
		lr := LevelRun{
			Level:           level,
			C6xCycles:       res.Stats.C6xCycles,
			GeneratedCycles: res.Stats.GeneratedCycles,
		}
		lr.CPI = float64(lr.C6xCycles) / float64(m.Instructions)
		lr.Seconds = float64(lr.C6xCycles) / C6xClockHz
		lr.MIPS = float64(m.Instructions) / lr.Seconds / 1e6
		if level >= Level1 {
			lr.DeviationPct = 100 * float64(lr.GeneratedCycles-m.BoardCycles) / float64(m.BoardCycles)
		}
		m.Levels[level] = lr
	}
	return m, nil
}

func sameOutput(got, want []uint32) error { return workload.SameOutput(got, want) }

// AllLevels lists the detail levels in the paper's presentation order.
func AllLevels() []Level { return []Level{Level0, Level1, Level2, Level3} }

// Workloads re-exports the benchmark set.
func Workloads() []workload.Workload { return workload.All() }

// SixWorkloads returns the six programs of Figures 5/6 and Table 1.
func SixWorkloads() []workload.Workload { return workload.Six() }

// WorkloadByName returns a named workload.
func WorkloadByName(name string) (workload.Workload, bool) { return workload.ByName(name) }

// DefaultDesc returns the TC32 microarchitecture description.
func DefaultDesc() *march.Desc { return march.Default() }
