package soc

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/socbus"
	"repro/internal/workload"
)

// The parallel scheduler's contract is bit-identity with the sequential
// scheduler — not approximate equivalence. The torture matrix below
// runs every multi-core workload under both schedulers across engines,
// quanta and arbitration policies and compares everything observable:
// outputs, registers, cycle counts, CPI, bus traffic and wait-states,
// interrupt delivery, device statistics, and the complete bus
// transaction log.

// engineMode names one execution-engine column of the matrix.
type engineMode struct {
	name   string
	useISS []bool
	opts   core.Options
	engine platform.Engine
}

func engineModes() []engineMode {
	return []engineMode{
		{"iss", []bool{true}, core.Options{}, platform.EngineCompiled},
		{"interp", []bool{false}, core.Options{Level: core.Level3}, platform.EngineInterp},
		{"compiled", []bool{false}, core.Options{Level: core.Level3}, platform.EngineCompiled},
		{"compiled-nofuse", []bool{false}, core.Options{Level: core.Level3}, platform.EngineCompiledNoFuse},
		{"mixed", []bool{false, true}, core.Options{Level: core.Level3}, platform.EngineCompiled},
	}
}

// buildParCfg builds one matrix cell's configuration.
func buildParCfg(t *testing.T, mw workload.MultiWorkload, quantum int64, em engineMode, arb Arbitration, parallel bool) Config {
	t.Helper()
	cfg := buildConfig(t, mw, quantum, em.useISS, em.opts)
	cfg.Engine = em.engine
	cfg.Arbitration = arb
	cfg.Parallel = parallel
	return cfg
}

func mustRun(t *testing.T, cfg Config, label string) *System {
	t.Helper()
	s, _ := mustRunLogged(t, cfg, label)
	return s
}

// mustRunLogged also records, in order, the transactions the live bus
// performed.
func mustRunLogged(t *testing.T, cfg Config, label string) (*System, []socbus.Transaction) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", label, err)
	}
	var log []socbus.Transaction
	s.Bus.Trace = func(tx socbus.Transaction) { log = append(log, tx) }
	if err := s.Run(); err != nil {
		t.Fatalf("%s: Run: %v", label, err)
	}
	return s, log
}

// compareWorlds demands complete observable equality between a
// sequential and a parallel run of the same configuration.
func compareWorlds(t *testing.T, label string, seq, par *System, seqLog, parLog []socbus.Transaction) {
	t.Helper()
	compareSnapshots(t, label, snapshotSoC(seq), snapshotSoC(par), compareFull)
	if a, b := seq.Results(), par.Results(); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: Stats differ:\nseq: %+v\npar: %+v", label, a, b)
	}
	if !reflect.DeepEqual(seqLog, parLog) {
		t.Errorf("%s: bus transaction logs differ (%d vs %d entries)", label, len(seqLog), len(parLog))
	}
	type devStats struct {
		SharedReads, SharedWrites      int64
		Posts, Pops, Overruns          int64
		Adds                           int64
		Raises, Acks, Claims, Spurious int64
		Unmapped                       int
	}
	stats := func(s *System) devStats {
		return devStats{
			SharedReads: s.Shared.Reads, SharedWrites: s.Shared.Writes,
			Posts: s.Mail.Posts, Pops: s.Mail.Pops, Overruns: s.Mail.Overruns,
			Adds:   s.Counters.Adds,
			Raises: s.IRQ.Raises, Acks: s.IRQ.Acks, Claims: s.IRQ.Claims, Spurious: s.IRQ.Spurious,
			Unmapped: s.Bus.Unmapped,
		}
	}
	if a, b := stats(seq), stats(par); a != b {
		t.Errorf("%s: device statistics differ:\nseq: %+v\npar: %+v", label, a, b)
	}
}

// parallelWorkloads is the torture set: every mc-* and mc-irq-*
// workload at a core count that exercises real cross-core traffic.
func parallelWorkloads() []workload.MultiWorkload {
	ws := workload.MCAll(4)
	ws = append(ws, irqWorkloads(3)...)
	return ws
}

// TestParallelTortureMatrix is the differential torture matrix: every
// multi-core workload × engine mode × quantum × arbitration policy,
// sequential vs parallel, zero tolerance.
func TestParallelTortureMatrix(t *testing.T) {
	quanta := []int64{1, 16, 64}
	arbs := []Arbitration{RoundRobin, FixedPriority}
	if testing.Short() {
		quanta = []int64{16}
		arbs = []Arbitration{RoundRobin}
	}
	for _, mw := range parallelWorkloads() {
		for _, em := range engineModes() {
			for _, quantum := range quanta {
				for _, arb := range arbs {
					name := fmt.Sprintf("%s/%s/q%d/%v", mw.Name, em.name, quantum, arb)
					t.Run(name, func(t *testing.T) {
						seq, seqLog := mustRunLogged(t, buildParCfg(t, mw, quantum, em, arb, false), name+"/seq")
						par, parLog := mustRunLogged(t, buildParCfg(t, mw, quantum, em, arb, true), name+"/par")
						verifyOutputs(t, mw, par, name)
						compareWorlds(t, name, seq, par, seqLog, parLog)
					})
				}
			}
		}
	}
}

// TestParallelDeterminismStress re-runs one parallel configuration
// repeatedly under GOMAXPROCS 1, 2 and 8 and requires bit-identical
// results every time: goroutine scheduling must never reach an
// architectural observable.
func TestParallelDeterminismStress(t *testing.T) {
	mw := workload.MCPingPong(4)
	reps := 3
	if testing.Short() {
		reps = 1
	}
	var ref Stats
	var refLog int
	first := true
	for _, procs := range []int{1, 2, 8} {
		old := runtime.GOMAXPROCS(procs)
		for r := 0; r < reps; r++ {
			cfg := buildParCfg(t, mw, 16, engineModes()[3], RoundRobin, true)
			s, log := mustRunLogged(t, cfg, fmt.Sprintf("procs%d/rep%d", procs, r))
			st := s.Results()
			if first {
				ref, refLog, first = st, len(log), false
				continue
			}
			if !reflect.DeepEqual(ref, st) {
				t.Errorf("GOMAXPROCS=%d rep %d: results diverged:\nref: %+v\ngot: %+v", procs, r, ref, st)
			}
			if len(log) != refLog {
				t.Errorf("GOMAXPROCS=%d rep %d: bus log length %d, want %d", procs, r, len(log), refLog)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestParallelSingleCore pins the degenerate configurations: one core
// (parallel falls through to the sequential scheduler) and a quantum of
// 1 (every quantum is contended, maximally stressing rollback).
func TestParallelSingleCore(t *testing.T) {
	mw := workload.MCShardedSieve(1)
	cfg := buildConfig(t, mw, 16, []bool{true}, core.Options{})
	cfg.Parallel = true
	s := mustRun(t, cfg, "single")
	verifyOutputs(t, mw, s, "single-core parallel")
}

// TestParallelContentionWindow is the quantum-skew regression test for
// the windowed arbiter. Under the old single busy-until clock, the
// contention stressor's bus wait-states exploded with the quantum (a
// core serviced late in a large quantum queued behind occupancy far in
// its own future). Slot packing makes contention accounting
// quantum-stable: the waits charged at quantum 64 must stay within a
// small factor of the quantum-1 oracle's, for both schedulers.
func TestParallelContentionWindow(t *testing.T) {
	mw := workload.MCContention(4)
	waits := func(quantum int64, parallel bool) int64 {
		cfg := buildConfig(t, mw, quantum, []bool{true}, core.Options{})
		cfg.BusBusyCycles = 2
		cfg.Parallel = parallel
		s := mustRun(t, cfg, fmt.Sprintf("contention q%d", quantum))
		verifyOutputs(t, mw, s, "contention")
		return s.Results().BusWaitCycles
	}
	w1 := waits(1, false)
	if w1 == 0 {
		t.Fatal("contention stressor charged no wait-states at quantum 1")
	}
	for _, parallel := range []bool{false, true} {
		w64 := waits(64, parallel)
		if w64 == 0 {
			t.Errorf("parallel=%v: no wait-states at quantum 64", parallel)
		}
		// The pre-window arbiter charged an order of magnitude more at
		// quantum 64 than at quantum 1; the window keeps them comparable.
		if w64 > 2*w1 || w64 < w1/2 {
			t.Errorf("parallel=%v: quantum-64 waits %d not within 2x of quantum-1 waits %d", parallel, w64, w1)
		}
	}
}
