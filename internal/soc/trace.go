package soc

import (
	"strconv"

	"repro/internal/obs"
)

// Telemetry for the SoC schedulers. Everything here strictly observes:
// trace events and counters are derived from state the schedulers
// already maintain and never feed anything back, so enabling tracing
// cannot change a simulation result (-det output stays byte-identical).
//
// All events are emitted from the scheduler goroutine only — the
// speculative lanes never emit, so a rolled-back lane leaves no
// phantom events to retract — and are timestamped on the emulated
// clock (1 trace µs = 1 source cycle), which makes traces of a
// deterministic workload deterministic too.

// socTrace is the per-System trace state: previous-quantum counter
// snapshots for delta events. Allocated only when tracing is enabled
// at Run time.
type socTrace struct {
	prevIRQ   []int64
	prevGrant []int64
	prevWait  []int64
}

// traceInit arms per-run tracing when the global tracer is recording.
func (s *System) traceInit() {
	if !obs.Trace.Enabled() || s.trc != nil {
		return
	}
	n := len(s.cores)
	s.trc = &socTrace{
		prevIRQ:   make([]int64, n),
		prevGrant: make([]int64, n),
		prevWait:  make([]int64, n),
	}
	for i, c := range s.cores {
		s.trc.prevIRQ[i] = c.Counts().IRQsTaken
		s.trc.prevGrant[i] = s.Arb.Grants(i)
		s.trc.prevWait[i] = s.Arb.Waits(i)
	}
}

// traceQuantum emits the events of one serviced quantum: the quantum
// span on the scheduler row (tid -1), an IRQ-delivery instant on each
// core row whose delivered-interrupt count advanced, and a bus counter
// sample on each core row whose arbiter grants or wait-states moved.
func (s *System) traceQuantum(q, start, target int64) {
	t := s.trc
	obs.Trace.Emit(obs.Event{
		Name: "quantum", Cat: "soc", Ph: obs.PhaseComplete,
		TS: start, Dur: target - start, TID: -1,
		Args: [3]obs.Arg{{Key: "q", Val: q}},
	})
	for i, c := range s.cores {
		if irqs := c.Counts().IRQsTaken; irqs > t.prevIRQ[i] {
			obs.Trace.Emit(obs.Event{
				Name: "irq", Cat: "soc", Ph: obs.PhaseInstant,
				TS: target, TID: int64(i),
				Args: [3]obs.Arg{{Key: "delivered", Val: irqs - t.prevIRQ[i]}},
			})
			t.prevIRQ[i] = irqs
		}
		g, w := s.Arb.Grants(i), s.Arb.Waits(i)
		if g != t.prevGrant[i] || w != t.prevWait[i] {
			obs.Trace.Emit(obs.Event{
				Name: "bus", Cat: "soc", Ph: obs.PhaseCounter,
				TS: target, TID: int64(i),
				Args: [3]obs.Arg{
					{Key: "grants", Val: g - t.prevGrant[i]},
					{Key: "wait_cycles", Val: w - t.prevWait[i]},
				},
			})
			t.prevGrant[i], t.prevWait[i] = g, w
		}
	}
}

// traceSpec emits one speculation outcome (commit, or rollback with its
// cause and sequential re-run) as a span covering the quantum on the
// core's row.
func traceSpec(name string, ci int, start, target int64) {
	obs.Trace.Emit(obs.Event{
		Name: name, Cat: "soc", Ph: obs.PhaseComplete,
		TS: start, Dur: target - start, TID: int64(ci),
	})
}

// SpecStats reports the parallel scheduler's cumulative per-core
// speculation outcomes: lanes committed, lanes rolled back, and
// sequential re-runs after rollback (rollbacks exceed reruns only when
// a run aborted on an error). All nil before the first parallel Run.
// Deliberately not part of Results: the sequential and parallel
// schedulers must produce byte-identical result JSON.
func (s *System) SpecStats() (commits, rollbacks, reruns []int64) {
	if s.par == nil {
		return nil, nil, nil
	}
	pr := s.par
	return append([]int64(nil), pr.specCommits...),
		append([]int64(nil), pr.specRollbacks...),
		append([]int64(nil), pr.specReruns...)
}

// flushObs publishes speculation-outcome deltas accumulated since the
// last flush into the process-global registry, labeled by core.
func (pr *parRuntime) flushObs(s *System) {
	for i := range pr.lanes {
		core := s.cores[i].name + "#" + strconv.Itoa(i)
		if d := pr.specCommits[i] - pr.flushedCommits[i]; d > 0 {
			obs.Default.Counter("cabt_soc_spec_commits_total",
				"speculative lanes committed", "core", core).Add(d)
			pr.flushedCommits[i] = pr.specCommits[i]
		}
		if d := pr.specRollbacks[i] - pr.flushedRollbacks[i]; d > 0 {
			obs.Default.Counter("cabt_soc_spec_rollbacks_total",
				"speculative lanes rolled back", "core", core).Add(d)
			pr.flushedRollbacks[i] = pr.specRollbacks[i]
		}
		if d := pr.specReruns[i] - pr.flushedReruns[i]; d > 0 {
			obs.Default.Counter("cabt_soc_spec_reruns_total",
				"sequential re-runs after rollback", "core", core).Add(d)
			pr.flushedReruns[i] = pr.specReruns[i]
		}
	}
}
