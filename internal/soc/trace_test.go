package soc

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/socbus"
	"repro/internal/workload"
)

// runTraced runs one configuration with the global tracer in the given
// state and returns the system, its bus transaction log and the captured
// event stream.
func runTraced(t *testing.T, cfg Config, label string, traced bool) (*System, []socbus.Transaction, []obs.Event) {
	t.Helper()
	obs.Trace.Reset()
	obs.Trace.SetEnabled(traced)
	defer obs.Trace.SetEnabled(false)
	s, log := mustRunLogged(t, cfg, label)
	return s, log, obs.Trace.Events()
}

// TestTracingIsObservationOnly is the determinism contract of the trace
// layer: enabling the tracer must not change a single simulation
// observable on either scheduler, and — because SoC events are
// timestamped on the emulated clock and emitted only from the scheduler
// goroutine — two traced runs of the same configuration must produce
// identical event streams.
func TestTracingIsObservationOnly(t *testing.T) {
	for _, mw := range []workload.MultiWorkload{workload.MCPingPong(4), workload.MCIRQTimer(3)} {
		for _, parallel := range []bool{false, true} {
			label := mw.Name
			if parallel {
				label += "/par"
			}
			cfg := buildParCfg(t, mw, 64, engineModes()[2], RoundRobin, parallel)

			plain, plainLog, none := runTraced(t, cfg, label+"/untraced", false)
			if len(none) != 0 {
				t.Fatalf("%s: disabled tracer captured %d events", label, len(none))
			}
			traced, tracedLog, events := runTraced(t, cfg, label+"/traced", true)
			traced2, _, events2 := runTraced(t, cfg, label+"/traced2", true)

			if a, b := plain.Results(), traced.Results(); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: tracing changed results:\noff: %+v\non:  %+v", label, a, b)
			}
			if !reflect.DeepEqual(plainLog, tracedLog) {
				t.Errorf("%s: tracing changed the bus transaction log", label)
			}
			if !reflect.DeepEqual(events, events2) {
				t.Errorf("%s: two traced runs emitted different event streams (%d vs %d events)",
					label, len(events), len(events2))
			}
			if a, b := traced.Results(), traced2.Results(); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: traced runs disagree with each other", label)
			}
			checkTraceShape(t, label, cfg, events, parallel, traced)
		}
	}
}

// checkTraceShape validates the structural invariants of a SoC event
// stream: quantum spans tile the scheduler row in emulated-clock order,
// per-core rows stay within the core range, IRQ-driven workloads record
// deliveries, and on the parallel scheduler the commit/rollback spans
// agree exactly with SpecStats.
func checkTraceShape(t *testing.T, label string, cfg Config, events []obs.Event, parallel bool, s *System) {
	t.Helper()
	if len(events) == 0 {
		t.Errorf("%s: traced run captured no events", label)
		return
	}
	var quanta, irqs int
	var commits, rollbacks int64
	lastEnd := int64(-1)
	for _, e := range events {
		if e.TID < -1 || e.TID >= int64(len(cfg.Cores)) {
			t.Errorf("%s: event %q on row %d, outside [-1, %d)", label, e.Name, e.TID, len(cfg.Cores))
		}
		switch e.Name {
		case "quantum":
			quanta++
			if e.Ph != obs.PhaseComplete || e.TID != -1 {
				t.Errorf("%s: quantum event must be a scheduler-row span: %+v", label, e)
			}
			if e.TS < lastEnd {
				t.Errorf("%s: quantum span at %d overlaps previous end %d", label, e.TS, lastEnd)
			}
			lastEnd = e.TS + e.Dur
		case "irq":
			irqs++
			if e.Ph != obs.PhaseInstant {
				t.Errorf("%s: irq event must be an instant: %+v", label, e)
			}
		case "commit":
			commits++
		default:
			if len(e.Name) > 9 && e.Name[:9] == "rollback:" {
				rollbacks++
			}
		}
	}
	if quanta == 0 {
		t.Errorf("%s: no quantum spans in trace", label)
	}
	if s.IRQ != nil && s.IRQ.Claims > 0 && irqs == 0 {
		t.Errorf("%s: cores took interrupts but the trace has no irq events", label)
	}
	if !parallel && (commits+rollbacks) > 0 {
		t.Errorf("%s: sequential run emitted %d speculation events", label, commits+rollbacks)
	}
	if parallel {
		cs, rs, _ := s.SpecStats()
		var wantC, wantR int64
		for i := range cs {
			wantC += cs[i]
			wantR += rs[i]
		}
		// The ring may have dropped early events on long runs; only demand
		// exact agreement when nothing was dropped.
		if obs.Trace.Dropped() == 0 && (commits != wantC || rollbacks != wantR) {
			t.Errorf("%s: trace has %d commits / %d rollbacks, SpecStats says %d / %d",
				label, commits, rollbacks, wantC, wantR)
		}
	}

	// The stream must round-trip through the Chrome writer as valid JSON.
	var buf bytes.Buffer
	if err := obs.Trace.WriteChrome(&buf); err != nil {
		t.Fatalf("%s: WriteChrome: %v", label, err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("%s: Chrome trace is not valid JSON: %v", label, err)
	}
	if len(doc.TraceEvents) != len(events) {
		t.Errorf("%s: Chrome dump has %d events, captured %d", label, len(doc.TraceEvents), len(events))
	}
}
