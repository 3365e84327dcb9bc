package cliutil

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// LogFlags carries the shared -log-level / -log-json flag values, so
// every cabt front-end exposes the same logging knobs.
type LogFlags struct {
	Level string
	JSON  bool
}

// RegisterLogFlags registers -log-level and -log-json on the default
// FlagSet. Call Setup after flag.Parse.
func RegisterLogFlags() *LogFlags {
	lf := &LogFlags{}
	flag.StringVar(&lf.Level, "log-level", "info", "minimum log level (debug, info, warn, error)")
	flag.BoolVar(&lf.JSON, "log-json", false, "emit logs as JSON lines instead of text")
	return lf
}

// Setup installs the process-default slog logger on stderr per the
// parsed flags, tagging every record with the program name. Simulation
// output (tables, reports) stays on stdout and is unaffected.
func (lf *LogFlags) Setup(prog string) error {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(lf.Level)); err != nil {
		return fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", lf.Level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if lf.JSON {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	slog.SetDefault(slog.New(h).With("prog", prog))
	return nil
}

// RegisterTraceFlag registers the shared -trace-out flag.
func RegisterTraceFlag() *string {
	return flag.String("trace-out", "",
		"record a run trace and write it as Chrome trace_event JSON to this file on exit ('-' = stdout)")
}

// StartTrace enables the global tracer when -trace-out was given.
func StartTrace(path string) {
	if path != "" {
		obs.Trace.SetEnabled(true)
	}
}

// WriteTrace dumps the recorded trace to the -trace-out path; a no-op
// when tracing was never requested.
func WriteTrace(path string) error {
	if path == "" {
		return nil
	}
	if d := obs.Trace.Dropped(); d > 0 {
		slog.Warn("trace ring overflowed, oldest events dropped", "dropped", d)
	}
	return obs.Trace.WriteChromeFile(path)
}

// ArmFaults arms the seeded fault plan in CABT_FAULTS (e.g.
// "default:seed=42"; see faultinject.Parse) when the variable is set.
func ArmFaults() error {
	spec := os.Getenv("CABT_FAULTS")
	if spec == "" {
		return nil
	}
	plan, err := faultinject.Parse(spec)
	if err != nil {
		return fmt.Errorf("CABT_FAULTS: %w", err)
	}
	faultinject.Activate(plan)
	slog.Warn("fault injection armed", "plan", plan.String())
	return nil
}
