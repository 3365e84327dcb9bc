// Command cabt-worker is one farm worker process of a distributed
// simulation farm: it registers with a cabt-serve control plane, leases
// translation/simulation tasks one at a time, executes them on a local
// single-worker farm, and reports results. Translations are read and
// written through the server's content-addressed store over HTTP, with
// an optional local disk store (-cache-dir) as a middle cache level, so
// a fleet of workers shares one translation cache. Execution is exactly
// the in-process farm path — results are bit-identical to a local run.
//
// On SIGTERM/SIGINT the worker finishes its in-flight task, reports it,
// and exits; a worker that dies abruptly (kill -9) simply stops
// heartbeating and the server re-runs its task elsewhere after the
// lease TTL.
//
// Usage:
//
//	cabt-serve -addr 127.0.0.1:8080 -cache-dir /var/cache/cabt &
//	cabt-worker -server http://127.0.0.1:8080 -name $(hostname)-1 &
//	cabt-worker -server http://127.0.0.1:8080 -name $(hostname)-2 &
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/faultinject"
	"repro/internal/simfarm/dist"
	"repro/internal/simfarm/store"
)

func main() {
	serverURL := flag.String("server", "http://127.0.0.1:8080", "cabt-serve base URL")
	name := flag.String("name", "", "worker name reported at registration (default host-pid)")
	cacheDir := flag.String("cache-dir", "", "local translation-store directory, the middle cache level (empty = memory + remote only)")
	cacheBudget := flag.Int64("cache-budget", 0, "local store size budget in bytes, LRU-evicted (0 = unbounded)")
	poll := flag.Duration("poll", 200*time.Millisecond, "idle sleep between empty lease polls")
	interp := flag.Bool("interp", false, "run translated programs on the packet interpreter instead of fused code")
	nofuse := flag.Bool("nofuse", false, "compile one packet per segment, folding nothing across packets (differential reference)")
	ephemeral := flag.Bool("ephemeral", false, "discard the in-memory cache after every task, forcing each task through the store levels")
	quiet := flag.Bool("quiet", false, "suppress per-task progress lines")
	logFlags := cliutil.RegisterLogFlags()
	flag.Parse()
	if err := logFlags.Setup("cabt-worker"); err != nil {
		fail(err)
	}

	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	// Chaos testing: CABT_FAULTS arms a seeded deterministic fault plan
	// in this worker — client-side network faults on every control-plane
	// and store request, plus the worker.complete.crash point (the
	// process exits with code 7; a supervisor loop restarts it and the
	// task re-runs after lease expiry).
	if spec := os.Getenv("CABT_FAULTS"); spec != "" {
		plan, err := faultinject.Parse(spec)
		if err != nil {
			fail(fmt.Errorf("CABT_FAULTS: %w", err))
		}
		faultinject.Activate(plan)
		slog.Warn("fault injection armed", "plan", plan.String())
	}

	cfg := dist.WorkerConfig{
		Server:    *serverURL,
		Name:      *name,
		Poll:      *poll,
		Engine:    cliutil.Engine(*interp, *nofuse),
		Ephemeral: *ephemeral,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...))
		}
	}
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir, store.Options{MaxBytes: *cacheBudget})
		if err != nil {
			fail(err)
		}
		cfg.Disk = st
		slog.Info("local store open", "dir", st.Dir(), "objects", st.Stats().Objects)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := dist.NewWorker(cfg)
	if err := w.Run(ctx); err != nil {
		fail(err)
	}
	st := w.StoreStats()
	slog.Info("worker done", "tasks", w.TasksDone(), "store_loads", st.Loads,
		"local_hits", st.LocalHits, "remote_hits", st.RemoteHits, "misses", st.Misses,
		"puts", st.Puts, "puts_skipped", st.PutsSkipped, "degraded", st.Degraded)
}

func fail(err error) {
	slog.Error(err.Error())
	os.Exit(1)
}
