// Command cabt-serve runs the simulation farm as an HTTP batch service:
// clients submit (workload × level × config) batches — or multi-core SoC
// sweeps — over the JSON API of internal/simfarm/server and poll for
// results. With -cache-dir the translation cache writes through to a
// persistent content-addressed store, so restarts and concurrent
// cabt-farm runs share translations; tenants (X-Cabt-Tenant header) get
// isolated cache namespaces within it. Finished job records are pruned
// by the retention policy (-retain-ttl, -retain-max), so the service can
// run indefinitely with bounded memory. The store itself is garbage
// collected by a background sweeper (-gc-interval, -gc-max-age) and on
// demand via the admin endpoints (GET /v1/admin/store inspects it,
// POST /v1/admin/gc?max-age=24h sweeps it). The admin endpoints touch
// the store shared by every tenant, so they stay disabled unless
// -admin-token is set and the request presents it in X-Cabt-Admin-Token.
//
// Durability and distribution: with a journal (by default
// <cache-dir>/journal.cabt when -cache-dir is set; -journal overrides,
// "none" disables) every batch is recorded durably and replayed on
// restart, so finished results survive a crash. It is one append-only
// file, compacted on each start; a directory there refuses to start.
// cabt-worker processes may register over HTTP and drain submitted
// batches through a leased work queue (-lease-ttl, -task-retries); with
// no workers registered the server executes in-process, bit-identically.
// Per-tenant submission rates can be capped with -rate-limit/-rate-burst
// (429 + Retry-After beyond them). On SIGTERM the server drains:
// submissions get 503, queued work is failed or finished, in-flight
// batches complete and are journaled, then the process exits.
//
// Usage:
//
//	cabt-serve -addr :8080 -cache-dir /var/cache/cabt -retain-ttl 24h \
//	           -gc-interval 1h -admin-token "$TOKEN"
//	curl -s -X POST localhost:8080/v1/jobs \
//	     -d '{"workloads":["gcd","sieve"],"levels":[1,3]}'
//	curl -s -X POST localhost:8080/v1/soc-jobs \
//	     -d '{"workloads":["mc-pingpong"],"core_counts":[4],"quanta":[1,64],"level":2}'
//	curl -s 'localhost:8080/v1/jobs/job-1?wait=1'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/v1/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/faultinject"
	"repro/internal/simfarm/server"
	"repro/internal/simfarm/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache-dir", "", "persistent translation-cache store directory (empty = in-memory only)")
	cacheBudget := flag.Int64("cache-budget", 0, "store size budget in bytes, LRU-evicted (0 = unbounded)")
	workers := flag.Int("workers", 0, "worker pool size per batch (0 = GOMAXPROCS)")
	retainTTL := flag.Duration("retain-ttl", 24*time.Hour, "prune finished job records older than this (0 = keep forever)")
	retainMax := flag.Int("retain-max", 10000, "keep at most this many finished job records per tenant (0 = unlimited)")
	gcInterval := flag.Duration("gc-interval", 0, "background store-GC sweep interval (0 = on-demand only, via POST /v1/admin/gc)")
	gcMaxAge := flag.Duration("gc-max-age", 0, "evict store objects not used within this window on each sweep (0 = budget-only GC)")
	adminToken := flag.String("admin-token", "", "enable /v1/admin endpoints for requests presenting this X-Cabt-Admin-Token (empty = disabled)")
	journal := flag.String("journal", "", "durable batch journal path (default <cache-dir>/journal.cabt; \"none\" disables)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "distributed task lease TTL: an unheartbeated task is re-run elsewhere after this")
	taskRetries := flag.Int("task-retries", 3, "distributed per-task delivery budget before the task is failed")
	rateLimit := flag.Float64("rate-limit", 0, "per-tenant job submissions per second, 429 beyond (0 = unlimited)")
	rateBurst := flag.Int("rate-burst", 10, "rate limiter burst size")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "graceful-shutdown budget for in-flight batches on SIGTERM")
	logFlags := cliutil.RegisterLogFlags()
	flag.Parse()
	if err := logFlags.Setup("cabt-serve"); err != nil {
		fail(err)
	}

	// Chaos testing: disk, crash and server-side network faults fire here.
	if err := cliutil.ArmFaults(); err != nil {
		fail(err)
	}

	cfg := server.Config{
		Workers: *workers, AdminToken: *adminToken,
		RetainTTL: *retainTTL, RetainMax: *retainMax,
		LeaseTTL: *leaseTTL, TaskRetries: *taskRetries,
		RateLimit: *rateLimit, RateBurst: *rateBurst,
	}
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir, store.Options{MaxBytes: *cacheBudget})
		if err != nil {
			fail(err)
		}
		cfg.Store = st
		slog.Info("translation store open", "dir", st.Dir(), "objects", st.Stats().Objects)
		if *gcInterval > 0 {
			stop := st.StartSweeper(*gcInterval, *gcMaxAge)
			defer stop()
			slog.Info("store GC sweeper started", "interval", *gcInterval, "max_age", *gcMaxAge)
		}
	}
	switch {
	case *journal == "none":
	case *journal != "":
		cfg.Journal = *journal
	case *cacheDir != "":
		cfg.Journal = filepath.Join(*cacheDir, "journal.cabt")
	}

	farm, err := server.New(cfg)
	if err != nil {
		fail(err)
	}
	defer farm.Close()
	if cfg.Journal != "" {
		slog.Info("journal open", "path", cfg.Journal)
	}

	// Server-side network faults (delays, drops, 503s) apply only to the
	// worker control plane and store protocol: the tenant job API stays
	// clean so a chaos run's results remain byte-comparable to a
	// fault-free one — the whole point of the soak.
	var handler http.Handler = farm
	handler = faultinject.Middleware(handler, func(r *http.Request) bool {
		return strings.HasPrefix(r.URL.Path, "/v1/workers/") || strings.HasPrefix(r.URL.Path, "/v1/store/")
	})

	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	slog.Info("listening", "addr", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fail(err)
	case s := <-sig:
		slog.Info("signal received, draining", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Drain first — stop admitting, finish in-flight batches, flush
		// the journal — then close the listener.
		if err := farm.Drain(ctx); err != nil {
			slog.Warn("drain incomplete", "err", err)
		}
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fail(err)
		}
		slog.Info("drained, exiting")
	}
}

func fail(err error) {
	slog.Error(err.Error())
	os.Exit(1)
}
