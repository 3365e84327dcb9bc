package server

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/simfarm"
	"repro/internal/simfarm/dist"
	"repro/internal/simfarm/store"
)

// This file is the server's distribution layer: running every batch
// through the leased work queue and the server's in-process lessees,
// replaying the durable journal on startup, the /v1/metrics endpoint,
// submission admission (drain + rate limit) and graceful shutdown.

// admitSubmission applies the submission gates shared by /v1/jobs and
// /v1/soc-jobs: a draining server refuses new work outright (503, so a
// load balancer retries elsewhere), and a tenant over its rate limit
// gets 429 with Retry-After.
func (s *Server) admitSubmission(w http.ResponseWriter, tenant string) bool {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	if ok, retry := s.limiter.Allow(tenant); !ok {
		s.rateLimited.Add(1)
		secs := int(math.Ceil(retry.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		httpError(w, http.StatusTooManyRequests, "rate limit exceeded, retry in %ds", secs)
		return false
	}
	return true
}

// journalAppend records rec if a journal is configured. Append failure
// (disk full, yanked volume) must not fail the batch — the results
// still live in memory — so it degrades to a logged warning.
func (s *Server) journalAppend(rec dist.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		slog.Warn("journal append failed", "id", rec.ID, "err", err)
	}
}

// replayJournal rebuilds the job table from the journal: fold records
// by batch ID (duplicates are idempotent), fail batches that were still
// running when the previous process died, apply retention, and compact
// the file so it does not grow across restarts. Called from New before
// the server accepts traffic.
func (s *Server) replayJournal() {
	now := s.now()
	s.mu.Lock()
	for _, r := range s.journal.Records() {
		if n := idNumber(r.ID); n > s.nextID {
			s.nextID = n
		}
		rec := s.jobs[r.ID]
		if rec == nil {
			// Normally created by the Submitted record; a Finished or
			// Failed whose Submitted was lost to tail damage still
			// carries everything the record needs.
			rec = &jobRecord{id: r.ID, tenant: r.Tenant, created: r.Time, kind: r.Kind, jobs: r.Jobs, done: make(chan struct{})}
			s.jobs[r.ID] = rec
			s.submitted++
		}
		finished := func() bool {
			select {
			case <-rec.done:
				return true
			default:
				return false
			}
		}
		switch r.Type {
		case dist.RecordFinished:
			if finished() {
				continue // duplicate replay
			}
			rec.results = r.Results
			if r.Stats != nil {
				rec.stats = *r.Stats
			}
			rec.socResults = r.SoCResults
			if r.SoCStats != nil {
				rec.socStats = *r.SoCStats
			}
			rec.finished = r.Time
			close(rec.done)
		case dist.RecordFailed:
			if finished() {
				continue
			}
			rec.err = r.Error
			rec.finished = r.Time
			close(rec.done)
		}
	}

	// A batch submitted but never finished was executing in the previous
	// process; its in-flight state died with it. Fail it durably so the
	// submitter gets a definitive answer instead of "running" forever.
	for _, rec := range s.jobs {
		select {
		case <-rec.done:
		default:
			rec.err = "interrupted by server restart"
			rec.finished = now
			close(rec.done)
			s.journalAppend(rec.journalRecord(dist.RecordFailed, now))
		}
	}

	s.prune(now)

	// Compact: rewrite the journal as exactly the surviving records, in
	// ID order, two records per batch. Replayed-and-pruned batches stop
	// being resurrected, and the file stays proportional to retention.
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return idNumber(ids[i]) < idNumber(ids[j]) })
	var recs []dist.Record
	for _, id := range ids {
		rec := s.jobs[id]
		outcome := dist.RecordFinished
		if rec.err != "" {
			outcome = dist.RecordFailed
		}
		recs = append(recs, rec.journalRecord(dist.RecordSubmitted, rec.created), rec.journalRecord(outcome, rec.finished))
	}
	s.mu.Unlock()
	if err := s.journal.Compact(recs); err != nil {
		slog.Warn("journal compact failed", "err", err)
	}
}

// idNumber extracts N from "job-N" (0 when malformed).
func idNumber(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}

// startSweeper runs periodic lease expiry until the returned stop
// function is called. Its tick is also what wakes the in-process
// lessees when the last remote worker falls silent: liveness runs out
// without any queue event.
func (s *Server) startSweeper() (stop func()) {
	interval := s.queue.LeaseTTL() / 2
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.queue.Expire()
			}
		}
	}()
	return func() { close(done) }
}

// --- execution ---

// lessee is one in-process lessee of the server's queue: it runs the
// tasks of batch that the lease rule gives it (dist.Queue.Take) on the
// server's farm, until every task of the batch is delivered or Close.
func (s *Server) lessee(batch string) {
	defer s.lessees.Done()
	for task := s.queue.Take(batch); task != nil; task = s.queue.Take(batch) {
		s.queue.Complete(dist.InProcess, dist.Execute(s.farm, task))
	}
}

// runSim executes a single-core batch.
func (s *Server) runSim(rec *jobRecord, jobs []simfarm.Job) ([]simfarm.Result, simfarm.BatchStats) {
	results, wall, workers := fanOut(s, rec, jobs,
		func(t *dist.Task, j *simfarm.Job) { t.Kind, t.Sim = dist.KindSim, j },
		func(tr dist.TaskResult, j *simfarm.Job) simfarm.Result {
			if tr.Err != "" || tr.Sim == nil {
				return simfarm.Result{Index: tr.Index, Name: j.Workload.Name, Level: j.Options.Level, Config: j.Config, Error: failure(tr)}
			}
			r := *tr.Sim
			r.Index = tr.Index
			r.SetCounts(tr.Counts)
			return r
		})
	return results, simfarm.SummarizeResults(results, wall, workers)
}

// runSoC is runSim for multi-core batches.
func (s *Server) runSoC(rec *jobRecord, jobs []simfarm.SoCJob) ([]simfarm.SoCResult, simfarm.SoCBatchStats) {
	results, wall, workers := fanOut(s, rec, jobs,
		func(t *dist.Task, j *simfarm.SoCJob) { t.Kind, t.SoC = dist.KindSoC, j },
		func(tr dist.TaskResult, j *simfarm.SoCJob) simfarm.SoCResult {
			if tr.Err != "" || tr.SoC == nil {
				return simfarm.SoCResult{Index: tr.Index, Name: j.Name, Config: j.Config, CoreCount: len(j.Cores),
					Quantum: j.Quantum, Arbitration: j.Arbitration.String(), Error: failure(tr)}
			}
			r := *tr.SoC
			r.Index = tr.Index
			r.SetCounts(tr.Counts)
			return r
		})
	return results, simfarm.SummarizeSoCResults(results, wall, workers)
}

// fanOut runs a batch's jobs as tasks on the queue, with the batch's
// in-process lessees beside any remote workers, adds their counts to
// the tenant's tally, and returns the results in job order with the
// wall time and executor count: the live remote workers, or the
// in-process lessees' pool size when there are none. payload sets a
// task's kind and job; result turns a finished task into its job's
// result.
func fanOut[J, R any](s *Server, rec *jobRecord, jobs []J, payload func(*dist.Task, *J),
	result func(dist.TaskResult, *J) R) ([]R, time.Duration, int) {
	start := time.Now()
	workers := cmp.Or(s.queue.LiveWorkers(), s.farm.Workers())
	tasks := make([]dist.Task, len(jobs))
	for i := range jobs {
		tasks[i] = dist.Task{Batch: rec.id, Index: i, Tenant: rec.tenant}
		payload(&tasks[i], &jobs[i])
	}
	results := make([]R, len(jobs))
	ch := s.queue.Enqueue(tasks)
	// As many lessees as one batch ran on before the queue was its only
	// path: a cap shared by all batches queues a warm batch's jobs
	// behind a cold one's, blocked on store writes.
	for range min(s.farm.Workers(), len(jobs)) {
		s.lessees.Add(1)
		go s.lessee(rec.id)
	}
	var counts simfarm.FarmStats
	for range jobs {
		tr := <-ch
		results[tr.Index] = result(tr, &jobs[tr.Index])
		counts.Add(tr.Counts)
	}
	s.mu.Lock()
	t := s.tenants[rec.tenant]
	t.Add(counts)
	s.tenants[rec.tenant] = t
	s.mu.Unlock()
	return results, time.Since(start), workers
}

// failure is the Error of a task that failed or brought back no result.
func failure(tr dist.TaskResult) string {
	return "execution failed: " + cmp.Or(tr.Err, "no result")
}

// --- shutdown ---

// Drain gracefully quiesces the server: new submissions are refused
// (503), remote workers get no new leases, the in-process lessees take
// every pending task, and Drain waits — up to ctx — for every running
// batch to finish and be journaled. Tasks leased to workers complete
// there. After a clean Drain, a restart replays every batch as
// finished.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Drain()
	s.mu.Lock()
	running := make([]*jobRecord, 0)
	for _, rec := range s.jobs {
		select {
		case <-rec.done:
		default:
			running = append(running, rec)
		}
	}
	s.mu.Unlock()
	for _, rec := range running {
		select {
		case <-rec.done:
		case <-ctx.Done():
			return fmt.Errorf("drain: %d batches still running: %w", stillRunning(running), ctx.Err())
		}
	}
	return nil
}

func stillRunning(recs []*jobRecord) int {
	n := 0
	for _, rec := range recs {
		select {
		case <-rec.done:
		default:
			n++
		}
	}
	return n
}

// --- metrics ---

// registerMetrics wires the server's state into its obs registry as
// Func bridges sampled at scrape time — never double-counted against
// the stats the queue, store and job table already maintain. Every
// pre-existing /v1/metrics series keeps its exact name and integral
// rendering, so line-oriented consumers (grep-based smoke checks) keep
// working across the move to full Prometheus exposition.
func (s *Server) registerMetrics() {
	reg := s.reg
	gauge := func(name, help string, fn func() float64) { reg.Func(name, help, obs.KindGauge, fn) }
	counter := func(name, help string, fn func() float64) { reg.Func(name, help, obs.KindCounter, fn) }

	gauge("cabt_up", "server is serving", func() float64 { return 1 })
	gauge("cabt_uptime_seconds", "seconds since server start",
		func() float64 { return float64(int64(time.Since(s.start).Seconds())) })
	gauge("cabt_draining", "1 while the server refuses new submissions",
		func() float64 { return float64(b2i(s.draining.Load())) })
	gauge("cabt_tenants", "tenants seen",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.tenants)) })
	counter("cabt_jobs_submitted_total", "batches submitted",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.submitted) })
	gauge("cabt_jobs_running", "batches currently executing",
		func() float64 { r, _, _ := s.jobCounts(); return float64(r) })
	gauge("cabt_jobs_done", "retained batches that finished cleanly",
		func() float64 { _, d, _ := s.jobCounts(); return float64(d) })
	gauge("cabt_jobs_failed", "retained batches that failed",
		func() float64 { _, _, f := s.jobCounts(); return float64(f) })
	counter("cabt_rate_limited_total", "submissions refused by the rate limiter",
		func() float64 { return float64(s.rateLimited.Load()) })

	qstat := func(f func(dist.QueueStats) int64) func() float64 {
		return func() float64 { return float64(f(s.queue.Stats())) }
	}
	gauge("cabt_queue_pending", "tasks waiting for a lease", qstat(func(q dist.QueueStats) int64 { return int64(q.Pending) }))
	gauge("cabt_queue_leased", "tasks currently leased", qstat(func(q dist.QueueStats) int64 { return int64(q.Leased) }))
	counter("cabt_queue_enqueued_total", "tasks enqueued", qstat(func(q dist.QueueStats) int64 { return q.Enqueued }))
	counter("cabt_queue_completed_total", "tasks completed", qstat(func(q dist.QueueStats) int64 { return q.Completed }))
	counter("cabt_queue_lease_expiries_total", "leases expired", qstat(func(q dist.QueueStats) int64 { return q.Expiries }))
	counter("cabt_queue_retries_total", "task redeliveries after a remote expiry or failure", qstat(func(q dist.QueueStats) int64 { return q.Retries }))
	gauge("cabt_workers_live", "remote workers with a fresh heartbeat", qstat(func(q dist.QueueStats) int64 { return int64(q.LiveWorkers) }))

	if s.journal != nil {
		gauge("cabt_journal_repaired_bytes", "damaged journal bytes discarded by the repair at open",
			func() float64 { return float64(s.journal.Repaired()) })
	}

	if s.cfg.Store != nil {
		sstat := func(f func(store.Stats) int64) func() float64 {
			return func() float64 { return float64(f(s.cfg.Store.Stats())) }
		}
		gauge("cabt_store_objects", "objects in the persistent store", sstat(func(t store.Stats) int64 { return int64(t.Objects) }))
		gauge("cabt_store_bytes", "bytes in the persistent store", sstat(func(t store.Stats) int64 { return t.Bytes }))
		counter("cabt_store_loads_total", "store loads", sstat(func(t store.Stats) int64 { return t.Loads }))
		counter("cabt_store_hits_total", "store load hits", sstat(func(t store.Stats) int64 { return t.Hits }))
		counter("cabt_store_puts_total", "store puts", sstat(func(t store.Stats) int64 { return t.Puts }))
		counter("cabt_store_corrupt_total", "corrupt objects detected", sstat(func(t store.Stats) int64 { return t.Corrupt }))
		counter("cabt_store_evictions_total", "objects evicted", sstat(func(t store.Stats) int64 { return t.Evictions }))
	}
	if s.storeSrv != nil {
		rstat := func(f func(dist.StoreServerStats) int64) func() float64 {
			return func() float64 { return float64(f(s.storeSrv.Stats())) }
		}
		counter("cabt_store_remote_gets_total", "store-protocol GETs served", rstat(func(t dist.StoreServerStats) int64 { return t.Gets }))
		counter("cabt_store_remote_hits_total", "store-protocol GET hits", rstat(func(t dist.StoreServerStats) int64 { return t.Hits }))
		counter("cabt_store_remote_misses_total", "store-protocol GET misses", rstat(func(t dist.StoreServerStats) int64 { return t.Misses }))
		counter("cabt_store_remote_not_modified_total", "store-protocol 304 responses", rstat(func(t dist.StoreServerStats) int64 { return t.NotModified }))
		counter("cabt_store_remote_puts_total", "store-protocol PUTs accepted", rstat(func(t dist.StoreServerStats) int64 { return t.Puts }))
		counter("cabt_store_remote_bad_puts_total", "store-protocol PUTs rejected", rstat(func(t dist.StoreServerStats) int64 { return t.BadPuts }))
	}
}

// jobCounts scans the job table: running, done, failed.
func (s *Server) jobCounts() (running, done, failed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range s.jobs {
		select {
		case <-rec.done:
			if rec.err != "" {
				failed++
			} else {
				done++
			}
		default:
			running++
		}
	}
	return running, done, failed
}

// handleMetrics serves GET /v1/metrics in the Prometheus text
// exposition format (0.0.4): the server's own bridges followed by the
// process-global registry (farm stage timings, cache tiers, SoC
// speculation counters). It is an operator endpoint (scraped, not
// tenant-facing) and deliberately discloses no tenant names.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.reg.WritePrometheus(&b)
	obs.Default.WritePrometheus(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
