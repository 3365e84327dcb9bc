package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/simfarm"
	"repro/internal/simfarm/dist"
	"repro/internal/simfarm/server"
	"repro/internal/simfarm/store"
)

// distServer builds a server with the given config on an httptest
// listener and returns it with a client factory.
func distServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, func(tenant string) *client) {
	t.Helper()
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, func(tenant string) *client {
		return &client{t: t, base: ts.URL, tenant: tenant, http: ts.Client()}
	}
}

// startWorker runs an in-process dist.Worker against the server and
// blocks until it has registered.
func startWorker(t *testing.T, base string, cfg dist.WorkerConfig) *dist.Worker {
	t.Helper()
	cfg.Server = base
	if cfg.Poll == 0 {
		cfg.Poll = 10 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := dist.NewWorker(cfg)
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("worker did not exit")
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for w.ID() == "" {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return w
}

// metrics fetches and returns /v1/metrics as a name -> value map.
func metrics(t *testing.T, base string) map[string]string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	for _, ln := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		name, value, ok := strings.Cut(ln, " ")
		if !ok {
			t.Fatalf("bad metrics line %q", ln)
		}
		m[name] = value
	}
	return m
}

// TestDistributedBatchMatchesLocal submits the same sweep twice — once
// with no workers (the in-process lessees run it) and once with two
// registered workers — and requires identical deterministic results.
func TestDistributedBatchMatchesLocal(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts, mk := distServer(t, server.Config{Workers: 2, Store: st, LeaseTTL: 5 * time.Second})
	c := mk("acme")

	req := server.SubmitRequest{Workloads: []string{"gcd", "sieve"}, Levels: []int{0, 2}}
	local := c.submitAndWait(req)
	if local.Stats.Failed != 0 {
		t.Fatalf("local batch failed: %+v", local.Results)
	}

	startWorker(t, ts.URL, dist.WorkerConfig{Name: "w1"})
	startWorker(t, ts.URL, dist.WorkerConfig{Name: "w2"})
	if m := metrics(t, ts.URL); m["cabt_workers_live"] != "2" {
		t.Fatalf("cabt_workers_live = %s, want 2", m["cabt_workers_live"])
	}

	remote := c.submitAndWait(req)
	if remote.Stats.Failed != 0 {
		t.Fatalf("distributed batch failed: %+v", remote.Results)
	}
	if len(remote.Results) != len(local.Results) {
		t.Fatalf("%d results, want %d", len(remote.Results), len(local.Results))
	}
	for i, g := range remote.Results {
		w := local.Results[i]
		if g.Name != w.Name || g.Level != w.Level ||
			g.Instructions != w.Instructions || g.BoardCycles != w.BoardCycles ||
			g.C6xCycles != w.C6xCycles || g.GeneratedCycles != w.GeneratedCycles ||
			g.CPI != w.CPI || g.MIPS != w.MIPS ||
			g.DeviationPct != w.DeviationPct || g.Seconds != w.Seconds {
			t.Errorf("result %d: distributed differs from local:\n dist  %+v\n local %+v", i, g, w)
		}
	}
	if remote.Stats.Workers != 2 {
		t.Errorf("distributed stats report %d workers, want 2", remote.Stats.Workers)
	}

	// The workers executed through the shared store, and both batches
	// went through the queue.
	m := metrics(t, ts.URL)
	if m["cabt_queue_completed_total"] != fmt.Sprint(2*len(local.Results)) {
		t.Errorf("cabt_queue_completed_total = %s, want %d", m["cabt_queue_completed_total"], 2*len(local.Results))
	}
	if m["cabt_store_remote_gets_total"] == "0" {
		t.Errorf("no remote store traffic: %v", m)
	}
}

// evilWorker is a raw protocol client that leases tasks and never
// completes them — the kill -9 simulator.
type evilWorker struct {
	t    *testing.T
	base string
	id   string
}

func newEvilWorker(t *testing.T, base string) *evilWorker {
	t.Helper()
	e := &evilWorker{t: t, base: base}
	var resp dist.RegisterResponse
	e.post("/v1/workers/register", dist.RegisterRequest{Name: "evil"}, &resp)
	e.id = resp.WorkerID
	return e
}

func (e *evilWorker) post(path string, in, out any) {
	e.t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		e.t.Fatal(err)
	}
	resp, err := http.Post(e.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		e.t.Fatalf("POST %s: %s: %s", path, resp.Status, msg)
	}
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
}

// lease polls until a task is granted — the submit handler enqueues
// from a goroutine, so the first poll can race it.
func (e *evilWorker) lease() *dist.Task {
	deadline := time.Now().Add(5 * time.Second)
	for {
		var resp dist.LeaseResponse
		e.post("/v1/workers/"+e.id+"/lease", struct{}{}, &resp)
		if resp.Task != nil {
			return resp.Task
		}
		if time.Now().After(deadline) {
			e.t.Fatal("no task leased")
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerLossRequeues kills a worker mid-task (by having it lease
// and vanish) and requires the batch to complete anyway: the surviving
// worker runs the other task, an in-process lessee the abandoned one.
func TestWorkerLossRequeues(t *testing.T) {
	_, ts, mk := distServer(t, server.Config{LeaseTTL: time.Second})
	c := mk("")

	// The evil worker registers first, so the in-process lessees leave
	// the batch to workers; it leases one task and is never heard from
	// again.
	evil := newEvilWorker(t, ts.URL)

	var sub server.SubmitResponse
	c.do("POST", "/v1/jobs", server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{0, 1}}, http.StatusAccepted, &sub)
	if tk := evil.lease(); tk == nil {
		t.Fatal("evil worker got no task")
	}

	// A real worker arrives and drains the other task; once the evil
	// lease expires, an in-process lessee re-runs the abandoned one.
	startWorker(t, ts.URL, dist.WorkerConfig{Name: "survivor"})

	var job server.JobResponse
	deadline := time.Now().Add(30 * time.Second)
	for {
		c.do("GET", sub.URL+"?wait=1", nil, http.StatusOK, &job)
		if job.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch did not recover from worker loss")
		}
	}
	if job.Status != "done" || job.Stats == nil || job.Stats.Failed != 0 {
		t.Fatalf("batch after worker loss: %+v", job)
	}
	m := metrics(t, ts.URL)
	if m["cabt_queue_lease_expiries_total"] == "0" {
		t.Errorf("no lease expiry recorded: %v", m)
	}
	if m["cabt_queue_retries_total"] == "0" {
		t.Errorf("no retry recorded: %v", m)
	}
}

// rawJob fetches GET /v1/jobs/{id} and returns the exact response body.
func rawJob(t *testing.T, base, tenant, id string) []byte {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(server.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: %s", id, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRestartDurability runs a batch, restarts the server over the same
// journal, and requires GET /v1/jobs/{id} to return byte-identical
// responses before and after.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.cabt")

	s1, ts1, mk := distServer(t, server.Config{Workers: 2, Journal: journal})
	c := mk("acme")
	job := c.submitAndWait(server.SubmitRequest{Workloads: []string{"gcd", "sieve"}, Levels: []int{1, 3}})
	if job.Stats.Failed != 0 {
		t.Fatalf("batch failed: %+v", job.Results)
	}
	before := rawJob(t, ts1.URL, "acme", job.ID)
	ts1.Close()
	s1.Close()

	_, ts2, _ := distServer(t, server.Config{Workers: 2, Journal: journal})
	after := rawJob(t, ts2.URL, "acme", job.ID)
	if !bytes.Equal(before, after) {
		t.Fatalf("restart changed the response:\nbefore: %s\nafter:  %s", before, after)
	}

	// Tenant isolation survives the restart too.
	if body := rawJobStatus(t, ts2.URL, "globex", job.ID); body != http.StatusNotFound {
		t.Fatalf("foreign tenant sees replayed job: HTTP %d", body)
	}
}

func rawJobStatus(t *testing.T, base, tenant, id string) int {
	t.Helper()
	req, _ := http.NewRequest("GET", base+"/v1/jobs/"+id, nil)
	if tenant != "" {
		req.Header.Set(server.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRestartFailsInterruptedBatch: a batch submitted but unfinished at
// crash time replays as failed, durably.
func TestRestartFailsInterruptedBatch(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.cabt")
	j, err := dist.OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	created := time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC)
	if err := j.Append(dist.Record{Type: dist.RecordSubmitted, ID: "job-1", Tenant: "acme", Kind: "sweep", Jobs: 4, Time: created}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts, mk := distServer(t, server.Config{Journal: journal})
	var job server.JobResponse
	mk("acme").do("GET", "/v1/jobs/job-1", nil, http.StatusOK, &job)
	if job.Status != "failed" || !strings.Contains(job.Error, "interrupted") {
		t.Fatalf("interrupted batch = %+v, want failed/interrupted", job)
	}
	if !job.Created.Equal(created) {
		t.Fatalf("created = %v, want %v", job.Created, created)
	}

	// New submissions must not collide with the replayed ID.
	sweep := mk("acme").submitAndWait(server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{0}})
	if sweep.ID == "job-1" {
		t.Fatalf("replayed ID reused: %s", sweep.ID)
	}
	_ = ts
}

// TestNewRefusesDirectoryJournal: a directory at the journal path (as an
// older build that kept segments left it) is not migrated; New fails
// with the OS error and leaves the directory alone.
func TestNewRefusesDirectoryJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.cabt")
	kept := filepath.Join(journal, "segment")
	if err := os.MkdirAll(journal, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(kept, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Journal: journal})
	if err == nil {
		s.Close()
		t.Fatal("New accepted a directory as its journal")
	}
	if !errors.Is(err, syscall.EISDIR) {
		t.Errorf("New error = %v, want the OS's EISDIR", err)
	}
	if data, err := os.ReadFile(kept); err != nil || string(data) != "old" {
		t.Errorf("directory contents changed: %q, %v", data, err)
	}
}

// TestGracefulDrain wires a fake signal exactly like cabt-serve's main
// and verifies the drain contract: the signal stops new submissions
// (503), the in-process lessees finish the pending task, the in-flight
// worker task finishes, and the batch lands journaled with no failed
// job.
func TestGracefulDrain(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.cabt")
	s, ts, mk := distServer(t, server.Config{Journal: journal, LeaseTTL: time.Minute})
	c := mk("")

	evil := newEvilWorker(t, ts.URL)
	var sub server.SubmitResponse
	c.do("POST", "/v1/jobs", server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{0, 1}}, http.StatusAccepted, &sub)
	task := evil.lease()
	if task == nil {
		t.Fatal("no task leased")
	}

	// The fake SIGTERM arrives, as in cabt-serve's main loop.
	sig := make(chan os.Signal, 1)
	sig <- syscall.SIGTERM
	<-sig
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Draining: new submissions are refused with Retry-After.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workloads":["gcd"],"levels":[0]}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions still accepted while draining (last: %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A worker gets no new lease while the server drains.
	var lease dist.LeaseResponse
	evil.post("/v1/workers/"+evil.id+"/lease", struct{}{}, &lease)
	if lease.Task != nil {
		t.Fatalf("draining server leased %+v", lease.Task)
	}

	// The in-flight worker finishes its task through the drain.
	evil.post("/v1/workers/"+evil.id+"/complete", dist.TaskResult{
		TaskID: task.ID, Index: task.Index, Worker: evil.id,
		Sim: &simfarm.Result{Index: 0, Name: task.Sim.Workload.Name, Level: task.Sim.Options.Level},
	}, nil)

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	var job server.JobResponse
	c.do("GET", sub.URL, nil, http.StatusOK, &job)
	if job.Status != "done" || job.Stats.Failed != 0 {
		t.Fatalf("batch after drain: %+v", job)
	}
	for _, r := range job.Results {
		if r.Error != "" {
			t.Errorf("failed job after drain: %+v", r)
		}
	}

	// The drained batch is journaled: a restart replays it verbatim.
	before := rawJob(t, ts.URL, "", job.ID)
	ts.Close()
	s.Close()
	_, ts2, _ := distServer(t, server.Config{Journal: journal})
	if after := rawJob(t, ts2.URL, "", job.ID); !bytes.Equal(before, after) {
		t.Fatalf("drained batch not journaled faithfully:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestStrandedBatchRunsInProcess: a worker registers and falls silent.
// A batch submitted while it still counts as live is left to workers;
// once liveness runs out — no queue event marks that, the expiry
// sweep's tick does — the in-process lessees run it.
func TestStrandedBatchRunsInProcess(t *testing.T) {
	_, ts, _ := distServer(t, server.Config{Workers: 2, LeaseTTL: time.Second}) // WorkerTTL 2 s
	newEvilWorker(t, ts.URL)
	c := &client{t: t, base: ts.URL, http: &http.Client{Timeout: 20 * time.Second}}
	job := c.submitAndWait(server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{0, 1}})
	if job.Stats.Failed != 0 {
		t.Fatalf("stranded batch: %+v", job)
	}
	// Executors at submission: the one live worker, not the lessees.
	if job.Stats.Workers != 1 {
		t.Errorf("batch reports %d executors, want 1 (submitted after the worker went stale?)", job.Stats.Workers)
	}
	if m := metrics(t, ts.URL); m["cabt_workers_live"] != "0" || m["cabt_queue_completed_total"] != "2" {
		t.Errorf("workers_live = %s, completed = %s, want 0 and 2", m["cabt_workers_live"], m["cabt_queue_completed_total"])
	}
}

// TestTenantStatsAfterRemoteRun: a batch a worker ran shows in its
// tenant's /v1/stats farm figures and in cabt_tenants exactly as the
// same batch run on a server without workers.
func TestTenantStatsAfterRemoteRun(t *testing.T) {
	req := server.SubmitRequest{Workloads: []string{"gcd", "sieve"}, Levels: []int{0, 1}}
	run := func(remote bool) (simfarm.FarmStats, string) {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, ts, mk := distServer(t, server.Config{Workers: 2, Store: st, LeaseTTL: time.Minute})
		var w *dist.Worker
		if remote {
			w = startWorker(t, ts.URL, dist.WorkerConfig{Name: "w"})
		}
		c := mk("acme")
		if job := c.submitAndWait(req); job.Stats.Failed != 0 {
			t.Fatalf("remote=%v: %+v", remote, job)
		}
		if remote && w.TasksDone() == 0 {
			t.Fatal("the worker ran nothing")
		}
		var stats server.StatsResponse
		c.do("GET", "/v1/stats", nil, http.StatusOK, &stats)
		if stats.TenantCount != 1 || len(stats.Tenants) != 1 {
			t.Fatalf("remote=%v: stats %+v, want acme's", remote, stats)
		}
		return stats.Tenants[0].Farm, metrics(t, ts.URL)["cabt_tenants"]
	}
	want, wantTenants := run(false)
	got, gotTenants := run(true)
	if got != want || gotTenants != wantTenants {
		t.Errorf("after a remote run: farm %+v, cabt_tenants %s; want %+v, %s", got, gotTenants, want, wantTenants)
	}
	if want.JobsRun != 4 || want.ReferenceRuns == 0 || want.CacheMisses == 0 {
		t.Errorf("figures %+v exercise nothing", want)
	}
}

// TestMetricsEndpoint sanity-checks the exposition format and a few
// lifecycle transitions.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, mk := distServer(t, server.Config{})
	m := metrics(t, ts.URL)
	for _, name := range []string{
		"cabt_up", "cabt_uptime_seconds", "cabt_draining",
		"cabt_jobs_submitted_total", "cabt_jobs_running", "cabt_jobs_done", "cabt_jobs_failed",
		"cabt_queue_pending", "cabt_queue_leased", "cabt_workers_live",
		"cabt_queue_lease_expiries_total", "cabt_rate_limited_total",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("metrics missing %s", name)
		}
	}
	if m["cabt_up"] != "1" || m["cabt_jobs_submitted_total"] != "0" {
		t.Fatalf("fresh server metrics: %v", m)
	}

	mk("").submitAndWait(server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{0}})
	m = metrics(t, ts.URL)
	if m["cabt_jobs_submitted_total"] != "1" || m["cabt_jobs_done"] != "1" {
		t.Fatalf("after one batch: submitted=%s done=%s", m["cabt_jobs_submitted_total"], m["cabt_jobs_done"])
	}
}

// lockedClock is a race-safe manual clock for server.Config.Clock.
type lockedClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *lockedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *lockedClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestRateLimit drives the per-tenant token bucket with a fake clock.
func TestRateLimit(t *testing.T) {
	clk := &lockedClock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
	_, ts, mk := distServer(t, server.Config{
		RateLimit: 1, RateBurst: 2,
		Clock: clk.Now,
	})

	submit := func() *http.Response {
		req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(`{"workloads":["gcd"],"levels":[0]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(server.TenantHeader, "acme")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	for i := range 2 {
		if resp := submit(); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submission %d: HTTP %d", i, resp.StatusCode)
		}
	}
	resp := submit()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submission: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Other tenants are unaffected.
	var sub server.SubmitResponse
	mk("globex").do("POST", "/v1/jobs", server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{0}}, http.StatusAccepted, &sub)

	// After the advertised wait the tenant may submit again.
	clk.Advance(time.Second)
	if resp := submit(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-refill submission: HTTP %d", resp.StatusCode)
	}

	if m := metrics(t, ts.URL); m["cabt_rate_limited_total"] != "1" {
		t.Fatalf("cabt_rate_limited_total = %s, want 1", m["cabt_rate_limited_total"])
	}
}
