package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simfarm"
	"repro/internal/soc"
	"repro/internal/workload"
)

// controlPlane wires a Queue and a StoreServer onto one test server —
// the worker-facing half of cabt-serve, without the job API.
func controlPlane(t *testing.T, qcfg QueueConfig) (*Queue, *StoreServer, string) {
	t.Helper()
	q := NewQueue(qcfg)
	st := openStore(t, t.TempDir())
	ss := NewStoreServer(st)
	mux := http.NewServeMux()
	ss.Register(mux)
	(&WorkerAPI{Queue: q}).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return q, ss, srv.URL
}

func startWorker(t *testing.T, ctx context.Context, cfg WorkerConfig) *Worker {
	t.Helper()
	if cfg.Poll == 0 {
		cfg.Poll = 10 * time.Millisecond
	}
	w := NewWorker(cfg)
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	t.Cleanup(func() {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("worker did not exit")
		}
	})
	return w
}

func simBatch(t *testing.T) []Task {
	t.Helper()
	w, ok := workload.ByName("gcd")
	if !ok {
		t.Fatal("no gcd workload")
	}
	jobs := simfarm.SweepJobs([]workload.Workload{w}, []core.Level{core.Level0, core.Level1, core.Level2, core.Level3}, nil)
	tasks := make([]Task, len(jobs))
	for i := range jobs {
		tasks[i] = Task{Batch: "job-1", Index: i, Tenant: "acme", Kind: KindSim, Sim: &jobs[i]}
	}
	return tasks
}

func TestWorkerEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q, ss, base := controlPlane(t, QueueConfig{LeaseTTL: 3 * time.Second})
	w1 := startWorker(t, ctx, WorkerConfig{Server: base, Name: "w1"})
	w2 := startWorker(t, ctx, WorkerConfig{Server: base, Name: "w2"})

	tasks := simBatch(t)
	ch := q.Enqueue(tasks)
	results := make([]TaskResult, len(tasks))
	for range tasks {
		r := recv(t, ch)
		if r.Err != "" || r.Sim == nil || r.Sim.Error != "" {
			t.Fatalf("task result %+v", r)
		}
		results[r.Index] = r
	}

	// Distributed results must match the single-process farm on every
	// deterministic quantity (wall times legitimately differ).
	want, _ := simfarm.New(simfarm.Config{Workers: 1}).Run(simJobs(tasks))
	for i, r := range results {
		g, w := r.Sim, want[i]
		if g.Name != w.Name || g.Level != w.Level ||
			g.Instructions != w.Instructions || g.BoardCycles != w.BoardCycles ||
			g.C6xCycles != w.C6xCycles || g.GeneratedCycles != w.GeneratedCycles ||
			g.CPI != w.CPI || g.MIPS != w.MIPS ||
			g.DeviationPct != w.DeviationPct || g.Seconds != w.Seconds {
			t.Errorf("task %d: distributed %+v != local %+v", i, g, w)
		}
	}

	// Both workers pulled work (4 tasks, 2 workers, each runs one at a
	// time — with 4 gcd translations each taking real time, a single
	// worker finishing all 4 before the other's first lease is the only
	// way this fails, and the 10 ms poll makes that a non-flake). A
	// worker bumps its counter only after its complete POST returns,
	// which races the queue-side result delivery above — so poll briefly
	// for the counters to settle instead of reading them once.
	total := func() int64 { return w1.TasksDone() + w2.TasksDone() }
	for deadline := time.Now().Add(2 * time.Second); total() != int64(len(tasks)) && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if total() != int64(len(tasks)) {
		t.Errorf("tasks done: %d + %d, want %d", w1.TasksDone(), w2.TasksDone(), len(tasks))
	}

	// The translations flowed through the shared store: each (ELF,
	// options) fingerprint was uploaded exactly once and the workers'
	// caches interacted with the remote level.
	sst := ss.Stats()
	if sst.Puts == 0 {
		t.Errorf("server store saw no uploads: %+v", sst)
	}
	agg := w1.StoreStats()
	w2s := w2.StoreStats()
	if agg.Puts+w2s.Puts+agg.PutsSkipped+w2s.PutsSkipped == 0 {
		t.Errorf("workers report no store writes: %+v %+v", agg, w2s)
	}

	cancel()
}

// simJobs unpacks the Sim specs back out of tasks.
func simJobs(tasks []Task) []simfarm.Job {
	jobs := make([]simfarm.Job, len(tasks))
	for i, tk := range tasks {
		jobs[i] = *tk.Sim
	}
	return jobs
}

func TestWorkerRunsSoCTask(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q, _, base := controlPlane(t, QueueConfig{LeaseTTL: 3 * time.Second})
	startWorker(t, ctx, WorkerConfig{Server: base, Name: "w"})

	jobs, err := simfarm.SoCSweepJobs([]string{"mc-sieve"}, []int{2}, []int64{100}, []soc.Arbitration{0}, core.Options{Level: core.Level1}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("%d jobs", len(jobs))
	}
	ch := q.Enqueue([]Task{{Batch: "job-1", Index: 0, Kind: KindSoC, SoC: &jobs[0]}})
	r := recv(t, ch)
	if r.Err != "" || r.SoC == nil || r.SoC.Error != "" {
		t.Fatalf("SoC result %+v", r)
	}

	want, _ := simfarm.New(simfarm.Config{Workers: 1}).RunSoC(jobs)
	if r.SoC.TotalCycles != want[0].TotalCycles || r.SoC.MakespanCycles != want[0].MakespanCycles ||
		r.SoC.BusTransactions != want[0].BusTransactions || r.SoC.Quanta != want[0].Quanta {
		t.Errorf("distributed SoC %+v != local %+v", r.SoC, want[0])
	}
	if r.Counts.JobsRun != 1 || r.Counts.CacheHits+r.Counts.CacheMisses != 2 {
		t.Errorf("no cache counts on the wire: %+v", r)
	}
}

// TestWorkerReportsMalformedTask: a worker reports a task it cannot run
// as a task-level error, which the queue hands to an in-process lessee;
// Execute there reports the same error as the task's result.
func TestWorkerReportsMalformedTask(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q, _, base := controlPlane(t, QueueConfig{LeaseTTL: 3 * time.Second})
	w := startWorker(t, ctx, WorkerConfig{Server: base, Name: "w"})
	for w.ID() == "" {
		time.Sleep(time.Millisecond)
	}

	ch := q.Enqueue([]Task{{Batch: "job-1", Index: 0, Kind: KindSim}}) // no payload
	task := q.Take("job-1")
	if task.Attempt != 2 {
		t.Fatalf("in-process lessee took %+v, want the worker's failed attempt retried", task)
	}
	q.Complete(InProcess, Execute(simfarm.New(simfarm.Config{Workers: 1}), task))
	if r := recv(t, ch); r.Err == "" {
		t.Fatalf("malformed task returned %+v, want error", r)
	}
}

func TestWorkerEphemeralUsesRemoteStore(t *testing.T) {
	// Ephemeral mode drops the farm after each task, so a repeated task
	// must be served by the remote store, not farm memory.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q, _, base := controlPlane(t, QueueConfig{LeaseTTL: 3 * time.Second})
	w := startWorker(t, ctx, WorkerConfig{Server: base, Name: "w", Ephemeral: true})

	tasks := simBatch(t)[:1]
	if r := recv(t, q.Enqueue(tasks)); r.Err != "" {
		t.Fatalf("cold task %+v", r)
	}
	if r := recv(t, q.Enqueue(tasks)); r.Err != "" {
		t.Fatalf("warm task %+v", r)
	} else if r.Sim == nil || !r.Sim.CacheHit {
		t.Fatalf("warm task was not a cache hit: %+v", r.Sim)
	}
	st := w.StoreStats()
	if st.RemoteHits == 0 {
		t.Errorf("warm ephemeral task did not hit the remote store: %+v", st)
	}
}

func TestWorkerKeepsTenantsApart(t *testing.T) {
	// One farm serves every tenant, so the task's tenant must reach its
	// keys: tenant B's first run of A's task misses in farm memory, on
	// the local disk and at the server.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q, _, base := controlPlane(t, QueueConfig{LeaseTTL: 3 * time.Second})
	w := startWorker(t, ctx, WorkerConfig{Server: base, Name: "w", Disk: openStore(t, t.TempDir())})

	run := func(tenant string) (*simfarm.Result, RemoteStoreStats) {
		t.Helper()
		tasks := simBatch(t)[:1]
		tasks[0].Tenant = tenant
		r := recv(t, q.Enqueue(tasks))
		if r.Err != "" || r.Sim == nil || r.Sim.Error != "" {
			t.Fatalf("tenant %q task %+v", tenant, r)
		}
		return r.Sim, w.StoreStats()
	}
	if r, _ := run("a"); r.CacheHit {
		t.Fatalf("tenant a's cold task was a cache hit")
	}
	if r, _ := run("a"); !r.CacheHit {
		t.Fatalf("tenant a's repeat was not a cache hit")
	}
	_, before := run("a")
	r, after := run("b")
	if r.CacheHit {
		t.Errorf("tenant b's first task hit tenant a's farm memory")
	}
	if after.LocalHits != before.LocalHits || after.RemoteHits != before.RemoteHits || after.Misses != before.Misses+1 {
		t.Errorf("tenant b's first task: store stats %+v after %+v, want one miss at every level", after, before)
	}
}

func TestWorkerReportsDegradedStore(t *testing.T) {
	// A store that answers 503 trips the remote-store breaker; the
	// worker's stats must say so.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q := NewQueue(QueueConfig{LeaseTTL: 3 * time.Second})
	mux := http.NewServeMux()
	(&WorkerAPI{Queue: q}).Register(mux)
	mux.HandleFunc("/v1/store/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "store down", http.StatusServiceUnavailable)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	w := startWorker(t, ctx, WorkerConfig{Server: srv.URL, Name: "w"})

	tasks := simBatch(t)
	ch := q.Enqueue(tasks)
	for range tasks {
		if r := recv(t, ch); r.Err != "" || r.Sim == nil || r.Sim.Error != "" {
			t.Fatalf("task with a dead store failed: %+v", r)
		}
	}
	if st := w.StoreStats(); st.Degraded == 0 {
		t.Errorf("worker store stats %+v, want Degraded > 0", st)
	}
}
