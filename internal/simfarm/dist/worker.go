package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/platform"
	"repro/internal/simfarm"
	"repro/internal/simfarm/store"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Server is the control plane's base URL ("http://host:port").
	Server string
	// Name labels the worker in registration (host-pid style); the
	// server assigns the authoritative ID.
	Name string
	// Disk is an optional local store used as the middle cache level
	// between farm memory and the server's store.
	Disk *store.Store
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Poll is the idle sleep between empty leases (default 200 ms).
	Poll time.Duration
	// OpTimeout bounds every control-plane HTTP request (default 10 s),
	// so a hung server costs one deadline, not a wedged worker.
	OpTimeout time.Duration
	// Engine selects the C6x host-execution engine for translated runs.
	Engine platform.Engine
	// Ephemeral replaces the worker's farm (and with it the in-memory
	// translation cache) after every task, so each task's translations
	// come from the store levels. CI uses it to make remote-store
	// traffic deterministic.
	Ephemeral bool
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Worker is one farm worker process: it registers with the control
// plane, then leases tasks one at a time, executes them on its one
// single-worker Farm whose translation cache reads and writes the
// shared store over HTTP, heartbeats while executing, and reports the
// result. Execution is Execute, exactly what the server's in-process
// lessees run — same Farm, same engine, same verification against the
// reference ISS — so a task's result is bit-identical wherever it ran.
// The task's tenant namespaces the farm's keys, as on the server.
type Worker struct {
	cfg    WorkerConfig
	id     string
	ttl    time.Duration
	remote *RemoteStore
	local  *simfarm.Farm // only the Run goroutine touches it

	mu   sync.Mutex
	done int64
}

// NewWorker builds a worker (it does not contact the server yet). The
// HTTP client is wrapped for fault injection unconditionally — with no
// armed plan the wrapper costs one atomic load per request.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg.Client = faultinject.WrapClient(cfg.Client)
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	w := &Worker{cfg: cfg, remote: NewRemoteStore(cfg.Server, cfg.Disk, cfg.Client)}
	w.local = w.newFarm()
	return w
}

// newFarm builds a single-worker farm over the remote store.
func (w *Worker) newFarm() *simfarm.Farm {
	return simfarm.New(simfarm.Config{
		Workers: 1,
		Cache:   simfarm.NewPersistentTranslationCache(w.remote),
		Engine:  w.cfg.Engine,
	})
}

// ID returns the server-assigned worker ID ("" before Run registers).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// TasksDone reports how many tasks this worker has completed.
func (w *Worker) TasksDone() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.done
}

// StoreStats reports the worker's remote-store traffic.
func (w *Worker) StoreStats() RemoteStoreStats { return w.remote.Stats() }

// Run registers and processes tasks until ctx is cancelled. A task in
// flight at cancellation is finished and completed first — the graceful
// half of shutdown; the abrupt half (kill -9) is what lease expiry is
// for. Run returns nil on cancellation, an error only when
// registration never succeeds.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	w.cfg.Logf("registered as %s (lease TTL %v)", w.ID(), w.ttl)
	for {
		if ctx.Err() != nil {
			w.cfg.Logf("shutting down after %d tasks", w.TasksDone())
			return nil
		}
		task, err := w.lease()
		if err != nil {
			if isGone(err) {
				// The server restarted and its fresh queue does not know
				// our ID: re-register and carry on under the new one.
				w.cfg.Logf("worker ID gone (server restarted?); re-registering")
				if err := w.register(ctx); err != nil {
					return nil // ctx ended while re-registering
				}
				continue
			}
			w.cfg.Logf("lease: %v", err)
			w.sleep(ctx)
			continue
		}
		if task == nil {
			w.sleep(ctx)
			continue
		}
		res := w.execute(ctx, task)
		if err := w.complete(ctx, res); err != nil {
			if isGone(err) {
				// The work is lost to the old registration; lease expiry
				// re-runs the task, deterministically, under whoever
				// leases it next.
				w.cfg.Logf("complete %s: worker ID gone; re-registering", task.ID)
				if err := w.register(ctx); err != nil {
					return nil
				}
			} else {
				w.cfg.Logf("complete %s: %v", task.ID, err)
			}
		}
		w.mu.Lock()
		w.done++
		w.mu.Unlock()
	}
}

// register retries registration with exponential backoff until it
// succeeds or ctx ends, so a worker started moments before its server
// comes up (or orphaned by a server restart) just waits — without the
// whole fleet stampeding the server the instant it returns.
func (w *Worker) register(ctx context.Context) error {
	bo := NewBackoff(w.cfg.Poll, 5*time.Second)
	for {
		var resp RegisterResponse
		err := w.post("/v1/workers/register", RegisterRequest{Name: w.cfg.Name}, &resp)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.mu.Unlock()
			w.ttl = resp.LeaseTTL
			if w.ttl <= 0 {
				w.ttl = defaultLeaseTTL
			}
			return nil
		}
		w.cfg.Logf("register: %v (retry %d)", err, bo.Attempt()+1)
		if !bo.Sleep(ctx) {
			return fmt.Errorf("worker: register: %w", err)
		}
	}
}

func (w *Worker) lease() (*Task, error) {
	var resp LeaseResponse
	if err := w.post("/v1/workers/"+w.ID()+"/lease", struct{}{}, &resp); err != nil {
		return nil, err
	}
	return resp.Task, nil
}

// execute runs one task on the worker's farm, heartbeating at TTL/3
// until the run finishes.
func (w *Worker) execute(ctx context.Context, task *Task) TaskResult {
	w.cfg.Logf("task %s (%s, attempt %d)", task.ID, task.Kind, task.Attempt)
	stop := w.heartbeat(ctx, task.ID)
	defer stop()
	res := Execute(w.local, task)
	res.Worker = w.id
	if w.cfg.Ephemeral {
		w.local = w.newFarm()
	}
	return res
}

// Execute runs one task on farm under the task's tenant: the work of
// every lessee, a remote Worker and the server's in-process ones alike.
// A task without the payload its Kind names comes back as a task-level
// error.
func Execute(farm *simfarm.Farm, task *Task) TaskResult {
	res := TaskResult{TaskID: task.ID, Index: task.Index}
	switch {
	case task.Kind == KindSim && task.Sim != nil:
		job := *task.Sim
		job.Tenant = task.Tenant
		results, _ := farm.Run([]simfarm.Job{job})
		res.Sim, res.Counts = &results[0], results[0].Counts()
	case task.Kind == KindSoC && task.SoC != nil:
		job := *task.SoC
		job.Tenant = task.Tenant
		results, _ := farm.RunSoC([]simfarm.SoCJob{job})
		res.SoC, res.Counts = &results[0], results[0].Counts()
	default:
		res.Err = fmt.Sprintf("malformed task: kind %q with no matching payload", task.Kind)
	}
	return res
}

// heartbeat keeps one task's lease alive until the returned stop
// function is called (or ctx ends — a worker draining out still
// heartbeats its last task through the drain).
func (w *Worker) heartbeat(ctx context.Context, taskID string) (stop func()) {
	done := make(chan struct{})
	interval := w.ttl / 3
	if interval <= 0 {
		interval = defaultLeaseTTL / 3
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				var resp HeartbeatResponse
				if err := w.post("/v1/workers/"+w.ID()+"/heartbeat", HeartbeatRequest{TaskIDs: []string{taskID}}, &resp); err != nil {
					w.cfg.Logf("heartbeat %s: %v", taskID, err)
				} else if len(resp.Lost) > 0 {
					// The lease moved on; finish anyway — Complete will
					// be accepted only if delivery is still ours.
					w.cfg.Logf("lease %s lost", taskID)
				}
			}
		}
	}()
	return func() { close(done) }
}

// complete reports a result, retrying transient transport errors with
// backoff; a 409 (stale completion) is a clean non-error outcome, and
// a 410 (unknown worker) aborts the retries — the caller re-registers.
func (w *Worker) complete(ctx context.Context, res TaskResult) error {
	// The canonical crash window: the task is executed but unreported.
	// Recovery is the lease expiring and the task re-running elsewhere.
	faultinject.Crash(faultinject.PointWorkerCompleteCrash)
	bo := NewBackoff(w.cfg.Poll/2, 2*time.Second)
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 && !bo.Sleep(ctx) {
			return err
		}
		err = w.post("/v1/workers/"+w.ID()+"/complete", res, nil)
		if err == nil || isStale(err) {
			return nil
		}
		if isGone(err) {
			return err
		}
	}
	return err
}

type staleError struct{ msg string }

func (e *staleError) Error() string { return e.msg }

func isStale(err error) bool {
	_, ok := err.(*staleError)
	return ok
}

// goneError is a 410 from a worker route: this queue never issued our
// ID (the server restarted), so retrying is pointless — re-register.
type goneError struct{ msg string }

func (e *goneError) Error() string { return e.msg }

func isGone(err error) bool {
	_, ok := err.(*goneError)
	return ok
}

// sleep waits one poll interval or until ctx ends.
func (w *Worker) sleep(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-time.After(w.cfg.Poll):
	}
}

// post sends a JSON request and decodes a JSON response (out nil skips
// decoding), bounded by OpTimeout. Non-2xx statuses become errors; 409
// becomes a staleError, 410 a goneError.
func (w *Worker) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), w.cfg.OpTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Server+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &staleError{msg: string(bytes.TrimSpace(msg))}
	}
	if resp.StatusCode == http.StatusGone {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &goneError{msg: string(bytes.TrimSpace(msg))}
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
