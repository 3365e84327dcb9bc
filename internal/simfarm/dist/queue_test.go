package dist

import (
	"sync"
	"testing"
	"time"

	"repro/internal/simfarm"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newQueue(clk *fakeClock) *Queue {
	return NewQueue(QueueConfig{LeaseTTL: 10 * time.Second, Clock: clk.Now})
}

// done is a lessee's successful result for task id.
func done(id string) TaskResult { return TaskResult{TaskID: id, Sim: &simfarm.Result{}} }

// take runs q.Take for simTasks' batch on a goroutine: the in-process
// lessee's next task arrives on the returned channel (nil once the
// batch is delivered or the queue closed).
func take(q *Queue) <-chan *Task {
	ch := make(chan *Task, 1)
	go func() { ch <- q.Take("job-1") }()
	return ch
}

// taken waits for a take to return.
func taken(t *testing.T, ch <-chan *Task) *Task {
	t.Helper()
	select {
	case tk := <-ch:
		return tk
	case <-time.After(5 * time.Second):
		t.Fatal("in-process lessee not woken")
		return nil
	}
}

// notTaken requires a take to still be blocked.
func notTaken(t *testing.T, ch <-chan *Task) {
	t.Helper()
	select {
	case tk := <-ch:
		t.Fatalf("in-process lessee took %+v", tk)
	case <-time.After(20 * time.Millisecond):
	}
}

func simTasks(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Batch: "job-1", Index: i, Kind: KindSim}
	}
	return tasks
}

// recv pops one result without blocking forever.
func recv(t *testing.T, ch <-chan TaskResult) TaskResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("no result delivered")
		panic("unreachable")
	}
}

func TestQueueLeaseComplete(t *testing.T) {
	clk := newFakeClock()
	q := newQueue(clk)
	w1 := q.Register("alpha")
	w2 := q.Register("beta")
	if q.LiveWorkers() != 2 {
		t.Fatalf("LiveWorkers = %d, want 2", q.LiveWorkers())
	}

	ch := q.Enqueue(simTasks(3))

	// FIFO lease order, 1-based attempts, queue-assigned IDs.
	t1 := q.Lease(w1)
	t2 := q.Lease(w2)
	if t1 == nil || t2 == nil {
		t.Fatal("lease returned nil with pending tasks")
	}
	if t1.Index != 0 || t2.Index != 1 {
		t.Fatalf("lease order: got indices %d, %d", t1.Index, t2.Index)
	}
	if t1.Attempt != 1 || t2.Attempt != 1 {
		t.Fatalf("attempts: %d, %d, want 1, 1", t1.Attempt, t2.Attempt)
	}
	if t1.ID == "" || t1.ID == t2.ID {
		t.Fatalf("bad task IDs %q, %q", t1.ID, t2.ID)
	}

	if !q.Complete(w1, done(t1.ID)) {
		t.Fatal("Complete rejected a held lease")
	}
	r := recv(t, ch)
	if r.Index != 0 {
		t.Fatalf("result index = %d, want 0", r.Index)
	}

	t3 := q.Lease(w1)
	if t3 == nil || t3.Index != 2 {
		t.Fatalf("third lease = %+v, want index 2", t3)
	}
	if q.Lease(w2) != nil {
		t.Fatal("lease of empty queue returned a task")
	}
	q.Complete(w2, done(t2.ID))
	q.Complete(w1, done(t3.ID))
	got := map[int]bool{r.Index: true}
	got[recv(t, ch).Index] = true
	got[recv(t, ch).Index] = true
	if len(got) != 3 {
		t.Fatalf("delivered indices %v, want {0,1,2}", got)
	}

	st := q.Stats()
	if st.Completed != 3 || st.Pending != 0 || st.Leased != 0 || st.Retries != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestQueueLeaseExpiryRequeues(t *testing.T) {
	clk := newFakeClock()
	q := newQueue(clk)
	w1 := q.Register("doomed")
	w2 := q.Register("survivor")
	ch := q.Enqueue(simTasks(1))
	lessee := take(q)

	t1 := q.Lease(w1)
	notTaken(t, lessee) // live workers: fresh tasks are theirs
	// w1 is kill -9'd: no heartbeat. Past the TTL the task goes to the
	// in-process lessee, never to another remote worker, with the
	// attempt counter bumped.
	clk.Advance(11 * time.Second)
	if tk := q.Lease(w2); tk != nil {
		t.Fatalf("expired task re-leased remotely: %+v", tk)
	}
	t2 := taken(t, lessee)
	if t2 == nil || t2.ID != t1.ID || t2.Attempt != 2 {
		t.Fatalf("in-process lessee took %+v, want %s attempt 2", t2, t1.ID)
	}

	// w1 rises from the dead and completes: must be rejected — the
	// in-process lessee owns delivery now.
	if q.Complete(w1, done(t1.ID)) {
		t.Fatal("stale completion accepted after re-lease")
	}
	// An in-process lease never expires.
	clk.Advance(time.Hour)
	q.Expire()
	if !q.Complete(InProcess, done(t2.ID)) {
		t.Fatal("in-process completion rejected")
	}
	if r := recv(t, ch); r.Err != "" || r.Sim == nil {
		t.Fatalf("delivered %+v", r)
	}
	// Exactly one delivery.
	select {
	case r := <-ch:
		t.Fatalf("double delivery: %+v", r)
	default:
	}
	st := q.Stats()
	if st.Expiries != 1 || st.Retries != 1 {
		t.Fatalf("stats %+v, want 1 expiry, 1 retry", st)
	}
}

func TestQueueLateCompletionBeforeRelease(t *testing.T) {
	// Lease expires but the original worker finishes before anyone else
	// takes the task: the work is deterministic, accept it.
	clk := newFakeClock()
	q := newQueue(clk)
	w1 := q.Register("slow")
	ch := q.Enqueue(simTasks(1))
	t1 := q.Lease(w1)
	clk.Advance(11 * time.Second)
	if !q.Complete(w1, done(t1.ID)) {
		t.Fatal("late completion of an un-re-leased task rejected")
	}
	if r := recv(t, ch); r.Err != "" {
		t.Fatalf("delivered %+v", r)
	}
	// The requeued copy must not be leasable anymore.
	if tk := q.Lease(w1); tk != nil {
		t.Fatalf("completed task re-leased: %+v", tk)
	}
	if st := q.Stats(); st.Pending != 0 {
		t.Fatalf("completed task still pending: %+v", st)
	}
}

// TestQueueWorkerErrorRetried: a remote worker's task-level error, or a
// result without a payload, is not delivered; the task goes to the
// in-process lessee, which no remote worker competes with for it.
func TestQueueWorkerErrorRetried(t *testing.T) {
	clk := newFakeClock()
	q := newQueue(clk)
	w := q.Register("w")
	ch := q.Enqueue(simTasks(2))

	for _, res := range []TaskResult{{Err: "transient: store unreachable"}, {}} {
		tk := q.Lease(w)
		res.TaskID = tk.ID
		if !q.Complete(w, res) {
			t.Fatal("error completion rejected")
		}
	}
	select {
	case r := <-ch:
		t.Fatalf("remote failure delivered: %+v", r)
	default:
	}
	if tk := q.Lease(w); tk != nil {
		t.Fatalf("failed task re-leased remotely: %+v", tk)
	}
	for range 2 {
		tk := taken(t, take(q))
		if tk.Attempt != 2 {
			t.Fatalf("retry %+v, want attempt 2", tk)
		}
		// An in-process lessee's error is the task's result.
		if !q.Complete(InProcess, TaskResult{TaskID: tk.ID, Err: "still broken"}) {
			t.Fatal("in-process completion rejected")
		}
		if r := recv(t, ch); r.Err != "still broken" {
			t.Fatalf("delivered %+v", r)
		}
	}
	if st := q.Stats(); st.Retries != 2 || st.Completed != 2 {
		t.Fatalf("stats %+v, want 2 retries, 2 completed", st)
	}
}

func TestQueueHeartbeatExtendsLease(t *testing.T) {
	clk := newFakeClock()
	q := newQueue(clk)
	w1 := q.Register("steady")
	w2 := q.Register("vulture")
	q.Enqueue(simTasks(1))
	t1 := q.Lease(w1)

	for range 5 {
		clk.Advance(8 * time.Second) // inside each extended TTL
		if lost := q.Heartbeat(w1, []string{t1.ID}); lost != nil {
			t.Fatalf("heartbeat lost %v", lost)
		}
		if tk := q.Lease(w2); tk != nil {
			t.Fatalf("heartbeat did not hold the lease: %+v leased", tk)
		}
	}
	// Stop heartbeating: the lease dies and the heartbeat reports it.
	clk.Advance(11 * time.Second)
	lost := q.Heartbeat(w1, []string{t1.ID})
	if len(lost) != 1 || lost[0] != t1.ID {
		t.Fatalf("lost = %v, want [%s]", lost, t1.ID)
	}
	if tk := taken(t, take(q)); tk.Attempt != 2 {
		t.Fatalf("expired task not taken in-process: %+v", tk)
	}
}

// TestQueueInProcessLeaseRule: with no live worker an in-process
// lessee takes its batch's fresh tasks and no other batch's; a live
// worker keeps them; once it falls silent, Expire wakes the lessee,
// which stops when its batch is delivered.
func TestQueueInProcessLeaseRule(t *testing.T) {
	clk := newFakeClock()
	q := newQueue(clk) // WorkerTTL defaults to 2×LeaseTTL = 20 s
	// Another batch's task, never this lessee's.
	q.Enqueue([]Task{{Batch: "job-0", Kind: KindSim}})
	ch := q.Enqueue(simTasks(1))
	tk := taken(t, take(q))
	if tk.Batch != "job-1" {
		t.Fatalf("lessee of job-1 took %+v", tk)
	}
	q.Complete(InProcess, done(tk.ID))
	recv(t, ch)
	if tk := taken(t, take(q)); tk != nil {
		t.Fatalf("lessee of a delivered batch took %+v", tk)
	}

	q.Register("silent")
	q.Enqueue(simTasks(1))
	lessee := take(q)
	notTaken(t, lessee)
	clk.Advance(21 * time.Second)
	notTaken(t, lessee) // no event yet
	q.Expire()
	if tk := taken(t, lessee); tk == nil || tk.Attempt != 1 {
		t.Fatalf("stranded task: %+v", tk)
	}
	if st := q.Stats(); st.Leased != 1 || st.Pending != 1 || st.LiveWorkers != 0 {
		t.Fatalf("stats %+v", st)
	}

	q.Close()
	if tk := taken(t, take(q)); tk != nil {
		t.Fatalf("closed queue handed out %+v", tk)
	}
}

// TestQueueDrain: a draining queue leases nothing to remote workers;
// the in-process lessee takes every pending task, also of a batch
// enqueued after the drain, and a remote lease may still complete.
func TestQueueDrain(t *testing.T) {
	clk := newFakeClock()
	q := newQueue(clk)
	w := q.Register("w")
	ch := q.Enqueue(simTasks(2))
	t1 := q.Lease(w)

	q.Drain()
	q.Drain() // idempotent

	if tk := q.Lease(w); tk != nil {
		t.Fatalf("drained queue leased %+v", tk)
	}
	ch2 := q.Enqueue(simTasks(1))
	for range 2 {
		tk := taken(t, take(q))
		q.Complete(InProcess, done(tk.ID))
	}
	if r := recv(t, ch); r.Err != "" || r.Index != 1 {
		t.Fatalf("pending task result %+v", r)
	}
	if r := recv(t, ch2); r.Err != "" {
		t.Fatalf("post-drain enqueue result %+v", r)
	}
	if !q.Complete(w, done(t1.ID)) {
		t.Fatal("in-flight completion rejected while draining")
	}
	if r := recv(t, ch); r.Err != "" || r.Index != 0 {
		t.Fatalf("in-flight result %+v", r)
	}
}

// TestQueueDrainRequeuesExpiredInFlight: a leased task whose worker
// dies during drain runs in-process, neither failed nor hung.
func TestQueueDrainRequeuesExpiredInFlight(t *testing.T) {
	clk := newFakeClock()
	q := newQueue(clk)
	w := q.Register("w")
	ch := q.Enqueue(simTasks(1))
	q.Lease(w)
	q.Drain()
	clk.Advance(11 * time.Second)
	q.Expire()
	tk := taken(t, take(q))
	q.Complete(InProcess, done(tk.ID))
	if r := recv(t, ch); r.Err != "" {
		t.Fatalf("result %+v", r)
	}
}

func TestQueueLiveWorkersExpire(t *testing.T) {
	clk := newFakeClock()
	q := newQueue(clk) // WorkerTTL defaults to 2×LeaseTTL = 20 s
	w := q.Register("w")
	q.Register("silent")
	clk.Advance(15 * time.Second)
	q.Heartbeat(w, nil) // only w stays in touch
	clk.Advance(10 * time.Second)
	if n := q.LiveWorkers(); n != 1 {
		t.Fatalf("LiveWorkers = %d, want 1 (only the heartbeating one)", n)
	}
	clk.Advance(25 * time.Second)
	if n := q.LiveWorkers(); n != 0 {
		t.Fatalf("LiveWorkers = %d, want 0", n)
	}
}

// BenchmarkInProcessHop is the cost the queue adds to a job the server
// runs itself: Enqueue, a lessee's Take, Execute of a task without a
// payload (it returns at once), Complete and the result's receive.
func BenchmarkInProcessHop(b *testing.B) {
	farm := simfarm.New(simfarm.Config{Workers: 1})
	q := NewQueue(QueueConfig{})
	for i := 0; i < b.N; i++ {
		ch := q.Enqueue([]Task{{Batch: "job-1", Kind: KindSim}})
		done := make(chan struct{})
		go func() {
			for t := q.Take("job-1"); t != nil; t = q.Take("job-1") {
				q.Complete(InProcess, Execute(farm, t))
			}
			close(done)
		}()
		<-ch
		<-done
	}
}
