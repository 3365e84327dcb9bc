package dist

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// QueueConfig tunes the leased work queue. The zero value is usable:
// 15 s leases, workers considered gone after two lease TTLs of silence,
// wall clock.
type QueueConfig struct {
	// LeaseTTL is how long a task leased to a remote worker stays
	// assigned without a heartbeat before it is requeued.
	LeaseTTL time.Duration
	// WorkerTTL is how long a registered worker counts as live after its
	// last contact (register, lease, heartbeat, complete).
	WorkerTTL time.Duration
	// Clock is the time source (tests inject a fake one).
	Clock func() time.Time
}

const defaultLeaseTTL = 15 * time.Second

// InProcess is the lessee name of the server's own in-process lessees
// (Take); remote worker IDs never collide with it.
const InProcess = "in-process"

// QueueStats is a point-in-time snapshot for /v1/metrics.
type QueueStats struct {
	Pending     int   // enqueued, waiting for a lease
	Leased      int   // currently leased, remotely or in-process
	LiveWorkers int   // remote workers heard from within WorkerTTL
	Enqueued    int64 // tasks ever enqueued
	Completed   int64 // tasks delivered with a result
	Expiries    int64 // remote leases lost to TTL expiry
	Retries     int64 // requeues after a remote expiry or failure
}

type workerState struct {
	name     string
	lastSeen time.Time
}

type queueTask struct {
	task     Task
	ch       chan<- TaskResult
	worker   string // "" while pending, InProcess, or a remote worker ID
	deadline time.Time
}

// Queue is the in-memory leased work queue. Enqueue hands back a
// channel that receives exactly one TaskResult per task. Two kinds of
// lessee take its tasks: remote workers over HTTP (Lease, Heartbeat,
// Complete), and the server's in-process lessees (Take, Complete with
// InProcess), which serve one batch each, block until the queue wakes
// them, send no heartbeat, and hold leases that never expire. The lease
// rule: remote workers get fresh tasks while the queue is not draining;
// an in-process lessee takes its batch's task whose remote delivery
// failed or expired, and any of its batch's pending tasks when no
// remote worker is live or the queue is draining. So a healthy fleet
// gets every task, a rotten one costs one delivery per task, and no
// task is ever failed by the queue. Remote leases expire lazily: every
// remote operation first requeues any lease whose deadline has passed. Durability is deliberately not
// the queue's job — the journal records batches, and an unfinished
// batch is failed on restart, so the queue can stay simple and
// in-memory.
type Queue struct {
	mu   sync.Mutex
	wake *sync.Cond // on mu: tells in-process lessees to look again
	// instance is a per-queue random nonce embedded in worker IDs.
	// Without it a restarted server's fresh queue would re-issue the same
	// sequential IDs, and a pre-restart worker could silently impersonate
	// a post-restart one instead of being told 410 to re-register.
	instance string
	cfg      QueueConfig
	nextW    int
	nextT    int
	workers  map[string]*workerState
	tasks    map[string]*queueTask
	pending  []string       // fresh task IDs, lease order
	retry    []string       // task IDs whose remote delivery failed: in-process only
	open     map[string]int // batch -> its tasks not yet delivered
	draining bool
	closed   bool

	enqueued  int64
	completed int64
	expiries  int64
	retries   int64
}

// NewQueue builds a queue, applying defaults for unset config fields.
func NewQueue(cfg QueueConfig) *Queue {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = defaultLeaseTTL
	}
	if cfg.WorkerTTL <= 0 {
		cfg.WorkerTTL = 2 * cfg.LeaseTTL
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	var nonce [4]byte
	rand.Read(nonce[:])
	q := &Queue{
		cfg:      cfg,
		instance: hex.EncodeToString(nonce[:]),
		workers:  make(map[string]*workerState),
		tasks:    make(map[string]*queueTask),
		open:     make(map[string]int),
	}
	q.wake = sync.NewCond(&q.mu)
	return q
}

// LeaseTTL returns the queue's lease duration (advertised to workers at
// registration).
func (q *Queue) LeaseTTL() time.Duration { return q.cfg.LeaseTTL }

// Register adds a worker and returns its queue-assigned ID.
func (q *Queue) Register(name string) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.nextW++
	id := fmt.Sprintf("w-%s-%d", q.instance, q.nextW)
	q.workers[id] = &workerState{name: name, lastSeen: q.cfg.Clock()}
	return id
}

// Known reports whether workerID was issued by this queue instance. A
// server restart builds a fresh queue, so IDs from before the restart
// are unknown — the worker API answers them 410 Gone, which tells the
// worker to re-register rather than retry.
func (q *Queue) Known(workerID string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.workers[workerID]
	return ok
}

// LiveWorkers reports how many remote workers have been heard from
// within WorkerTTL.
func (q *Queue) LiveWorkers() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.liveWorkersLocked(q.cfg.Clock())
}

func (q *Queue) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range q.workers {
		if now.Sub(w.lastSeen) <= q.cfg.WorkerTTL {
			n++
		}
	}
	return n
}

// Enqueue adds a batch of tasks and returns the channel their results
// will be delivered on. The channel is buffered for the whole batch and
// receives exactly len(tasks) sends, in completion order. Task IDs are
// assigned here; the caller's Batch/Index/Kind/spec fields are
// preserved.
func (q *Queue) Enqueue(tasks []Task) <-chan TaskResult {
	ch := make(chan TaskResult, len(tasks))
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range tasks {
		q.nextT++
		t := tasks[i]
		t.ID = fmt.Sprintf("t-%d", q.nextT)
		t.Attempt = 0
		q.enqueued++
		q.tasks[t.ID] = &queueTask{task: t, ch: ch}
		q.open[t.Batch]++
		q.pending = append(q.pending, t.ID)
	}
	q.wake.Broadcast()
	return ch
}

// Lease hands a remote worker the next fresh task, or nil when there is
// none or the queue is draining. The returned task's Attempt is
// 1-based.
func (q *Queue) Lease(workerID string) *Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.touch(workerID)
	q.expireLocked(now)
	if q.draining || len(q.pending) == 0 {
		return nil
	}
	qt := q.tasks[q.pending[0]]
	q.pending = q.pending[1:]
	qt.worker, qt.deadline = workerID, now.Add(q.cfg.LeaseTTL)
	qt.task.Attempt++
	t := qt.task
	return &t
}

// Take is the Lease of an in-process lessee serving batch: it blocks
// until the lease rule (see Queue) gives it one of the batch's tasks,
// and returns nil once every task of the batch has been delivered or
// the queue is closed. Liveness runs out without any queue event, so
// whoever tracks time (the server's expiry sweep) must call Expire to
// have it looked at again.
func (q *Queue) Take(batch string) *Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && q.open[batch] > 0 {
		if t := q.takeLocked(&q.retry, batch); t != nil {
			return t
		}
		if q.draining || q.liveWorkersLocked(q.cfg.Clock()) == 0 {
			if t := q.takeLocked(&q.pending, batch); t != nil {
				return t
			}
		}
		q.wake.Wait()
	}
	return nil
}

// takeLocked leases batch's first task on list in-process, or returns
// nil when list holds none. Callers hold q.mu.
func (q *Queue) takeLocked(list *[]string, batch string) *Task {
	for i, id := range *list {
		if qt := q.tasks[id]; qt.task.Batch == batch {
			*list = append((*list)[:i], (*list)[i+1:]...)
			qt.worker = InProcess
			qt.task.Attempt++
			t := qt.task
			return &t
		}
	}
	return nil
}

// Heartbeat extends the worker's leases on the listed tasks and returns
// the IDs it no longer holds (expired and requeued, or already
// completed) so the worker can abandon them.
func (q *Queue) Heartbeat(workerID string, taskIDs []string) (lost []string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.touch(workerID)
	q.expireLocked(now)
	for _, id := range taskIDs {
		qt, ok := q.tasks[id]
		if !ok || qt.worker != workerID {
			lost = append(lost, id)
			continue
		}
		qt.deadline = now.Add(q.cfg.LeaseTTL)
	}
	return lost
}

// Complete delivers a lessee's result for a task. A completion is
// accepted if the lessee still holds the lease, or if a remote lease
// expired but no one has taken the task since — the work is done and
// deterministic, so delivering it early is safe. It is rejected (false)
// once the task has been completed or re-leased, which is what prevents
// double delivery after an expiry race. A remote worker's task-level
// error, or a result without one, is not delivered: the task goes to an
// in-process lessee.
func (q *Queue) Complete(workerID string, res TaskResult) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.touch(workerID)
	q.expireLocked(now)
	qt, ok := q.tasks[res.TaskID]
	if !ok || (qt.worker != workerID && qt.worker != "") {
		return false
	}
	if workerID != InProcess && (res.Err != "" || res.Sim == nil && res.SoC == nil) {
		if qt.worker != "" { // else it already waits on the retry list
			q.retryLocked(qt)
		}
		return true
	}
	if qt.worker == "" {
		q.pending, q.retry = remove(q.pending, res.TaskID), remove(q.retry, res.TaskID)
	}
	q.completed++
	delete(q.tasks, res.TaskID)
	if q.open[qt.task.Batch]--; q.open[qt.task.Batch] == 0 {
		delete(q.open, qt.task.Batch)
		q.wake.Broadcast() // the batch's lessees are done
	}
	res.Index = qt.task.Index
	qt.ch <- res
	return true
}

// Drain switches the queue into shutdown mode: remote workers get no
// new leases, in-process lessees take every pending task, and leased
// tasks may still complete. Idempotent.
func (q *Queue) Drain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.draining = true
	q.wake.Broadcast()
}

// Close makes every Take return nil, now and later.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.wake.Broadcast()
}

// Expire requeues every remote lease whose deadline has passed and
// wakes the in-process lessees, whose lease rule depends on the clock.
// Expiry is also performed lazily by every remote queue operation; a
// periodic Expire from the server bounds requeue latency when no worker
// is talking to us.
func (q *Queue) Expire() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(q.cfg.Clock())
	q.wake.Broadcast()
}

// Stats snapshots the queue for /v1/metrics.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.cfg.Clock()
	q.expireLocked(now)
	st := QueueStats{
		Pending:     len(q.pending) + len(q.retry),
		LiveWorkers: q.liveWorkersLocked(now),
		Enqueued:    q.enqueued,
		Completed:   q.completed,
		Expiries:    q.expiries,
		Retries:     q.retries,
	}
	for _, qt := range q.tasks {
		if qt.worker != "" {
			st.Leased++
		}
	}
	return st
}

// touch records worker contact and returns now.
func (q *Queue) touch(workerID string) time.Time {
	now := q.cfg.Clock()
	if w, ok := q.workers[workerID]; ok {
		w.lastSeen = now
	}
	return now
}

// expireLocked sends every remote lease past its deadline to the
// retry list. Callers hold q.mu.
func (q *Queue) expireLocked(now time.Time) {
	for _, qt := range q.tasks {
		if qt.worker == "" || qt.worker == InProcess || now.Before(qt.deadline) {
			continue
		}
		q.expiries++
		q.retryLocked(qt)
	}
}

// retryLocked hands a task whose remote delivery failed or expired to
// the in-process lessees. Callers hold q.mu.
func (q *Queue) retryLocked(qt *queueTask) {
	q.retries++
	qt.worker = ""
	q.retry = append(q.retry, qt.task.ID)
	q.wake.Broadcast()
}

// remove returns list without id.
func remove(list []string, id string) []string {
	for i, p := range list {
		if p == id {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}
