package dist

import (
	"time"

	"repro/internal/simfarm"
)

// Task is one unit of distributable work: a single fully resolved
// simulation job of a batch. Exactly one of Sim or SoC is set, selected
// by Kind. Specs are shipped resolved (source text, options, march
// description) rather than by name, so a worker binary never resolves
// against registries that could drift from the server's.
type Task struct {
	// ID is the queue-assigned task identity ("t-<n>").
	ID string `json:"id"`
	// Batch is the server job record this task belongs to.
	Batch string `json:"batch"`
	// Index is the task's position in its batch; the collector writes
	// the result back at this index, preserving job order.
	Index int `json:"index"`
	// Tenant scopes the task's memo and store keys (it becomes the job's
	// unserialized Tenant).
	Tenant string `json:"tenant,omitempty"`
	// Kind selects the payload: "sim" (single-core sweep job) or "soc".
	Kind string `json:"kind"`
	// Attempt counts deliveries of this task, 1-based: 2 means one
	// earlier lease was lost or failed.
	Attempt int `json:"attempt"`

	Sim *simfarm.Job    `json:"sim,omitempty"`
	SoC *simfarm.SoCJob `json:"soc,omitempty"`
}

// Task kinds.
const (
	KindSim = "sim"
	KindSoC = "soc"
)

// TaskResult is a lessee's completion report for one task. Err is a
// task-level execution failure (the lessee could not run the job at
// all); from a remote worker it sends the task to an in-process lessee.
// A deterministic job failure — functional mismatch, translation error
// — travels inside the result's own Error field and is delivered as it
// is, whichever lessee ran the job.
type TaskResult struct {
	TaskID string `json:"task_id"`
	Index  int    `json:"index"`
	Worker string `json:"worker,omitempty"`

	Sim *simfarm.Result    `json:"sim,omitempty"`
	SoC *simfarm.SoCResult `json:"soc,omitempty"`

	// Counts carries the result's Counts across the wire (the field
	// itself is unexported): the job's share of the farm counters, which
	// the server restores before summarizing and adds to the tenant's
	// tally.
	Counts simfarm.FarmStats `json:"counts"`

	Err string `json:"error,omitempty"`
}

// --- worker protocol wire types ---

// RegisterRequest is the POST /v1/workers/register body.
type RegisterRequest struct {
	// Name is a human-readable worker label (host-pid by default); the
	// server's reply assigns the authoritative worker ID.
	Name string `json:"name"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTL is the lease duration the server grants; a worker must
	// heartbeat an in-flight task well within it (TTL/3 is the
	// convention) or the task is requeued elsewhere.
	LeaseTTL time.Duration `json:"lease_ttl_ns"`
}

// LeaseResponse is the POST /v1/workers/{id}/lease body. Task is nil
// when the queue has nothing to hand out (empty or draining) — the
// worker sleeps its poll interval and tries again.
type LeaseResponse struct {
	Task *Task `json:"task"`
}

// HeartbeatRequest extends the leases of the listed in-flight tasks.
type HeartbeatRequest struct {
	TaskIDs []string `json:"task_ids"`
}

// HeartbeatResponse reports leases the worker no longer holds (expired
// and requeued elsewhere); the worker's eventual completion of a lost
// task is rejected as stale, never double-delivered.
type HeartbeatResponse struct {
	Lost []string `json:"lost,omitempty"`
}
