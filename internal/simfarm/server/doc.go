// Package server is the HTTP front-end of the simulation farm: it turns
// the in-process batch API (simfarm.Farm.Run) into the multi-tenant
// batch-simulation service the ROADMAP's north star describes, served by
// cmd/cabt-serve.
//
// # API
//
//	POST /v1/jobs        submit a batch; returns 202 and a job id
//	GET  /v1/jobs/{id}   status; results + batch stats once done
//	                     (?wait=1 blocks until the batch finishes)
//	GET  /v1/stats       uptime, job counts, the caller's own farm
//	                     stats, persistent-store stats
//
// Requests and responses are JSON; the wire types (SubmitRequest,
// JobResponse, StatsResponse, …) are the authoritative schema and are
// shared with the cabt-smoke client. A submission either lists explicit
// JobSpec entries (workload × level × named config) or uses the
// workloads × levels sweep shorthand. Everything is by name — clients
// never ship code — so a job's results are exactly what the in-process
// farm, and transitively repro.Measure, would produce for the same
// (workload, options) pair.
//
// # Execution
//
// Every batch takes one path: its jobs become tasks on the server's
// leased queue (dist.Queue), and the results are collected from it in
// job order. Remote workers (cmd/cabt-worker) lease tasks over HTTP;
// each batch's Config.Workers in-process lessees take its tasks through
// a Go call and run them on the server's farm, with the same
// dist.Execute. An in-process lessee takes a task only when no worker
// is live, while the server drains, or when the task's delivery to a
// worker failed or expired — so a healthy fleet gets every task, a
// rotten one never fails a batch, and a drain finishes every batch it
// accepted.
//
// # Tenancy
//
// The X-Cabt-Tenant header scopes a request. One Farm runs every
// tenant's batches, keying each memoized assembly, reference run and
// translation by store.DeriveKey(tenant, content key) — the tenant's
// store namespace's on-disk key, under which a persistent store is
// written through: capacity is shared, cache entries are not. The empty
// tenant is the store's root namespace, shared with local cabt-farm
// -cache-dir runs against the same directory. Job records and stats are
// scoped the same way: another tenant's job id answers 404, and
// /v1/stats reports only the caller's own share of the farm counters —
// summed from its results (simfarm.Result.Counts), so the figures are
// the same whichever process ran a job.
package server
