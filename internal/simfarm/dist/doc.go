// Package dist is the distribution layer of the simulation farm: the
// pieces that turn cabt-serve from one process with in-memory job
// records into a control plane with replaceable workers.
//
// It has three independent parts, composed by internal/simfarm/server:
//
//   - Journal: a durable, append-only, checksum-framed record of every
//     batch (submitted, then finished or failed), replayed on startup so
//     the server survives a restart without losing finished job results.
//     Any damaged tail — a torn write, a flipped bit — is truncated at
//     the last intact record, mirroring the translation store's
//     corruption tolerance.
//
//   - Queue: a leased work queue, the one path of every batch. Worker
//     processes (cmd/cabt-worker) register, lease one task at a time,
//     heartbeat while executing and complete with the result; each
//     batch's in-process lessees take its tasks through a Go call
//     (Queue.Take) and run them on the server's farm. Both run a task
//     with Execute. A remote lease that is not heartbeat within its TTL
//     expires, and it and a remote worker's failed task go to an
//     in-process lessee, so a kill -9'd or rotten worker costs one
//     delivery and the batch still completes; with no live worker, or
//     while the server drains, the in-process lessees take every task.
//     Tasks carry fully resolved simfarm.Job / simfarm.SoCJob
//     specs (everything is exported and JSON-serializable), so workers
//     never resolve names against registries that could drift.
//
//   - Store protocol: StoreServer serves the content-addressed
//     translation store over HTTP (GET/PUT /v1/store/{key}) and
//     RemoteStore is the worker-side client, a simfarm.ProgramStore
//     whose levels are local memory (the TranslationCache above it), a
//     local disk store, and the server's store over HTTP. It serves
//     every tenant: the farm hands it tenant-derived keys. Objects are
//     immutable and addressed by that key, so ETag is simply the key
//     and If-None-Match revalidation short-circuits redundant transfers
//     with 304.
//
// Everything is deterministic where it matters: a task executed on any
// worker produces results bit-identical to the single-process farm
// (repro.Measure stays the oracle), which is also what makes re-running
// a lost worker's tasks safe.
package dist
