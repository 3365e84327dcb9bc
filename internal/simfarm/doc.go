// Package simfarm is a job-oriented simulation farm: it accepts batches
// of simulation jobs (workload × translation level × microarchitecture
// config), runs them on a bounded worker pool, and memoizes the expensive
// stages so batch traffic scales.
//
// # Model
//
// A [Job] names one simulation: a workload (TC32 assembly plus expected
// output), translator options (detail level, microarchitecture
// description, ablation switches) and an optional config label for
// sweeps. A [Result] carries the same quantities as the paper's
// evaluation — per-job cycle counts, CPI, MIPS, cycle-count deviation
// versus the reference board — plus host wall-times and the speedup of
// the translated run over the reference instruction-set simulator.
//
// # Farm
//
// A [Farm] executes batches with configurable parallelism.
// [Farm.Submit] streams results on a channel in completion order for
// progress consumers; [Farm.Run] collects them back into deterministic
// job order and summarizes the batch ([BatchStats]: jobs run, cache
// hits/misses, simulated cycles per wall-second). All simulators in the
// repository are deterministic, so a job's cycle counts are independent
// of worker scheduling — only wall-times vary between runs, which the
// determinism tests exploit.
//
// # Content-addressed translation cache
//
// Translation (core.Translate) is the farm's expensive static stage, and
// batches repeat it heavily: a sweep over cache geometries re-translates
// the same program at the same level, and repeated jobs re-translate
// identical inputs. [TranslationCache] memoizes translated programs
// under a content-addressed [Key]: the SHA-256 of the marshalled ELF
// image combined with a canonical fingerprint of the translation-
// relevant core.Options fields. The fingerprint deliberately excludes
// fields a given detail level cannot observe — most usefully the
// instruction-cache geometry below Level3 — so a sweep over I-cache
// configs at levels 0–2 shares one translated program per
// (workload, level). Assembly and reference-simulator runs are memoized
// the same way inside the farm (reference results keyed on ELF hash ×
// full microarchitecture description, since the live reference I-cache
// observes every Desc field).
//
// All three are one memo type, and every key is scoped to [Job.Tenant],
// so one Farm serves many tenants without sharing an entry between them.
// Each result carries its job's share of the farm's counters
// ([Result.Counts]), so a tally per tenant is a sum over its results,
// wherever they ran.
//
// The cache is optionally two-level: [NewPersistentTranslationCache]
// backs the in-memory memo with a write-through on-disk store
// (internal/simfarm/store), so translations survive the process and are
// shared across concurrent processes pointed at the same directory —
// content addresses make that safe by construction. A disk-served
// program counts as a hit (tracked separately as [TranslationCache.DiskHits]);
// only an actual core.Translate run is a miss, and store failures
// degrade to memory-only behaviour rather than failing jobs.
//
// # Serving batches over HTTP
//
// internal/simfarm/server exposes Farm.Run as a multi-tenant HTTP job
// API (cmd/cabt-serve): one farm serves every tenant, and its cache
// writes through to one shared store under tenant-derived keys. See
// docs/architecture.md for the endpoints and formats.
//
// # Reproducing the paper through the farm
//
// The top-level repro package routes MeasureTable1 and MeasureTable2
// through a shared process-wide Farm, so the paper's tables are produced
// by the same code path that serves batch traffic, and cmd/cabt-farm
// runs full sweeps (all workloads × all levels × several cache configs)
// emitting JSON and a summary table. repro.Measure remains a direct,
// farm-free implementation and serves as the equivalence oracle: the
// farm must produce bit-identical cycle counts for the same job.
package simfarm
