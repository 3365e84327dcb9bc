// Package faultinject is the repository's seeded, deterministic
// fault-injection layer: named fault points threaded through the
// distributed farm (journal appends and compaction, store writes, the
// worker protocol and the remote store protocol) that can be armed with per-point probability, nth-evaluation and
// fire-count triggers from a single seeded profile.
//
// The contract has three parts:
//
//   - Deterministic: every point draws from its own PRNG, derived from
//     (profile seed, point name), so a point's fire/no-fire sequence is
//     a pure function of the seed and that point's evaluation order —
//     independent of what other points or goroutines do. A failing
//     chaos run replays from its printed seed.
//
//   - Free when disarmed: with no active plan, every hook is one atomic
//     pointer load returning the zero decision — no allocation, no map
//     lookup, no lock (pinned by TestDisabledZeroAlloc and
//     BenchmarkShouldDisabled). The simulation engines themselves carry
//     no fault points at all; injection lives only on control-plane and
//     storage paths.
//
//   - Failure-shaped: the helpers produce the real failure modes the
//     self-healing machinery must survive — transport errors and
//     truncated bodies (Transport, Middleware), torn writes, fsync
//     errors and ENOSPC (Should + the errno helpers), and process death
//     (Crash, which exits the process via CrashFn so lease expiry,
//     journal recovery and worker respawn are exercised for real).
//
// Profiles are parsed from a compact spec (see Parse), usually taken
// from the CABT_FAULTS environment variable by cmd/cabt-serve and
// cmd/cabt-worker:
//
//	CABT_FAULTS='seed=42;net.delay:p=0.05,ms=3;journal.sync.err:p=0.1;worker.complete.crash:nth=5'
//	CABT_FAULTS='default:seed=42'   // the built-in chaos profile
//
// The canonical point catalog lives in points.go; docs/architecture.md
// ("Fault tolerance") documents where each point cuts.
package faultinject
