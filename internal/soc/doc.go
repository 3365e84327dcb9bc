// Package soc simulates a multi-core SoC: N TC32 cores — each executing
// its own program on the translated emulation platform
// (internal/platform) or on the cycle-accurate reference ISS
// (internal/iss), selectable per core and held behind one interface that
// both satisfy directly — around one shared SoC bus
// (internal/socbus) carrying the inter-core devices: shared memory, a
// per-core mailbox/doorbell block, a bank of atomic counters, and the
// interrupt controller.
//
// # Quantum scheduling
//
// Every core owns a private memory and a private clock in the common
// source-cycle domain (the ISS pipeline clock, or the translated
// platform's generated-cycle count). The scheduler advances the cores
// toward a global target in fixed quanta of Config.Quantum cycles: each
// quantum, every non-halted core runs until its local clock reaches the
// target. Quantum=1 degenerates to cycle-lockstep — the accuracy oracle —
// while larger quanta amortize the scheduling overhead at the cost of
// intra-quantum skew between cores, exactly the trade made by
// quantum-based multi-core binary-translation simulators. Cores only
// interact through bus transactions (timestamped in the shared cycle
// domain), so on race-free workloads the functional results are
// independent of the quantum; cycle counts of workloads that synchronize
// by polling legitimately vary with it (a poll loop spins to the end of
// its quantum before the producer runs).
//
// # Bus arbitration
//
// All cores share the bus through per-core ports feeding one arbiter. A
// transaction occupies the bus for Config.BusBusyCycles; a port whose
// transaction arrives while the bus is busy is granted at the earliest
// free cycle and the difference is charged back to the requesting core as
// wait-state cycles. Both core models find the port's iss.WaitReporter at
// AttachBus and drain it themselves inside RunUntil: pipeline stalls on
// an ISS core, generated cycles on a translated core. The arbitration
// policy decides the intra-quantum service order of the cores, which is
// exactly the order same-cycle contenders win the bus: FixedPriority
// always runs core 0 first, RoundRobin rotates the starting core every
// quantum.
//
// # Interrupts
//
// Every core's interrupt-line input is wired to its output of the
// interrupt controller (socbus.IRQController): mailbox posts ring the
// receiving core's doorbell line, RAISE writes are cross-core soft
// IPIs, and the per-core periodic timer line is clocked by the
// scheduler at quantum boundaries — never by bus timestamps, so raises
// are engine-independent. Between quanta the scheduler ticks the
// controller; within a core's slice, delivery happens at basic-block
// boundaries (the architecture's delivery points, identical for the
// ISS and the translated program — see docs/architecture.md,
// "Interrupts"), and a core waiting in wfi with an idle line advances
// its clock to exactly the quantum target. The sequential schedule
// makes all of it deterministic: at a fixed quantum, an interrupt
// raised at source cycle k is taken at the identical source cycle on
// every engine, which the package's differential interrupt matrix
// pins with zero tolerance; across quanta the interrupt-driven mc-irq-*
// workloads stay functionally bit-identical. An all-waiting SoC with no
// line asserted and no timer armed fails fast with a deadlock error.
//
// # Determinism
//
// The default scheduler is strictly sequential: cores run one after
// another within a quantum, in an order that depends only on (policy,
// quantum index). No goroutines, no map iteration, no wall-clock input —
// a run is bit-identical for any host GOMAXPROCS, which the package's
// tests enforce together with quantum=1 vs quantum=k equivalence on
// race-free workloads and translated-vs-ISS per-core differential runs.
//
// # Parallel execution
//
// Config.Parallel switches to a speculative parallel scheduler that is
// bit-identical to the sequential one — same outputs, cycle counts,
// wait-state accounting, device statistics and bus log — at any
// GOMAXPROCS. Each core runs its quantum on its own goroutine against a
// private shadow of the shared world while recording its bus
// transactions; cores then commit in sequential service order, a lane
// committing cleanly only if its reads, arbiter grants and sampled IRQ
// state are unaffected by everything committed before it (conflict
// granules: per word of shared RAM and counters, per mailbox slot, per
// core block of the interrupt controller; mutating reads count as
// writes). Clean lanes replay their transaction log onto the live world;
// conflicting lanes roll back via the engines' checkpoint/rollback hooks
// and re-run sequentially. The differential torture matrix, a
// property/fuzz harness over the commit log, and -race determinism
// stress tests pin the equivalence with zero tolerance; see
// docs/architecture.md, "Parallel SoC execution".
package soc
