package soc

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/socbus"
)

// This file is the speculative parallel quantum scheduler. Each quantum
// the runnable cores execute concurrently — every core on its own
// goroutine against a private shadow world (shadow bus devices, a clone
// of the arbiter, a shadow interrupt controller) — and then commit in
// service order on the scheduler goroutine. A lane whose transaction
// log is consistent with running after the already-committed prefix is
// replayed onto the live world; a conflicting lane is rolled back to
// its quantum-boundary checkpoint and re-run against the live world,
// which is exactly the sequential schedule for that lane.
//
// The commit check has four parts (see commitState in commitlog.go for
// the granule rules):
//
//  1. the lane ran without error (a speculative error is treated as a
//     conflict — the sequential re-run reproduces any real error
//     deterministically);
//  2. the core's live interrupt-controller block still equals its
//     quantum-boundary snapshot — a committed post (doorbell), a
//     cross-core RAISE or a timer raise would have changed the line the
//     lane sampled;
//  3. no logged transaction touches a conflict granule the committed
//     prefix mutated;
//  4. the lane's bus grants replay identically against the live
//     arbiter (previewed on a scratch copy), so its charged wait-states
//     — and therefore its timing — were right.
//
// By induction over the service order, a committed quantum is
// bit-identical to the sequential scheduler's: the first core in
// service order runs against the live world itself (the lead lane, on
// the scheduler goroutine — nothing can commit before it), and every
// later core either proves its speculation equivalent or re-runs
// sequentially. GOMAXPROCS, goroutine scheduling and commit timing
// never influence an architectural result.
type specLane struct {
	// bus and arb are the lane's private world; irq is the shadow
	// interrupt controller on that bus (the lane core's IRQ line samples
	// it while speculating).
	bus *socbus.Bus
	arb *Arbiter
	irq *socbus.IRQController

	// txns is the lane's transaction log for this quantum; irqSnap is
	// the live controller's block state at the quantum boundary; err is
	// the speculative run's error, if any.
	txns    []busTxn
	irqSnap socbus.IRQCoreState
	err     error
}

// parRuntime is the parallel scheduler's persistent state: one lane per
// core, the commit machinery, and the worker goroutine plumbing. All
// cross-goroutine handoff happens through the start/done channels —
// a lane's state is written only before its start send or after its
// done receive, so the channels' happens-before edges are the entire
// synchronization story.
type parRuntime struct {
	lanes []*specLane
	cs    *commitState

	run       []int    // runnable cores of the quantum, in service order
	leadTxns  []busTxn // lead lane's live-world transaction log
	rerunTxns []busTxn // a rolled-back lane's re-run transaction log

	start []chan int64 // per-core: run your lane to the sent target
	done  chan int     // lane finished (carries the core index)
	stop  chan struct{}

	// Speculation-outcome counters, per core. Written only by the
	// scheduler goroutine (plain ints, no atomics needed); the flushed*
	// shadows track what flushObs already published (see trace.go).
	specCommits, specRollbacks, specReruns          []int64
	flushedCommits, flushedRollbacks, flushedReruns []int64
}

// initParallel lazily builds the parallel runtime: one shadow world per
// core and the commit state. The shadow mailbox's doorbell port is
// wired to the shadow interrupt controller, so a speculating core's
// posts ring doorbells only in its own world; the commit machinery's
// extraMutation hook mirrors the same side channel on the live world —
// a committed post also mutates the receiving core's interrupt block.
func (s *System) initParallel() error {
	if s.par != nil {
		return nil
	}
	n := len(s.cores)
	pr := &parRuntime{
		lanes:            make([]*specLane, n),
		cs:               newCommitState(s.Bus, s.Arb),
		run:              make([]int, 0, n),
		start:            make([]chan int64, n),
		done:             make(chan int, n),
		specCommits:      make([]int64, n),
		specRollbacks:    make([]int64, n),
		specReruns:       make([]int64, n),
		flushedCommits:   make([]int64, n),
		flushedRollbacks: make([]int64, n),
		flushedReruns:    make([]int64, n),
	}
	for i := 0; i < n; i++ {
		sb, err := s.Bus.NewShadow()
		if err != nil {
			return fmt.Errorf("soc: parallel: %w", err)
		}
		lane := &specLane{bus: sb, arb: s.Arb.clone()}
		irq, ok := sb.DeviceAt(s.IRQ.Base).(*socbus.IRQController)
		if !ok {
			return fmt.Errorf("soc: parallel: shadow bus lost the interrupt controller")
		}
		lane.irq = irq
		if mail, ok := sb.DeviceAt(s.Mail.Base).(*socbus.Mailbox); ok {
			mail.OnPost = func(slot int) { irq.Raise(slot, socbus.LineDoorbell) }
		}
		pr.lanes[i] = lane
		pr.start[i] = make(chan int64)
	}
	mailBase, mailSize := s.Mail.Range()
	pr.cs.extraMutation = func(addr uint32) (uint64, bool) {
		if addr < mailBase || addr-mailBase >= mailSize {
			return 0, false
		}
		off := addr - mailBase
		if off%socbus.SlotStride != 0 {
			return 0, false
		}
		slot := off / socbus.SlotStride
		g, _ := s.Bus.AccessMeta(s.IRQ.Base + slot*socbus.IRQStride)
		return g, true
	}
	s.par = pr
	return nil
}

// startWorkers spawns one persistent worker goroutine per core. A
// worker only ever runs its own core against that core's private lane
// world, so concurrent lanes touch disjoint state.
func (pr *parRuntime) startWorkers(s *System) {
	pr.stop = make(chan struct{})
	for i := range s.cores {
		go func(ci int) {
			lane := pr.lanes[ci]
			c := s.cores[ci]
			for {
				select {
				case <-pr.stop:
					return
				case limit := <-pr.start[ci]:
					lane.err = c.RunUntil(limit)
					pr.done <- ci
				}
			}
		}(i)
	}
}

// stopWorkers retires the worker goroutines.
func (pr *parRuntime) stopWorkers() { close(pr.stop) }

// runParallel is the speculative parallel scheduler. Its quantum loop
// is the sequential scheduler's — the same step between quanta
// (beginQuantum) — with the per-quantum core servicing delegated to
// parallelQuantum.
func (s *System) runParallel() error {
	if err := s.initParallel(); err != nil {
		return err
	}
	s.traceInit()
	pr := s.par
	pr.startWorkers(s)
	defer pr.stopWorkers()
	defer pr.flushObs(s)
	for q, target := int64(0), int64(0); ; q++ {
		if done, err := s.beginQuantum(target); done || err != nil {
			return err
		}
		target += s.cfg.Quantum
		if err := s.parallelQuantum(q, target); err != nil {
			return err
		}
		if s.trc != nil {
			s.traceQuantum(q, target-s.cfg.Quantum, target)
		}
	}
}

// parallelQuantum services one quantum: launch the speculative lanes,
// run the lead lane on this goroutine, then commit in service order.
func (s *System) parallelQuantum(q, target int64) error {
	pr := s.par
	pr.run = pr.run[:0]
	for _, ci := range s.scheduleOrder(q) {
		if !s.cores[ci].Halted() {
			pr.run = append(pr.run, ci)
		}
	}
	if len(pr.run) == 0 {
		return nil
	}
	if len(pr.run) == 1 {
		c := s.cores[pr.run[0]]
		if err := c.RunUntil(target); err != nil {
			return fmt.Errorf("soc: %s: %w", c.name, err)
		}
		return nil
	}

	// Launch every core after the lead as a speculative lane: refresh
	// its shadow world from the live one, snapshot its interrupt block,
	// checkpoint the core, retarget its bus port and IRQ line at the
	// lane, and hand it to its worker.
	spec := pr.run[1:]
	for _, ci := range spec {
		c, lane := s.cores[ci], pr.lanes[ci]
		s.Bus.SyncShadow(lane.bus)
		lane.arb.copyStateFrom(s.Arb)
		lane.txns = lane.txns[:0]
		lane.irqSnap = s.IRQ.CoreState(ci)
		c.Checkpoint()
		c.port.arb, c.port.bus, c.port.rec = lane.arb, lane.bus, &lane.txns
		c.irqSrc = lane.irq
		pr.start[ci] <- target
	}

	// The lead lane — the first runnable core in service order — runs
	// on this goroutine against the live world: nothing can commit
	// before it, so its execution is sequentially exact by construction.
	// Recording is on to seed the quantum's mutation set.
	pr.cs.reset()
	lead := s.cores[pr.run[0]]
	pr.leadTxns = pr.leadTxns[:0]
	lead.port.rec = &pr.leadTxns
	leadErr := lead.RunUntil(target)
	lead.port.rec = nil

	// Join every lane before touching any of their state.
	for range spec {
		<-pr.done
	}

	var runErr error
	if leadErr != nil {
		runErr = fmt.Errorf("soc: %s: %w", lead.name, leadErr)
	} else {
		pr.cs.noteMutations(pr.leadTxns)
	}

	// Commit in service order. After an error, the remaining lanes are
	// only rolled back, leaving the SoC where the sequential scheduler's
	// abort would have left it.
	tracing := s.trc != nil && obs.Trace.Enabled()
	qStart := target - s.cfg.Quantum
	for _, ci := range spec {
		c, lane := s.cores[ci], pr.lanes[ci]
		c.port.arb, c.port.bus, c.port.rec = s.Arb, s.Bus, nil
		c.irqSrc = s.IRQ
		if runErr != nil {
			pr.specRollbacks[ci]++
			c.rollback()
			continue
		}
		// The four commit checks, in the order the package comment gives
		// them; cause names the first one that failed ("" = clean).
		var cause string
		switch {
		case lane.err != nil:
			cause = "error"
		case s.IRQ.CoreState(ci) != lane.irqSnap:
			cause = "irq"
		case pr.cs.conflicts(lane.txns):
			cause = "conflict"
		case !pr.cs.grantsMatch(lane.txns):
			cause = "grants"
		}
		if cause == "" {
			if err := pr.cs.replay(ci, lane.txns); err != nil {
				runErr = fmt.Errorf("soc: %s: %w", c.name, err)
				pr.specRollbacks[ci]++
				c.rollback()
				continue
			}
			pr.specCommits[ci]++
			if tracing {
				traceSpec("commit", ci, qStart, target)
			}
			c.CommitCheckpoint()
			pr.cs.noteMutations(lane.txns)
			continue
		}
		// Conflict (or speculative error): back to the quantum boundary
		// and through the live world, i.e. the sequential schedule.
		pr.specRollbacks[ci]++
		if tracing {
			traceSpec("rollback:"+cause, ci, qStart, target)
		}
		c.rollback()
		pr.specReruns[ci]++
		pr.rerunTxns = pr.rerunTxns[:0]
		c.port.rec = &pr.rerunTxns
		err := c.RunUntil(target)
		c.port.rec = nil
		if err != nil {
			runErr = fmt.Errorf("soc: %s: %w", c.name, err)
			continue
		}
		pr.cs.noteMutations(pr.rerunTxns)
	}
	return runErr
}
