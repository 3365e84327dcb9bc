package soc

import (
	"fmt"

	"repro/internal/socbus"
)

// Arbitration selects the bus-arbitration policy of the SoC: the order
// cores are serviced within a quantum, which is the order same-cycle
// contenders win the shared bus.
type Arbitration int

// Arbitration policies.
const (
	// RoundRobin rotates the starting core every quantum, so no core has
	// standing priority over the bus.
	RoundRobin Arbitration = iota
	// FixedPriority always services cores in index order: core 0 wins
	// every tie.
	FixedPriority
)

// String names the policy.
func (a Arbitration) String() string {
	switch a {
	case RoundRobin:
		return "round-robin"
	case FixedPriority:
		return "fixed-priority"
	}
	return fmt.Sprintf("Arbitration(%d)", int(a))
}

// ArbitrationByName parses a policy name ("rr", "round-robin", "fixed",
// "fixed-priority").
func ArbitrationByName(s string) (Arbitration, bool) {
	switch s {
	case "rr", "round-robin":
		return RoundRobin, true
	case "fixed", "fixed-priority":
		return FixedPriority, true
	}
	return 0, false
}

// Arbiter serializes shared-bus transactions and charges contention
// wait-states. A transaction granted at cycle g occupies the bus for
// [g, g+BusyCycles); a request at cycle t is granted the earliest slot
// ≥ t that avoids every reserved interval, and the slip is charged to
// the requesting core as wait-states.
//
// The reserved intervals live in a sliding window (sorted by start)
// that the quantum scheduler prunes at quantum boundaries. Compared to
// the previous single busy-until clock, slot packing fixes the
// quantum-skew overestimation at large quanta: a core serviced late in
// the quantum no longer queues behind bus occupancy that sits far in
// its own future — it packs into the free slot at its actual request
// time, exactly as same-cycle contenders would interleave at quantum 1.
// It is also what makes speculative parallel execution commit: a lane's
// grants replay identically as long as no earlier core reserved an
// overlapping slot.
type Arbiter struct {
	// BusyCycles is the bus occupancy of one transaction.
	BusyCycles int64

	window []busSlot
	grants []int64
	waits  []int64
}

// busSlot is one reserved occupancy interval [start, end).
type busSlot struct {
	start, end int64
}

func newArbiter(cores int, busy int64) *Arbiter {
	return &Arbiter{BusyCycles: busy, grants: make([]int64, cores), waits: make([]int64, cores)}
}

// slot returns the earliest grant cycle ≥ t whose occupancy interval
// avoids every reserved slot, without reserving it. The window's slots
// are equally long, disjoint and sorted by start, hence by end too: the
// scan starts at the first slot ending after t, found by binary search
// (every earlier one leaves g untouched).
func (a *Arbiter) slot(t int64) int64 {
	lo, hi := 0, len(a.window)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.window[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	g := t
	for _, s := range a.window[lo:] {
		if s.start >= g+a.BusyCycles {
			break // sorted by start: nothing later can overlap either
		}
		if s.end > g {
			g = s.end
		}
	}
	return g
}

// reserve marks [g, g+BusyCycles) occupied.
func (a *Arbiter) reserve(g int64) {
	lo, hi := 0, len(a.window)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.window[mid].start < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	a.window = append(a.window, busSlot{})
	copy(a.window[lo+1:], a.window[lo:])
	a.window[lo] = busSlot{start: g, end: g + a.BusyCycles}
}

// acquire grants the bus to core for a transaction requested at cycle t
// and returns the grant cycle (≥ t).
func (a *Arbiter) acquire(core int, t int64) int64 {
	grant := a.slot(t)
	a.reserve(grant)
	a.waits[core] += grant - t
	a.grants[core]++
	return grant
}

// prune drops reserved slots ending at or before cycle. The quantum
// scheduler calls it with a bound safely below any future request time,
// so pruning never changes a grant — it only keeps the window small.
func (a *Arbiter) prune(cycle int64) {
	keep := a.window[:0]
	for _, s := range a.window {
		if s.end > cycle {
			keep = append(keep, s)
		}
	}
	a.window = keep
}

// clone returns an independent copy (a speculative lane's private
// arbiter).
func (a *Arbiter) clone() *Arbiter {
	c := newArbiter(len(a.grants), a.BusyCycles)
	c.copyStateFrom(a)
	return c
}

// copyStateFrom refreshes a with src's state (same core count).
func (a *Arbiter) copyStateFrom(src *Arbiter) {
	a.BusyCycles = src.BusyCycles
	a.window = append(a.window[:0], src.window...)
	copy(a.grants, src.grants)
	copy(a.waits, src.waits)
}

// Grants returns the number of bus transactions core has performed.
func (a *Arbiter) Grants(core int) int64 { return a.grants[core] }

// Waits returns the total contention wait-state cycles charged to core.
func (a *Arbiter) Waits(core int) int64 { return a.waits[core] }

// busPort is one core's window onto the shared bus: it runs every access
// through the arbiter, timestamps the transaction with the grant cycle,
// and accumulates the wait-states for the core's timing model to drain
// (iss.WaitReporter, found by both core models at AttachBus).
//
// The parallel scheduler retargets arb/bus at a speculative lane's
// private world for the duration of a quantum and sets rec to the
// lane's transaction log; the port is only ever retargeted between
// phases on the scheduler goroutine, so the core that runs through it
// always sees a consistent world.
type busPort struct {
	core    int
	arb     *Arbiter
	bus     *socbus.Bus
	pending int64
	rec     *[]busTxn
}

// BusRead32 implements iss.Bus.
func (p *busPort) BusRead32(addr uint32, cycle int64) uint32 {
	grant := p.arb.acquire(p.core, cycle)
	p.pending += grant - cycle
	v := p.bus.BusRead32(addr, grant)
	if p.rec != nil {
		*p.rec = append(*p.rec, busTxn{addr: addr, val: v, req: cycle, grant: grant})
	}
	return v
}

// BusWrite32 implements iss.Bus.
func (p *busPort) BusWrite32(addr uint32, val uint32, cycle int64) {
	grant := p.arb.acquire(p.core, cycle)
	p.pending += grant - cycle
	p.bus.BusWrite32(addr, val, grant)
	if p.rec != nil {
		*p.rec = append(*p.rec, busTxn{addr: addr, val: val, write: true, req: cycle, grant: grant})
	}
}

// TakeWait implements iss.WaitReporter: it drains the wait-states
// accumulated since the last call.
func (p *busPort) TakeWait() int64 {
	w := p.pending
	p.pending = 0
	return w
}
