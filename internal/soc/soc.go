package soc

import (
	"fmt"

	"repro/internal/c6x"
	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/iss"
	"repro/internal/march"
	"repro/internal/platform"
	"repro/internal/socbus"
)

// CoreConfig configures one core of the SoC.
type CoreConfig struct {
	// Name labels the core in errors and results ("core0" if empty).
	Name string
	// ELF is the core's assembled program. It may be nil when Prog is
	// given (a pre-translated program, e.g. from the farm's
	// content-addressed translation cache).
	ELF *elf32.File
	// Prog is an optional pre-translated program; when nil and UseISS is
	// false, ELF is translated under Options.
	Prog *core.Program
	// UseISS runs this core on the cycle-accurate reference ISS instead
	// of the translated platform (per-core differential testing).
	UseISS bool
	// Options are the translation options of a translated core.
	Options core.Options
	// Desc is the ISS timing description; nil falls back to Options.Desc,
	// then march.Default.
	Desc *march.Desc
}

// Config configures a System.
type Config struct {
	Cores []CoreConfig
	// Quantum is the scheduling quantum in source cycles (min 1; 1 =
	// cycle lockstep, the accuracy oracle).
	Quantum int64
	// Arbitration is the bus-arbitration policy.
	Arbitration Arbitration
	// BusBusyCycles is the shared-bus occupancy of one transaction
	// (default 1).
	BusBusyCycles int64
	// SharedWords sizes the shared memory window (default 1024 words).
	SharedWords int
	// CounterRegs sizes the atomic counter bank (default 16).
	CounterRegs int
	// MaxCycles aborts a run whose global target clock exceeds it — the
	// deadlock guard for workloads whose peers never signal (default
	// 50e6 cycles).
	MaxCycles int64
	// ExtraDevices attaches additional peripherals to the shared bus.
	ExtraDevices []socbus.Device
	// Engine selects the C6x host-execution engine of every translated
	// core (the zero value is platform.EngineCompiled; ISS cores are
	// unaffected).
	Engine platform.Engine
	// Parallel runs the cores of each quantum speculatively on their own
	// goroutines with deterministic commit (see parallel.go). Results
	// are bit-identical to the sequential scheduler at any GOMAXPROCS.
	Parallel bool
}

// CoreKind names how a core executes.
const (
	KindTranslated = "translated"
	KindISS        = "iss"
)

// Validate checks the configuration, rejecting misconfiguration with a
// direct error instead of the confusing downstream failure it would
// otherwise become. Zero values of the sized fields (bus occupancy,
// shared words, counter regs, cycle limit) still mean "default"; the
// quantum does not — a quantum below 1 cycle is meaningless.
func (cfg *Config) Validate() error {
	if len(cfg.Cores) < 1 {
		return fmt.Errorf("soc: no cores configured")
	}
	if cfg.Quantum < 1 {
		return fmt.Errorf("soc: quantum %d invalid (minimum 1 source cycle; 1 = lockstep)", cfg.Quantum)
	}
	switch cfg.Arbitration {
	case RoundRobin, FixedPriority:
	default:
		return fmt.Errorf("soc: unknown arbitration policy %d", int(cfg.Arbitration))
	}
	switch cfg.Engine {
	case platform.EngineCompiled, platform.EngineCompiledNoFuse, platform.EngineInterp:
	default:
		return fmt.Errorf("soc: unknown execution engine %d", int(cfg.Engine))
	}
	if cfg.BusBusyCycles < 0 {
		return fmt.Errorf("soc: negative bus occupancy %d", cfg.BusBusyCycles)
	}
	if cfg.SharedWords < 0 || cfg.CounterRegs < 0 {
		return fmt.Errorf("soc: negative device size (shared %d, counters %d)", cfg.SharedWords, cfg.CounterRegs)
	}
	if cfg.MaxCycles < 0 {
		return fmt.Errorf("soc: negative cycle limit %d", cfg.MaxCycles)
	}
	for i, cc := range cfg.Cores {
		if cc.ELF == nil && (cc.UseISS || cc.Prog == nil) {
			name := cc.Name
			if name == "" {
				name = fmt.Sprintf("core%d", i)
			}
			if cc.UseISS {
				return fmt.Errorf("soc: %s: ISS core needs an ELF", name)
			}
			return fmt.Errorf("soc: %s: translated core needs an ELF or a Program", name)
		}
	}
	if cfg.Parallel {
		for _, d := range cfg.ExtraDevices {
			if _, ok := d.(socbus.ShadowDevice); !ok {
				base, _ := d.Range()
				return fmt.Errorf("soc: parallel execution needs shadowable devices; %T at %#x is not a socbus.ShadowDevice", d, base)
			}
		}
	}
	return nil
}

// coreState is one instantiated core.
type coreState struct {
	name string
	kind string
	port *busPort

	// irqSrc is the interrupt controller the core's IRQ line samples —
	// normally the live controller, retargeted at a lane's shadow
	// controller while the core runs speculatively.
	irqSrc *socbus.IRQController

	// Exactly one of the two is non-nil.
	iss  *iss.Sim
	plat *platform.System
}

// checkpoint saves the core's complete execution state through its
// engine's hook.
func (c *coreState) checkpoint() {
	if c.iss != nil {
		c.iss.Checkpoint()
		return
	}
	c.plat.Checkpoint()
}

// commitCheckpoint discards the outstanding checkpoint.
func (c *coreState) commitCheckpoint() {
	if c.iss != nil {
		c.iss.CommitCheckpoint()
		return
	}
	c.plat.CommitCheckpoint()
}

// rollback restores the state saved by checkpoint, including the bus
// port's undrained wait-states (accumulated speculatively, never handed
// to the timing model the checkpoint restored).
func (c *coreState) rollback() {
	if c.iss != nil {
		c.iss.Rollback()
	} else {
		c.plat.Rollback()
	}
	c.port.pending = 0
}

// System is an assembled multi-core SoC.
type System struct {
	cfg Config

	// Bus is the shared SoC bus; Shared, Mail, Counters and IRQ are the
	// standard inter-core devices attached to it.
	Bus      *socbus.Bus
	Shared   *socbus.SharedRAM
	Mail     *socbus.Mailbox
	Counters *socbus.CounterBank
	// IRQ is the interrupt controller: every mailbox post raises the
	// receiving core's doorbell line, RAISE writes are cross-core IPIs,
	// and the per-core timer line is clocked at quantum boundaries. Each
	// core's interrupt input is wired to its controller output.
	IRQ *socbus.IRQController
	// Arb is the bus arbiter.
	Arb *Arbiter

	cores  []*coreState
	order  []int
	quanta int64

	// par is the lazily-built parallel-scheduler runtime (nil until the
	// first parallel Run).
	par *parRuntime

	// trc is the per-run trace state (nil unless the global tracer was
	// recording when Run started; see trace.go).
	trc *socTrace
}

// New assembles a SoC from the configuration: builds the shared bus and
// devices, instantiates every core (translating where needed), and wires
// each core's bus port through the arbiter.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.BusBusyCycles <= 0 {
		cfg.BusBusyCycles = 1
	}
	if cfg.SharedWords <= 0 {
		cfg.SharedWords = 1024
	}
	if cfg.CounterRegs <= 0 {
		cfg.CounterRegs = 16
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 50_000_000
	}

	s := &System{
		cfg:      cfg,
		Shared:   socbus.NewSharedRAM(cfg.SharedWords),
		Mail:     socbus.NewMailbox(len(cfg.Cores)),
		Counters: socbus.NewCounterBank(cfg.CounterRegs),
		IRQ:      socbus.NewIRQController(len(cfg.Cores)),
		Arb:      newArbiter(len(cfg.Cores), cfg.BusBusyCycles),
		order:    make([]int, len(cfg.Cores)),
	}
	// Every mailbox post rings the receiving core's doorbell line. Cores
	// that never enable the line (the polling workloads) just accumulate
	// pending bits — delivery additionally requires the program to
	// enable interrupts and carry a `__irq` handler.
	s.Mail.OnPost = func(slot int) { s.IRQ.Raise(slot, socbus.LineDoorbell) }
	devs := []socbus.Device{s.Shared, s.Mail, s.Counters, s.IRQ, socbus.NewTimer()}
	devs = append(devs, cfg.ExtraDevices...)
	s.Bus = socbus.NewBus(devs...)

	for i, cc := range cfg.Cores {
		name := cc.Name
		if name == "" {
			name = fmt.Sprintf("core%d", i)
		}
		cs := &coreState{name: name, irqSrc: s.IRQ, port: &busPort{core: i, arb: s.Arb, bus: s.Bus}}
		if cc.UseISS {
			if cc.ELF == nil {
				return nil, fmt.Errorf("soc: %s: ISS core needs an ELF", name)
			}
			desc := cc.Desc
			if desc == nil {
				desc = cc.Options.Desc
			}
			sim, err := iss.New(cc.ELF, iss.Config{Desc: desc, CycleAccurate: true})
			if err != nil {
				return nil, fmt.Errorf("soc: %s: %w", name, err)
			}
			sim.AttachBus(cs.port)
			core := i
			sim.IRQLine = func() bool { return cs.irqSrc.Line(core) }
			cs.kind = KindISS
			cs.iss = sim
		} else {
			prog := cc.Prog
			if prog == nil {
				if cc.ELF == nil {
					return nil, fmt.Errorf("soc: %s: translated core needs an ELF or a Program", name)
				}
				p, err := core.Translate(cc.ELF, cc.Options)
				if err != nil {
					return nil, fmt.Errorf("soc: %s: %w", name, err)
				}
				prog = p
			}
			sys := platform.NewWithEngine(prog, cfg.Engine)
			sys.AttachBus(cs.port)
			core := i
			sys.IRQLine = func() bool { return cs.irqSrc.Line(core) }
			cs.kind = KindTranslated
			cs.plat = sys
		}
		s.cores = append(s.cores, cs)
	}
	return s, nil
}

// Cores returns the number of cores.
func (s *System) Cores() int { return len(s.cores) }

// Quanta returns the number of scheduling quanta executed so far.
func (s *System) Quanta() int64 { return s.quanta }

// now returns the core's position on the shared source-cycle clock.
func (c *coreState) now() int64 {
	if c.iss != nil {
		return c.iss.Cycles()
	}
	return c.plat.Now()
}

func (c *coreState) haltedCore() bool {
	if c.iss != nil {
		return c.iss.Arch.Halted
	}
	return c.plat.CPU.Halted()
}

// waitingCore reports whether the core is idling in wfi.
func (c *coreState) waitingCore() bool {
	if c.iss != nil {
		return c.iss.WaitingForIRQ()
	}
	return c.plat.WaitingForIRQ()
}

// irqsTaken returns the core's delivered-interrupt count.
func (c *coreState) irqsTaken() int64 {
	if c.iss != nil {
		return c.iss.Stats().IRQsTaken
	}
	return c.plat.Stats().IRQsTaken
}

// runUntil advances the core until its clock reaches limit or it halts,
// draining bus wait-states into its timing model as it goes. A core
// waiting in wfi whose line is idle advances its clock to exactly limit:
// the strictly sequential scheduler guarantees no other core can raise
// the line before the next quantum boundary, so the idle is exact — and
// identical for ISS and translated cores, which is what keeps wfi wake
// cycles bit-identical across the engines.
func (c *coreState) runUntil(limit int64) error {
	if c.iss != nil {
		for !c.iss.Arch.Halted && c.iss.Cycles() < limit {
			if c.iss.WaitingForIRQ() && !c.iss.IRQLineAsserted() {
				c.iss.IdleTo(limit)
				return nil
			}
			if err := c.iss.Step(); err != nil {
				return err
			}
			if w := c.port.TakeWait(); w > 0 {
				c.iss.Stall(w)
			}
		}
		return nil
	}
	return c.plat.RunUntil(limit)
}

// output returns the core's debug-port writes.
func (c *coreState) output() []uint32 {
	if c.iss != nil {
		return c.iss.Output()
	}
	return c.plat.Output
}

// scheduleOrder fills s.order with the core service order of quantum q.
func (s *System) scheduleOrder(q int64) []int {
	n := len(s.order)
	start := 0
	if s.cfg.Arbitration == RoundRobin {
		start = int(q % int64(n))
	}
	for i := 0; i < n; i++ {
		s.order[i] = (start + i) % n
	}
	return s.order
}

// pruneSlack pads the arbiter's window-prune bound below the previous
// quantum's start: a translated core's bus clock can sit one cycle
// behind its region boundary (platform busNow is Sync.Total-1+corr), so
// requests from the current quantum can be timestamped slightly before
// its start. The slack keeps pruning strictly below any future request
// time, which is what makes it grant-preserving.
const pruneSlack = int64(4)

// Run executes the SoC until every core has halted, on the sequential
// scheduler — or, when Config.Parallel is set and there is more than
// one core, on the speculative parallel scheduler, which is
// bit-identical by construction (see parallel.go).
func (s *System) Run() error {
	if s.cfg.Parallel && len(s.cores) > 1 {
		return s.runParallel()
	}
	return s.runSequential()
}

// runSequential is the strictly sequential scheduler (see the package
// comment on determinism): each quantum it services the cores one after
// another in arbitration order, advancing each to the quantum's target
// cycle.
func (s *System) runSequential() error {
	s.traceInit()
	target := int64(0)
	for q := int64(0); ; q++ {
		running, allWaiting := false, true
		for _, c := range s.cores {
			if !c.haltedCore() {
				running = true
				if !c.waitingCore() {
					allWaiting = false
				}
			}
		}
		if !running {
			return nil
		}
		if allWaiting && !s.irqPossible() {
			return fmt.Errorf("soc: deadlock: every running core waits in wfi with no line asserted and no timer armed")
		}
		if target >= s.cfg.MaxCycles {
			return fmt.Errorf("soc: cycle limit (%d) exceeded with cores still running (deadlock?)", s.cfg.MaxCycles)
		}
		s.Arb.prune(target - s.cfg.Quantum - pruneSlack)
		// Clock the interrupt controller with the quantum's start time:
		// timer lines raise here, between quanta, so every core observes
		// the raise at the same boundary regardless of engine.
		s.IRQ.Tick(target)
		target += s.cfg.Quantum
		s.quanta++
		for _, ci := range s.scheduleOrder(q) {
			c := s.cores[ci]
			if c.haltedCore() {
				continue
			}
			if err := c.runUntil(target); err != nil {
				return fmt.Errorf("soc: %s: %w", c.name, err)
			}
		}
		if s.trc != nil {
			s.traceQuantum(q, target-s.cfg.Quantum, target)
		}
	}
}

// irqPossible reports whether any interrupt can still arrive while every
// running core waits: a line already asserted, or a timer armed. Without
// either, an all-waiting SoC is a deadlock — failing fast beats spinning
// quanta to the cycle limit.
func (s *System) irqPossible() bool {
	for i := range s.cores {
		if s.IRQ.Line(i) {
			return true
		}
	}
	return s.IRQ.AnyTimerArmed()
}

// Output returns the debug-port output of core i.
func (s *System) Output(i int) []uint32 { return s.cores[i].output() }

// CoreRegs returns the final TC32 register files of core i (data and
// address registers) — directly from iss.Arch on an ISS core, from the
// C6x register mapping (d→A0..15, a→B0..15) on a translated core. The
// differential tests compare them bit-exactly; a11 is excluded there
// because translated code keeps packet-index return links in it.
func (s *System) CoreRegs(i int) (d, a [16]uint32) {
	c := s.cores[i]
	if c.iss != nil {
		return [16]uint32(c.iss.Arch.R[:16]), [16]uint32(c.iss.Arch.R[16:])
	}
	for r := 0; r < 16; r++ {
		d[r] = c.plat.CPU.Regs[c6x.A(r)]
		a[r] = c.plat.CPU.Regs[c6x.B(r)]
	}
	return d, a
}

// EngineStats returns core i's engine-transition counters: how its
// packets split between fused and generic execution (zero for an ISS
// core). Kept out of Results, which is identical across engines.
func (s *System) EngineStats(i int) c6x.EngineStats {
	if c := s.cores[i]; c.plat != nil {
		return c.plat.CPU.EngineStats()
	}
	return c6x.EngineStats{}
}

// CoreResult is the measurement of one core after a run.
type CoreResult struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "translated" or "iss"

	// Instructions is the number of source instructions executed (ISS:
	// retired; translated: attributed to executed cycle regions — 0 at
	// Level0, which generates no cycles to attribute against).
	Instructions int64 `json:"instructions"`
	// Cycles is the core's final position on the emulated source-cycle
	// clock.
	Cycles int64 `json:"cycles"`
	// CPI is Cycles per source instruction (the board-CPI analog; 0 when
	// Instructions is 0).
	CPI float64 `json:"cpi"`
	// C6xCycles is the host-platform cycle count of a translated core (0
	// for ISS cores).
	C6xCycles int64 `json:"c6x_cycles,omitempty"`

	// BusGrants and BusWaitCycles are the core's shared-bus traffic and
	// the contention wait-states charged to it.
	BusGrants     int64 `json:"bus_grants"`
	BusWaitCycles int64 `json:"bus_wait_cycles"`

	// IRQsTaken counts delivered interrupts; IdleCycles is emulated time
	// spent waiting in wfi.
	IRQsTaken  int64 `json:"irqs_taken,omitempty"`
	IdleCycles int64 `json:"idle_cycles,omitempty"`

	Output []uint32 `json:"output"`
}

// Stats summarizes a run.
type Stats struct {
	Quanta  int64 `json:"quanta"`
	Quantum int64 `json:"quantum"`

	Cores []CoreResult `json:"cores"`

	// TotalInstructions and TotalCycles aggregate over all cores (the
	// simulated work of the run); MakespanCycles is the slowest core's
	// clock.
	TotalInstructions int64 `json:"total_instructions"`
	TotalCycles       int64 `json:"total_cycles"`
	MakespanCycles    int64 `json:"makespan_cycles"`

	BusTransactions int64 `json:"bus_transactions"`
	BusWaitCycles   int64 `json:"bus_wait_cycles"`
}

// Results measures every core.
func (s *System) Results() Stats {
	st := Stats{Quanta: s.quanta, Quantum: s.cfg.Quantum}
	for i, c := range s.cores {
		r := CoreResult{
			Name:          c.name,
			Kind:          c.kind,
			Cycles:        c.now(),
			BusGrants:     s.Arb.Grants(i),
			BusWaitCycles: s.Arb.Waits(i),
			Output:        append([]uint32(nil), c.output()...),
		}
		if c.iss != nil {
			is := c.iss.Stats()
			r.Instructions = is.Retired
			r.IRQsTaken = is.IRQsTaken
			r.IdleCycles = c.iss.IdleCycles()
		} else {
			ps := c.plat.Stats()
			r.Instructions = ps.SrcInstructions
			r.C6xCycles = ps.C6xCycles
			r.IRQsTaken = ps.IRQsTaken
			r.IdleCycles = ps.IdleCycles
		}
		if r.Instructions > 0 {
			r.CPI = float64(r.Cycles) / float64(r.Instructions)
		}
		st.Cores = append(st.Cores, r)
		st.TotalInstructions += r.Instructions
		st.TotalCycles += r.Cycles
		if r.Cycles > st.MakespanCycles {
			st.MakespanCycles = r.Cycles
		}
		st.BusTransactions += r.BusGrants
		st.BusWaitCycles += r.BusWaitCycles
	}
	return st
}
