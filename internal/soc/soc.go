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

// name labels core i in errors and results.
func (cc *CoreConfig) name(i int) string {
	if cc.Name == "" {
		return fmt.Sprintf("core%d", i)
	}
	return cc.Name
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
			if cc.UseISS {
				return fmt.Errorf("soc: %s: ISS core needs an ELF", cc.name(i))
			}
			return fmt.Errorf("soc: %s: translated core needs an ELF or a Program", cc.name(i))
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

// coreModel is a TC32 core: *iss.Sim and *platform.System both satisfy
// it directly. RunUntil advances the core's source-cycle clock (Now) to
// a quantum target, charging the bus port's wait-states
// (iss.WaitReporter) as it goes; Checkpoint, CommitCheckpoint and
// Rollback are the parallel scheduler's speculation hooks.
type coreModel interface {
	RunUntil(limit int64) error
	Now() int64
	Halted() bool
	WaitingForIRQ() bool
	DebugOutput() []uint32
	State() iss.ArchState
	Counts() iss.Counts
	Checkpoint()
	CommitCheckpoint()
	Rollback()
}

// coreState is one instantiated core.
type coreState struct {
	coreModel
	name string
	kind string
	port *busPort

	// irqSrc is the interrupt controller the core's IRQ line samples —
	// normally the live controller, retargeted at a lane's shadow
	// controller while the core runs speculatively.
	irqSrc *socbus.IRQController
}

// host returns a translated core's C6x simulator, the source of the
// C6x-only figures, and nil on an ISS core.
func (c *coreState) host() *c6x.Sim {
	if plat, ok := c.coreModel.(*platform.System); ok {
		return plat.CPU
	}
	return nil
}

// rollback restores the state saved by Checkpoint, including the bus
// port's undrained wait-states (accumulated speculatively, never handed
// to the timing model the checkpoint restored).
func (c *coreState) rollback() {
	c.Rollback()
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
		name := cc.name(i)
		cs := &coreState{name: name, irqSrc: s.IRQ, port: &busPort{core: i, arb: s.Arb, bus: s.Bus}}
		line := func() bool { return cs.irqSrc.Line(i) }
		if cc.UseISS {
			desc := cc.Desc
			if desc == nil {
				desc = cc.Options.Desc
			}
			sim, err := iss.New(cc.ELF, iss.Config{Desc: desc, CycleAccurate: true})
			if err != nil {
				return nil, fmt.Errorf("soc: %s: %w", name, err)
			}
			sim.AttachBus(cs.port)
			sim.IRQLine = line
			cs.coreModel, cs.kind = sim, KindISS
		} else {
			prog := cc.Prog
			if prog == nil {
				p, err := core.Translate(cc.ELF, cc.Options)
				if err != nil {
					return nil, fmt.Errorf("soc: %s: %w", name, err)
				}
				prog = p
			}
			sys := platform.NewWithEngine(prog, cfg.Engine)
			sys.AttachBus(cs.port)
			sys.IRQLine = line
			cs.coreModel, cs.kind = sys, KindTranslated
		}
		s.cores = append(s.cores, cs)
	}
	return s, nil
}

// Cores returns the number of cores.
func (s *System) Cores() int { return len(s.cores) }

// Quanta returns the number of scheduling quanta executed so far.
func (s *System) Quanta() int64 { return s.quanta }

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
	for q, target := int64(0), int64(0); ; q++ {
		if done, err := s.beginQuantum(target); done || err != nil {
			return err
		}
		target += s.cfg.Quantum
		for _, ci := range s.scheduleOrder(q) {
			c := s.cores[ci]
			if c.Halted() {
				continue
			}
			if err := c.RunUntil(target); err != nil {
				return fmt.Errorf("soc: %s: %w", c.name, err)
			}
		}
		if s.trc != nil {
			s.traceQuantum(q, target-s.cfg.Quantum, target)
		}
	}
}

// beginQuantum is the step between quanta of both schedulers, before the
// quantum that starts at target: it reports done once every core has
// halted, fails fast on deadlock and on the cycle limit, prunes the
// arbiter's window and clocks the interrupt controller.
func (s *System) beginQuantum(target int64) (done bool, err error) {
	running, allWaiting := false, true
	for _, c := range s.cores {
		if !c.Halted() {
			running = true
			if !c.WaitingForIRQ() {
				allWaiting = false
			}
		}
	}
	if !running {
		return true, nil
	}
	if allWaiting && !s.irqPossible() {
		return false, fmt.Errorf("soc: deadlock: every running core waits in wfi with no line asserted and no timer armed")
	}
	if target >= s.cfg.MaxCycles {
		return false, fmt.Errorf("soc: cycle limit (%d) exceeded with cores still running (deadlock?)", s.cfg.MaxCycles)
	}
	s.Arb.prune(target - s.cfg.Quantum - pruneSlack)
	// Clock the interrupt controller with the quantum's start time:
	// timer lines raise here, between quanta, so every core observes
	// the raise at the same boundary regardless of engine.
	s.IRQ.Tick(target)
	s.quanta++
	return false, nil
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
func (s *System) Output(i int) []uint32 { return s.cores[i].DebugOutput() }

// EngineStats returns core i's engine-transition counters: how its
// packets split between fused and generic execution (zero for an ISS
// core). Kept out of Results, which is identical across engines.
func (s *System) EngineStats(i int) c6x.EngineStats {
	if h := s.cores[i].host(); h != nil {
		return h.EngineStats()
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
		n := c.Counts()
		r := CoreResult{
			Name:          c.name,
			Kind:          c.kind,
			Instructions:  n.Instructions,
			Cycles:        c.Now(),
			BusGrants:     s.Arb.Grants(i),
			BusWaitCycles: s.Arb.Waits(i),
			IRQsTaken:     n.IRQsTaken,
			IdleCycles:    n.IdleCycles,
			Output:        append([]uint32(nil), c.DebugOutput()...),
		}
		if h := c.host(); h != nil {
			r.C6xCycles = h.Cycle()
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
