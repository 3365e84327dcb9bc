package soc

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/socbus"
)

// The commit machinery's contract is schedule equivalence: for ANY set
// of lane transaction scripts, speculating every lane against a
// quantum-boundary shadow and then committing in lane order (replaying
// clean lanes, re-running conflicting ones) must leave the world —
// devices, arbiter accounting, bus log — exactly where running the
// lanes sequentially would have. The property test below checks that on
// randomized scripts; the fuzz target feeds it arbitrary byte strings.

// scriptOp is one scripted bus access of a lane.
type scriptOp struct {
	write bool
	addr  uint32
	val   uint32
	dt    int64 // request-cycle delta from the previous op
}

// scriptWorld is a miniature SoC world: the standard inter-core devices
// on a bus plus a 3-core arbiter.
type scriptWorld struct {
	bus    *socbus.Bus
	log    []socbus.Transaction // recorded through bus.Trace
	arb    *Arbiter
	shared *socbus.SharedRAM
	mail   *socbus.Mailbox
	count  *socbus.CounterBank
	irq    *socbus.IRQController
}

func newScriptWorld() *scriptWorld {
	w := &scriptWorld{
		shared: socbus.NewSharedRAM(8),
		mail:   socbus.NewMailbox(3),
		count:  socbus.NewCounterBank(4),
		irq:    socbus.NewIRQController(3),
		arb:    newArbiter(3, 2),
	}
	w.mail.OnPost = func(slot int) { w.irq.Raise(slot, socbus.LineDoorbell) }
	w.bus = socbus.NewBus(w.shared, w.mail, w.count, w.irq, socbus.NewTimer())
	w.bus.Trace = func(tx socbus.Transaction) { w.log = append(w.log, tx) }
	return w
}

// runOps plays a lane's script through a bus port starting at base.
func runOps(port *busPort, ops []scriptOp, base int64) {
	t := base
	for _, op := range ops {
		t += op.dt
		if op.write {
			port.BusWrite32(op.addr, op.val, t)
		} else {
			port.BusRead32(op.addr, t)
		}
	}
}

// worldState is everything observable about a script world.
type worldState struct {
	log            []socbus.Transaction
	grants, waits  []int64
	shared         []uint32
	counters       []uint32
	mailFull       []bool
	posts, pops    int64
	overruns       int64
	irq            []socbus.IRQCoreState
	raises, claims int64
	acks, spurious int64
	unmapped       int
}

func (w *scriptWorld) state() worldState {
	st := worldState{
		log:   append([]socbus.Transaction(nil), w.log...),
		posts: w.mail.Posts, pops: w.mail.Pops, overruns: w.mail.Overruns,
		raises: w.irq.Raises, claims: w.irq.Claims, acks: w.irq.Acks, spurious: w.irq.Spurious,
		unmapped: w.bus.Unmapped,
	}
	for c := 0; c < 3; c++ {
		st.grants = append(st.grants, w.arb.Grants(c))
		st.waits = append(st.waits, w.arb.Waits(c))
		st.mailFull = append(st.mailFull, w.mail.Full(c))
		st.irq = append(st.irq, w.irq.CoreState(c))
	}
	for i := 0; i < 8; i++ {
		st.shared = append(st.shared, w.shared.Word(i))
	}
	for i := 0; i < 4; i++ {
		st.counters = append(st.counters, w.count.Value(i))
	}
	return st
}

const scriptBase = int64(100)

// sequentialRun is the oracle: lanes applied one after another in lane
// order on the live world.
func sequentialRun(lanes [][]scriptOp) worldState {
	w := newScriptWorld()
	for li, ops := range lanes {
		runOps(&busPort{core: li, arb: w.arb, bus: w.bus}, ops, scriptBase)
	}
	return w.state()
}

// speculativeRun mirrors parallelQuantum on the scripted lanes: lane 0
// is the lead (live world, recording); every later lane speculates on a
// shadow synced at the quantum boundary, then commits through the
// commitState rules or re-runs on conflict.
func speculativeRun(t testing.TB, lanes [][]scriptOp) worldState {
	w := newScriptWorld()
	cs := newCommitState(w.bus, w.arb)
	mailBase, mailSize := w.mail.Range()
	cs.extraMutation = func(addr uint32) (uint64, bool) {
		if addr < mailBase || addr-mailBase >= mailSize || (addr-mailBase)%socbus.SlotStride != 0 {
			return 0, false
		}
		g, _ := w.bus.AccessMeta(w.irq.Base + (addr-mailBase)/socbus.SlotStride*socbus.IRQStride)
		return g, true
	}

	// Quantum boundary: build every speculative lane's shadow world.
	n := len(lanes)
	shadowBus := make([]*socbus.Bus, n)
	shadowArb := make([]*Arbiter, n)
	txns := make([][]busTxn, n)
	snaps := make([]socbus.IRQCoreState, n)
	for li := 1; li < n; li++ {
		sb, err := w.bus.NewShadow()
		if err != nil {
			t.Fatalf("NewShadow: %v", err)
		}
		w.bus.SyncShadow(sb)
		irq := sb.DeviceAt(w.irq.Base).(*socbus.IRQController)
		sb.DeviceAt(w.mail.Base).(*socbus.Mailbox).OnPost = func(slot int) { irq.Raise(slot, socbus.LineDoorbell) }
		shadowBus[li], shadowArb[li] = sb, w.arb.clone()
		snaps[li] = w.irq.CoreState(li)
	}

	// Speculate (sequentially here — determinism makes real concurrency
	// irrelevant to the commit rules under test).
	for li := 1; li < n; li++ {
		runOps(&busPort{core: li, arb: shadowArb[li], bus: shadowBus[li], rec: &txns[li]}, lanes[li], scriptBase)
	}

	// Lead lane on the live world, recording to seed the mutation set.
	var leadTxns []busTxn
	runOps(&busPort{core: 0, arb: w.arb, bus: w.bus, rec: &leadTxns}, lanes[0], scriptBase)
	cs.reset()
	cs.noteMutations(leadTxns)

	// Commit in lane order.
	for li := 1; li < n; li++ {
		clean := w.irq.CoreState(li) == snaps[li] &&
			!cs.conflicts(txns[li]) &&
			cs.grantsMatch(txns[li])
		if clean {
			if err := cs.replay(li, txns[li]); err != nil {
				t.Fatalf("lane %d: %v", li, err)
			}
			cs.noteMutations(txns[li])
			continue
		}
		var rerun []busTxn
		runOps(&busPort{core: li, arb: w.arb, bus: w.bus, rec: &rerun}, lanes[li], scriptBase)
		cs.noteMutations(rerun)
	}
	return w.state()
}

// scriptAddr maps a selector byte onto the interesting address space:
// shared words, mailbox DATA/STATUS, counters, every IRQ register, the
// timer, and an unmapped hole.
func scriptAddr(b byte) uint32 {
	sub := uint32(b >> 3)
	switch b % 7 {
	case 0:
		return socbus.SharedRAMBase + sub%8*4
	case 1:
		return socbus.MailboxBase + sub%3*socbus.SlotStride + sub%2*4 // DATA or STATUS
	case 2:
		return socbus.CounterBase + sub%4*4
	case 3:
		regs := []uint32{socbus.IRQRegPending, socbus.IRQRegEnable, socbus.IRQRegAck, socbus.IRQRegRaise, socbus.IRQRegClaim}
		return socbus.IRQCtrlBase + sub%3*socbus.IRQStride + regs[sub%5]
	case 4:
		return socbus.TimerBase + sub%2*4 // COUNT or CTRL
	case 5:
		return 0xDEAD_0000 + sub*4
	}
	return socbus.SharedRAMBase + sub%8*4
}

// decodeScript turns a byte string into 3 lane scripts (4 bytes per
// op, dealt round-robin to the lanes).
func decodeScript(data []byte) [][]scriptOp {
	lanes := make([][]scriptOp, 3)
	li := 0
	for i := 0; i+4 <= len(data); i += 4 {
		lanes[li] = append(lanes[li], scriptOp{
			write: data[i]&1 == 1,
			addr:  scriptAddr(data[i+1]),
			val:   uint32(data[i+2]) & 0xF, // small masks keep IRQ lines meaningful
			dt:    int64(data[i+3] % 8),
		})
		li = (li + 1) % 3
	}
	return lanes
}

// checkScript runs one script both ways and returns a diff error.
func checkScript(t testing.TB, data []byte) error {
	lanes := decodeScript(data)
	seq := sequentialRun(lanes)
	spec := speculativeRun(t, lanes)
	if !reflect.DeepEqual(seq, spec) {
		return fmt.Errorf("speculative commit diverged from sequential:\nlanes: %v\nseq:  %+v\nspec: %+v", lanes, seq, spec)
	}
	return nil
}

// TestCommitReplayProperty is the quick.Check property: speculation +
// commit converges to the sequential schedule on random scripts.
func TestCommitReplayProperty(t *testing.T) {
	prop := func(data []byte) bool {
		if err := checkScript(t, data); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if testing.Short() {
		cfg.MaxCount = 50
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestCommitReplayDirected pins hand-written conflict shapes the random
// generator may under-sample.
func TestCommitReplayDirected(t *testing.T) {
	sh := func(i uint32) uint32 { return socbus.SharedRAMBase + i*4 }
	cases := map[string][][]scriptOp{
		"war-on-shared": { // lead writes what lane 1 read: conflict, re-run
			{{write: true, addr: sh(0), val: 7}},
			{{addr: sh(0)}},
			{},
		},
		"raw-free": { // lane 1 writes what lead only read: anti-dep, clean
			{{addr: sh(1)}},
			{{write: true, addr: sh(1), val: 9}},
			{},
		},
		"mailbox-doorbell": { // lead posts to lane 1's slot: IRQ snapshot conflict
			{{write: true, addr: socbus.MailboxBase + 1*socbus.SlotStride, val: 5}},
			{{addr: socbus.IRQCtrlBase + 1*socbus.IRQStride + IRQClaimOff}},
			{{addr: sh(2)}},
		},
		"pop-vs-poll": { // lane 1 pops, lane 2 polls same slot: mutating read
			{},
			{{addr: socbus.MailboxBase + 0}},
			{{addr: socbus.MailboxBase + 4}},
		},
		"same-cycle-grants": { // all lanes contend for the same slot time
			{{write: true, addr: sh(3), val: 1}},
			{{write: true, addr: sh(4), val: 2}},
			{{write: true, addr: sh(5), val: 3}},
		},
		"cross-raise": { // lane 2 raises lane 1's soft line
			{},
			{{addr: socbus.IRQCtrlBase + 1*socbus.IRQStride + socbus.IRQRegPending}},
			{{write: true, addr: socbus.IRQCtrlBase + 1*socbus.IRQStride + socbus.IRQRegRaise, val: 4}},
		},
	}
	for name, lanes := range cases {
		t.Run(name, func(t *testing.T) {
			seq := sequentialRun(lanes)
			spec := speculativeRun(t, lanes)
			if !reflect.DeepEqual(seq, spec) {
				t.Errorf("diverged:\nseq:  %+v\nspec: %+v", seq, spec)
			}
		})
	}
}

// IRQClaimOff aliases the CLAIM register offset for the directed cases.
const IRQClaimOff = socbus.IRQRegClaim

// FuzzCommitReplay feeds arbitrary byte strings through the script
// decoder: any input on which speculation and sequential execution
// disagree is a commit-machinery bug.
func FuzzCommitReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 7, 2, 0, 0, 3, 1, 1, 8, 9, 0})
	f.Add([]byte{1, 1, 5, 0, 0, 24, 0, 0, 1, 9, 2, 3, 0, 15, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkScript(t, data); err != nil {
			t.Fatal(err)
		}
	})
}
