package platform

// This file is the speculative-execution hook of the translated
// platform: the multi-core scheduler (internal/soc) checkpoints a core
// at a quantum boundary, lets it run speculatively, and either commits
// or rolls back. The CPU state is saved through c6x.Sim's own hook; the
// platform-side small state (sync device, interrupt flags, attribution
// counters) is saved by value; the source memory (RAM, debug output)
// reverts through its own undo journal, and the cache table through the
// platform's.

type checkpoint struct {
	sync         SyncDev
	srcInsts     int64
	irqIE        bool
	irqInHandler bool
	irqWaiting   bool
	irqShadowSrc uint32
	irqTaken     int64
	irqIdled     int64
	l0Idle       int64
	delivLen     int
	valid        bool
}

// ctabUndo is one journaled cache-table store: the old bytes at off.
type ctabUndo struct {
	size int32
	off  uint32
	old  uint32
}

// Checkpoint saves the platform's complete execution state (CPU
// included) and starts journaling memory stores. Only one checkpoint is
// outstanding at a time; a new one replaces the last.
func (sys *System) Checkpoint() {
	sys.CPU.Checkpoint()
	ck := &sys.ck
	ck.sync = *sys.Sync
	ck.srcInsts = sys.srcInsts
	ck.irqIE = sys.irqIE
	ck.irqInHandler = sys.irqInHandler
	ck.irqWaiting = sys.irqWaiting
	ck.irqShadowSrc = sys.irqShadowSrc
	ck.irqTaken = sys.irqTaken
	ck.irqIdled = sys.irqIdled
	ck.l0Idle = sys.l0Idle
	ck.delivLen = len(sys.deliveries)
	ck.valid = true
	sys.Memory.BeginJournal()
	sys.ctabUndo = sys.ctabUndo[:0]
}

// CommitCheckpoint discards the outstanding checkpoint (the speculative
// execution is kept).
func (sys *System) CommitCheckpoint() {
	if !sys.ck.valid {
		return
	}
	sys.CPU.CommitCheckpoint()
	sys.Memory.DropJournal()
	sys.ctabUndo = sys.ctabUndo[:0]
	sys.ck.valid = false
}

// Rollback restores the state saved by the last Checkpoint, exactly:
// CPU state, sync device, interrupt and attribution state, RAM and
// cache-table contents, and debug output.
func (sys *System) Rollback() {
	if !sys.ck.valid {
		return
	}
	sys.CPU.Rollback()
	sys.Memory.RevertJournal()
	for i := len(sys.ctabUndo) - 1; i >= 0; i-- {
		u := &sys.ctabUndo[i]
		wr(sys.ctab, u.off, u.old, int(u.size))
	}
	sys.ctabUndo = sys.ctabUndo[:0]
	ck := &sys.ck
	*sys.Sync = ck.sync
	sys.srcInsts = ck.srcInsts
	sys.irqIE = ck.irqIE
	sys.irqInHandler = ck.irqInHandler
	sys.irqWaiting = ck.irqWaiting
	sys.irqShadowSrc = ck.irqShadowSrc
	sys.irqTaken = ck.irqTaken
	sys.irqIdled = ck.irqIdled
	sys.l0Idle = ck.l0Idle
	sys.deliveries = sys.deliveries[:ck.delivLen]
	ck.valid = false
}

// setTab stores size bytes at off in the cache table, journaled while a
// checkpoint is outstanding.
func (sys *System) setTab(off, val uint32, size int) {
	if sys.ck.valid {
		sys.ctabUndo = append(sys.ctabUndo, ctabUndo{size: int32(size), off: off, old: rd(sys.ctab, off, size)})
	}
	wr(sys.ctab, off, val, size)
}
