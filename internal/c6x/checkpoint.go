package c6x

// This file is the speculative-execution hook of the C6x core: the
// platform checkpoints the CPU at a quantum boundary and either commits
// or rolls back (see platform.System.Checkpoint). Checkpoints are taken
// and restored between steps and fused runs, where the state below is
// all there is: Step's scratch is reset by every step, and fused
// execution returns with its slots flushed into pending.

type checkpoint struct {
	regs    [2 * NumRegs]uint32
	pc      int
	cycle   int64
	busy    int64
	halted  bool
	pending []writeback
	brValid bool
	brTgt   int
	brCnt   int
	stats   Stats
	es      EngineStats
	valid   bool
}

// Checkpoint saves the core's complete execution state. Only one
// checkpoint is outstanding at a time; a new one replaces the last.
func (s *Sim) Checkpoint() {
	ck := &s.ck
	ck.regs = s.Regs
	ck.pc = s.pc
	ck.cycle = s.cycle
	ck.busy = s.busy
	ck.halted = s.halted
	ck.pending = append(ck.pending[:0], s.pending...)
	ck.brValid = s.brValid
	ck.brTgt = s.brTgt
	ck.brCnt = s.brCnt
	ck.stats = s.stats
	ck.es = s.es
	ck.valid = true
}

// CommitCheckpoint discards the outstanding checkpoint.
func (s *Sim) CommitCheckpoint() { s.ck.valid = false }

// Rollback restores the state saved by the last Checkpoint, exactly:
// register file, packet PC, clocks, in-flight writebacks, branch state
// and statistics.
func (s *Sim) Rollback() {
	if !s.ck.valid {
		return
	}
	ck := &s.ck
	s.Regs = ck.regs
	s.pc = ck.pc
	s.cycle = ck.cycle
	s.busy = ck.busy
	s.halted = ck.halted
	s.pending = append(s.pending[:0], ck.pending...)
	s.brValid = ck.brValid
	s.brTgt = ck.brTgt
	s.brCnt = ck.brCnt
	s.stats = ck.stats
	s.es = ck.es
	ck.valid = false
}
