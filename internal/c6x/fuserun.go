package c6x

import (
	"fmt"
	"sync"
)

// This file is the fused engine's runtime: entry detection, the segment
// dispatch loop, and the boundary-hook protocol the platform uses to
// keep interrupt delivery, tracing and clock limits bit-identical to
// the generic engines while steady-state loops stay inside fused code.

// FusedHook is the per-boundary callback of StepFused. It runs with the
// architectural state observable exactly as the generic engines present
// it at a region boundary: pc at the boundary packet, cycle/busy/stats
// synchronized, the register file committed, and any pending branch
// restored. In-flight writebacks are held in fused slots; they are
// flushed into the ordinary pending window automatically when the hook
// stops execution, returns an error, or redirects the pc (SetPC), so
// the caller always gets back a state the interpreter can continue
// from. Returning stop=true ends StepFused with that state.
type FusedHook func() (stop bool, err error)

// UseFused attaches a fused program. The Sim keeps executing through
// Step/Run as before; fused execution only engages through
// RunFused/StepFused where FusedEntryOK holds.
func (s *Sim) UseFused(fp *FusedProgram) error {
	if fp == nil || fp.prog != s.prog {
		return fmt.Errorf("c6x: fused program does not match the simulator's program")
	}
	s.fused = fp
	if cap(s.pending) < 32 {
		p := make([]writeback, len(s.pending), 32)
		copy(p, s.pending)
		s.pending = p
	}
	return nil
}

// Fused reports whether a fused program is attached.
func (s *Sim) Fused() bool { return s.fused != nil }

// FusedEntryOK reports whether fused execution can engage at the
// current state. The entry rule: some segment compiled for the current
// packet was compiled for exactly the Sim's dynamic state — the same
// pending branch (target and remaining delay), the same in-flight
// writeback window (registers, landing cycles relative to the latency
// clock, order; a predicated producer's write may be absent) and
// register constants that hold in the register file. The clean state
// (nothing pending) is the special case every region start is seeded
// with, so there is one rule for the program entry and for every way a
// core comes back from the generic engines: a hook stop, a rollback, an
// interrupt redirect, a deopt, a debugger single-step.
//
// Soundness: a segment's code depends on its entry state only through
// those three components. The fuser holds a fact only for a register
// with no write in flight (any write kills it; an MVK/MVKH sets it only
// as the sole writer, landing the same packet), so "the register file
// holds the value" is the whole content of a fact, and a state that
// matches on all three is one the segment's trace is bit-identical to
// the generic engines from. A state nothing was compiled for — say the
// sync-device scratch write still in flight after an interrupt redirect
// — stays on the generic engine until a boundary it does match.
func (s *Sim) FusedEntryOK() bool { return s.fusedEntry() >= 0 }

// fusedEntry returns the segment matching the current state, or -1.
func (s *Sim) fusedEntry() int32 {
	if s.fused == nil || s.halted {
		return -1
	}
	for _, si := range s.fused.candidates(s.pc) {
		if s.fused.segs[si].enter(s, false) {
			return si
		}
	}
	return -1
}

// enter reports whether the Sim's dynamic state is the state seg was
// compiled for (see FusedEntryOK); with load set it also moves the
// pending values into the segment's slots — the inverse of flushEntry.
// Only load a segment that matched.
func (seg *fseg) enter(s *Sim, load bool) bool {
	if s.brValid != seg.entryBr.valid || s.brValid && (s.brTgt != seg.entryBr.tgt || s.brCnt != seg.entryBr.cnt) {
		return false
	}
	for _, fa := range seg.entryFacts {
		if s.Regs[fa.reg] != fa.val {
			return false
		}
	}
	j := 0
	for _, fi := range seg.entryFlush {
		on := j < len(s.pending) && s.pending[j].reg == fi.reg && s.pending[j].commitAt-s.busy == fi.rel
		if !on && !fi.pred {
			return false
		}
		if load {
			s.fslotOn[fi.slot] = on
			if on {
				s.fslotVal[fi.slot] = s.pending[j].val
			}
		}
		if on {
			j++
		}
	}
	return j == len(s.pending)
}

// flushEntry materializes a boundary segment's in-flight window into
// the ordinary pending list (pc and branch state are handled by the
// caller's protocol).
func flushEntry(s *Sim, seg *fseg) {
	for _, fi := range seg.entryFlush {
		if fi.pred && !s.fslotOn[fi.slot] {
			continue
		}
		s.pending = append(s.pending, writeback{reg: fi.reg, val: s.fslotVal[fi.slot], commitAt: s.busy + fi.rel})
	}
}

// StepFused runs fused segments from the current state (FusedEntryOK
// must hold) until the program halts, an op errors, the
// hook stops or redirects execution, or a segment deoptimizes back to
// the generic engines. The hook fires at every region-boundary segment
// except the first: the caller enters StepFused having just performed
// its own boundary actions there. With a nil hook the engine checks
// MaxCycles itself at boundaries, producing the interpreter-flavored
// limit error.
//
// On return the architectural state is always one the generic engines
// can continue from bit-identically; stopped reports that the hook
// ended the run (as opposed to a deopt, redirect or halt).
func (s *Sim) StepFused(hook FusedHook) (stopped bool, err error) {
	fp := s.fused
	si := s.fusedEntry()
	if si < 0 {
		return false, fmt.Errorf("c6x: StepFused at pc %d: not a fused entry", s.pc)
	}
	if len(s.pending) == 0 && !s.brValid {
		s.es.EntriesClean++
	} else {
		s.es.EntriesMatched++
	}
	fp.segs[si].enter(s, true)
	s.pending = s.pending[:0]
	s.brValid = false // under static tracking from here
	s.fusedActive = true
	defer func() { s.fusedActive = false }()
	first := true
	for {
		seg := fp.segs[si]
		if seg.boundary && !first {
			if hook == nil {
				if s.cycle > s.MaxCycles {
					s.pc = seg.pkt
					if seg.entryBr.valid {
						s.brValid, s.brTgt, s.brCnt = true, seg.entryBr.tgt, seg.entryBr.cnt
					}
					flushEntry(s, seg)
					return false, s.errf(seg.pkt, "cycle limit exceeded")
				}
			} else {
				s.pc = seg.pkt
				if seg.entryBr.valid {
					s.brValid, s.brTgt, s.brCnt = true, seg.entryBr.tgt, seg.entryBr.cnt
				}
				stop, err := hook()
				if err != nil || stop {
					if stop {
						s.es.HookStops++
					}
					flushEntry(s, seg)
					return stop, err
				}
				if s.pc != seg.pkt || s.halted {
					// Redirected (interrupt delivery, debugger): hand the
					// materialized state back; the caller re-dispatches.
					flushEntry(s, seg)
					return false, nil
				}
				if seg.entryBr.valid {
					s.brValid = false // back under static tracking
				}
			}
		}
		first = false
		s.fnext = -1
		for _, op := range seg.ops {
			if err := op(s); err != nil {
				return false, err
			}
		}
		if s.fnext < 0 {
			// Terminal materialized the state (deopt or halt).
			if !s.halted {
				s.es.Deopts++
			}
			return false, nil
		}
		si = s.fnext
	}
}

// RunFused executes until HALT or error, preferring fused segments and
// falling back to generic steps between a deopt and the next state a
// segment matches. Semantically identical to Run.
func (s *Sim) RunFused() error {
	for !s.halted {
		if s.cycle > s.MaxCycles {
			return s.errf(s.pc, "cycle limit exceeded")
		}
		if s.FusedEntryOK() {
			if _, err := s.StepFused(nil); err != nil {
				return err
			}
			continue
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// fuseOnce memoizes one program's fusion.
type fuseOnce struct {
	once sync.Once
	fp   *FusedProgram
	err  error
}

// fuseCache memoizes Fuse per *Program identity (see compileCache for
// why pointer keys are safe here).
var fuseCache sync.Map // *Program -> *fuseOnce

// FuseCached returns the memoized fusion of prog. The caller must
// derive cfg deterministically from prog (the platform does): the first
// caller's cfg wins for everyone sharing the program.
func FuseCached(prog *Program, cfg FuseConfig) (*FusedProgram, error) {
	v, _ := fuseCache.LoadOrStore(prog, &fuseOnce{})
	e := v.(*fuseOnce)
	e.once.Do(func() { e.fp, e.err = Fuse(prog, cfg) })
	return e.fp, e.err
}
