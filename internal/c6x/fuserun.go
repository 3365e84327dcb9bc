package c6x

import (
	"fmt"
	"sync"
)

// This file is the fused engine's runtime: entry detection, the segment
// dispatch loop, and the boundary-hook protocol the platform uses to
// keep interrupt delivery, tracing and clock limits bit-identical to
// the interpreter while steady-state loops stay inside fused code.

// FusedHook is the per-boundary callback of StepFused. It runs with the
// architectural state observable exactly as the interpreter presents it
// at a region boundary: pc at the boundary packet, cycle/busy/stats
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
// pending branch (remaining delay, and target unless the segment was
// compiled under a captured one, which continues to any target) and the
// same in-flight writeback window (registers, landing cycles relative to
// the latency clock, order; a predicated producer's write may be
// absent). The clean state (nothing pending) is the special case every
// region start is seeded with, so there is one rule for the program
// entry and for every way a core comes back from the interpreter: a
// hook stop, a rollback, an interrupt redirect, a deopt, a debugger
// single-step.
//
// Soundness: a segment's code depends on its entry state only through
// those two components — no register value is folded into a segment. A
// captured branch target is run-time data like a register: it sits in
// brTgt from the BREG's issue until the branch fires, across segment
// ends, hook stops and rollbacks, and the firing terminal dispatches on
// it through a table whose every entry was compiled for that exit's
// window, so a hit is the trace the interpreter would run and a
// miss is their exact state at the target. When that target is a region
// start, StepFused runs the boundary hook there itself — the caller
// re-enters without its boundary actions, and a reti returning to the
// interrupted leader with the next interrupt already pending is
// delivered at that boundary, as on the interpreter. A state
// nothing was compiled for — say the sync-device scratch write still in
// flight after an interrupt redirect — stays on the interpreter
// until a boundary it does match.
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
// pending values into the segment's slots — the inverse of flushWindow.
// Only load a segment that matched.
func (seg *fseg) enter(s *Sim, load bool) bool {
	if br := seg.entryBr; s.brValid != br.valid || s.brValid && (s.brCnt != br.cnt || !br.ind && s.brTgt != br.tgt) {
		return false
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

// fusedBoundary runs the caller's boundary actions at the region start
// s.pc, pc and branch state materialized. leave reports that fused
// execution ends here: the hook stopped, failed or redirected it.
func (s *Sim) fusedBoundary(hook FusedHook) (leave, stopped bool, err error) {
	if hook == nil {
		if s.cycle > s.MaxCycles {
			return true, false, s.errf(s.pc, "cycle limit exceeded")
		}
		return false, false, nil
	}
	pc := s.pc
	if stopped, err = hook(); stopped {
		s.es.HookStops++
	}
	// A moved pc is a redirect (interrupt delivery, debugger): the caller
	// re-dispatches from the materialized state.
	return err != nil || stopped || s.pc != pc || s.halted, stopped, err
}

// StepFused runs fused segments from the current state (FusedEntryOK
// must hold) until the program halts, an op errors, the
// hook stops or redirects execution, or a segment deoptimizes back to
// the interpreter. The hook fires at every region-boundary segment
// except the first: the caller enters StepFused having just performed
// its own boundary actions there. It also fires, on the materialized
// state, where an indirect branch missed its table onto a region start.
// With a nil hook the engine checks MaxCycles itself at boundaries,
// producing the interpreter-flavored limit error.
//
// On return the architectural state is always one the interpreter can
// continue from bit-identically; stopped reports that the hook
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
			s.pc = seg.pkt
			seg.entryBr.restore(s)
			if leave, stopped, err := s.fusedBoundary(hook); leave {
				flushWindow(s, seg.entryFlush)
				return stopped, err
			}
			s.brValid = false // back under static tracking
		}
		first = false
		s.fnext = -1
		for _, op := range seg.ops {
			if err := op(s); err != nil {
				return false, err
			}
		}
		if s.fnext < 0 {
			// Terminal materialized the state (deopt, halt or table miss).
			// A miss onto a region start owes the caller its boundary
			// actions: it re-enters here without running them.
			if s.fnext == fnextMiss && regionStart(fp.regionOf, s.pc) {
				_, stopped, err = s.fusedBoundary(hook)
			}
			return stopped, err
		}
		si = s.fnext
	}
}

// RunFused executes until HALT or error, preferring fused segments and
// falling back to Step between a deopt and the next state a segment
// matches. Semantically identical to Run.
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

// fuseMemo is a program's memoized builds, one per segment length.
type fuseMemo struct {
	mu     sync.Mutex
	builds []fusedBuild
}

// fusedBuild is one memoized build.
type fusedBuild struct {
	segPkts int
	fp      *FusedProgram
	err     error
}

// FuseCached returns the memoized build of prog at cfg's segment length.
// The caller must derive the rest of cfg deterministically from prog and
// that length (the platform does): the first such caller's cfg wins.
func FuseCached(prog *Program, cfg FuseConfig) (*FusedProgram, error) {
	n := cfg.MaxSegPackets
	if n <= 0 {
		n = fuseDefaultMaxSegPackets
	}
	m := &prog.builds
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range m.builds {
		if b.segPkts == n {
			return b.fp, b.err
		}
	}
	fp, err := Fuse(prog, cfg)
	m.builds = append(m.builds, fusedBuild{segPkts: n, fp: fp, err: err})
	return fp, err
}
