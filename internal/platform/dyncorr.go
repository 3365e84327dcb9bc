package platform

import "repro/internal/core"

// Dynamic Level2 correction (the companion of the static correction
// registers): Level1/Level2 clocks drift from the cycle-accurate
// reference by design — their per-block cycle predictions ignore
// pipeline effects the reference models. The drift is systematic, so a
// reference trajectory recorded once (from an ISS or Level3 run) lets a
// Level1/Level2 run carry a runtime correction term: at any point, look
// up how many generated cycles the reference had produced after
// retiring the same number of source instructions, and treat the
// difference against the local clock as the current drift. DynNow is
// the corrected clock. Keying asynchronous stimuli (interrupt
// injection) on DynNow instead of Now makes delivery land measurably
// closer to the reference's delivery positions while keeping the fast
// Level2 translation — the accuracy column of the benchmark report.

// CyclePoint is one sample of a clock trajectory: the run had retired
// SrcInsts source instructions when the generated clock stood at
// Cycles.
type CyclePoint struct {
	SrcInsts int64 `json:"src_insts"`
	Cycles   int64 `json:"cycles"`
}

// CycleCurve is a clock trajectory sampled at region boundaries,
// monotone in both coordinates. Recorded with RecordCurve, consumed
// with UseCurve.
type CycleCurve []CyclePoint

// RecordCurve starts sampling this system's (SrcInstructions,
// GeneratedCycles) trajectory at every region attribution. Recording is
// a measurement mode: it allocates per region and is not
// checkpoint/rollback aware.
func (sys *System) RecordCurve() { sys.dynRec = true }

// Curve returns the trajectory recorded so far.
func (sys *System) Curve() CycleCurve { return sys.dynCurve }

// UseCurve enables dynamic correction against a reference trajectory
// (typically recorded from a Level3 run of the same program). An empty
// curve disables correction.
func (sys *System) UseCurve(c CycleCurve) { sys.dynRef = c }

// recordPoint appends the current trajectory sample (credit calls it
// after crediting a region).
func (sys *System) recordPoint() {
	sys.dynCurve = append(sys.dynCurve, CyclePoint{SrcInsts: sys.srcInsts, Cycles: sys.Sync.Total})
}

// refCycles interpolates the reference trajectory at insts retired
// instructions: linear between samples, anchored at the origin below
// the first sample, and extrapolated with the final segment's slope
// beyond the last.
func (c CycleCurve) refCycles(insts int64) int64 {
	n := len(c)
	if n == 0 {
		return 0
	}
	// Binary search: first sample with SrcInsts >= insts. Stateless so
	// speculative rollback (which rewinds srcInsts) needs no bookkeeping.
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if c[mid].SrcInsts < insts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var p0, p1 CyclePoint
	switch {
	case lo == 0:
		p0, p1 = CyclePoint{}, c[0]
	case lo == n:
		if n == 1 {
			p0, p1 = CyclePoint{}, c[0]
		} else {
			p0, p1 = c[n-2], c[n-1]
		}
	default:
		p0, p1 = c[lo-1], c[lo]
	}
	di := p1.SrcInsts - p0.SrcInsts
	if di <= 0 {
		return p1.Cycles
	}
	return p0.Cycles + (insts-p0.SrcInsts)*(p1.Cycles-p0.Cycles)/di
}

// DynNow returns the dynamically corrected emulated clock: the local
// clock shifted by the current drift estimate against the reference
// trajectory. Without a reference curve (or at Level0, which has no
// generated clock) it is Now.
func (sys *System) DynNow() int64 {
	if len(sys.dynRef) == 0 || sys.Prog.Level == core.Level0 {
		return sys.Now()
	}
	return sys.Now() + (sys.dynRef.refCycles(sys.srcInsts) - sys.Sync.Total)
}

// LogDeliveries starts recording the trajectory position of every
// interrupt delivery (the accuracy metric's raw data).
func (sys *System) LogDeliveries() { sys.delivLog = true }

// Deliveries returns one sample per delivered interrupt: the retired
// source-instruction count and generated clock at delivery.
func (sys *System) Deliveries() []CyclePoint { return sys.deliveries }
