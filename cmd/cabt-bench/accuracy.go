package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/platform"
	"repro/internal/tc32asm"
)

// The interrupt-delivery accuracy table of -ablation: how far
// Level1/Level2 interrupt delivery drifts from the cycle-accurate
// reference, with and without the dynamic correction (platform.DynNow
// keyed injection against a Level3-recorded trajectory). The metric is
// the mean absolute difference of delivery positions, in retired source
// instructions, against the Level3 run of the identical schedule.

// accuracyProg mixes loads, stores and dependent arithmetic so the
// approximate Level1/Level2 per-block cycle predictions drift from the
// cycle-accurate reference; interrupts arrive asynchronously and the
// handler counts them in interrupt-transparent registers.
const accuracyProg = `	.text
	.global _start
_start:	la	a15, 0xF0000F00
	la	a9, cell
	la	a8, buf
	ei
	li	d1, 600
	movi	d0, 0
	movi	d5, 0
loop:	st.w	d0, 0(a8)
	ld.w	d2, 0(a8)
	add	d5, d5, d2
	mul	d3, d2, d2
	st.w	d3, 4(a8)
	ld.w	d4, 4(a8)
	add	d5, d5, d4
	addi	d0, d0, 1
	jlt	d0, d1, loop
	st.w	d5, 0(a15)
	di
	halt
__irq:	addi	d13, d13, 1
	st.w	d13, 0(a9)
	reti
	.bss
cell:	.space	8
buf:	.space	16
`

// accuracyEntry is one measured delivery-accuracy series.
type accuracyEntry struct {
	Name            string // irq-accuracy/L<level>/<plain|dyncorr>
	Interrupts      int
	MeanAbsErrInsts float64
}

// accuracyInjector delivers the schedule in order whenever the chosen
// clock has passed the next entry.
type accuracyInjector struct {
	at    []int64
	now   func() int64
	taken func() int64
}

func (in *accuracyInjector) line() bool {
	t := in.taken()
	return int(t) < len(in.at) && in.now() >= in.at[int(t)]
}

// runAccuracy executes accuracyProg at one level with the schedule keyed
// on the plain or corrected clock, returning the delivery positions and
// (for the reference) the recorded trajectory.
func runAccuracy(f *elf32.File, level core.Level, at []int64, ref platform.CycleCurve, record bool) ([]platform.CyclePoint, platform.CycleCurve, error) {
	prog, err := core.Translate(f, core.Options{Level: level})
	if err != nil {
		return nil, nil, err
	}
	sys := platform.New(prog)
	sys.LogDeliveries()
	if record {
		sys.RecordCurve()
	}
	sys.UseCurve(ref)
	inj := &accuracyInjector{at: at, now: sys.DynNow, taken: func() int64 { return sys.Stats().IRQsTaken }}
	sys.IRQLine = inj.line
	if err := sys.Run(); err != nil {
		return nil, nil, err
	}
	return sys.Deliveries(), sys.Curve(), nil
}

// deliveryErr is the accuracy metric: mean absolute source-instruction
// distance of delivery positions from the reference run's.
func deliveryErr(got, ref []platform.CyclePoint) (float64, error) {
	if len(got) != len(ref) {
		return 0, fmt.Errorf("delivered %d interrupts, reference took %d", len(got), len(ref))
	}
	var sum float64
	for i := range got {
		d := got[i].SrcInsts - ref[i].SrcInsts
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	return sum / float64(len(got)), nil
}

// measureAccuracy produces the irq-accuracy series: Level1 and Level2,
// each with the uncorrected and the dynamically corrected clock,
// against a Level3 reference of the same injection schedule.
func measureAccuracy() ([]accuracyEntry, error) {
	f, err := tc32asm.Assemble(accuracyProg)
	if err != nil {
		return nil, err
	}
	// Size the schedule to the shortest clock among the levels so every
	// run delivers all of it.
	shortest := int64(1<<62 - 1)
	for _, lv := range []core.Level{core.Level1, core.Level2, core.Level3} {
		prog, err := core.Translate(f, core.Options{Level: lv})
		if err != nil {
			return nil, err
		}
		sys := platform.New(prog)
		if err := sys.Run(); err != nil {
			return nil, err
		}
		if total := sys.Stats().GeneratedCycles; total < shortest {
			shortest = total
		}
	}
	var at []int64
	for i := int64(1); i <= 10; i++ {
		at = append(at, i*shortest*8/100) // 8%..80% of the shortest run
	}
	refDeliv, refCurve, err := runAccuracy(f, core.Level3, at, nil, true)
	if err != nil {
		return nil, err
	}
	var entries []accuracyEntry
	for _, lv := range []core.Level{core.Level1, core.Level2} {
		for _, mode := range []string{"plain", "dyncorr"} {
			var curve platform.CycleCurve
			if mode == "dyncorr" {
				curve = refCurve
			}
			deliv, _, err := runAccuracy(f, lv, at, curve, false)
			if err != nil {
				return nil, fmt.Errorf("irq-accuracy L%d %s: %w", int(lv), mode, err)
			}
			mae, err := deliveryErr(deliv, refDeliv)
			if err != nil {
				return nil, fmt.Errorf("irq-accuracy L%d %s: %w", int(lv), mode, err)
			}
			entries = append(entries, accuracyEntry{
				Name:            fmt.Sprintf("irq-accuracy/L%d/%s", int(lv), mode),
				Interrupts:      len(deliv),
				MeanAbsErrInsts: mae,
			})
		}
	}
	return entries, nil
}
