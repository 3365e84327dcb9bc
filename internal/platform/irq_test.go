package platform

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/iss"
	"repro/internal/tc32asm"
)

// These tests pin the asynchronous-interrupt delivery contract across
// the three execution engines. The interrupt line is a cycle-keyed
// injector — the standalone analog of the SoC's interrupt controller
// output.
//
// The contract has two strengths:
//
//   - interpreted vs compiled C6x engine: bit-identical always, at every
//     detail level and drain shape (same platform semantics).
//   - ISS vs translated: bit-identical at Level3, the paper's
//     cycle-accurate level, on programs whose static cycle prediction is
//     exact. Levels 1/2 are approximations by design (Figure 5), so the
//     clocks — and with them delivery cycles — legitimately drift there.
//
// The test programs are written to be exactly predictable at Level3:
// handlers use registers the main program never touches (d13/d14 — the
// interrupt-transparency convention, with nothing to save or restore),
// and no pairable IP/LS pair straddles a region split.

// irqCountProg busy-loops while interrupts arrive asynchronously; the
// handler counts deliveries in a private cell. Output: handler count,
// loop counter.
const irqCountProg = `	.text
	.global _start
_start:	la	a15, 0xF0000F00
	la	a9, cell
	ei
	li	d1, 400
	movi	d0, 0
loop:	addi	d0, d0, 1
	jlt	d0, d1, loop
	ld.w	d2, 0(a9)
	st.w	d0, 0(a15)
	st.w	d2, 0(a15)
	di
	halt
__irq:	addi	d13, d13, 1
	st.w	d13, 0(a9)
	reti
	.bss
cell:	.space	8
`

// irqWaitProg idles in wfi until the injector has delivered 5
// interrupts; the handler counts them. Output: the observed count.
const irqWaitProg = `	.text
	.global _start
_start:	la	a15, 0xF0000F00
	la	a9, cell
	ei
	li	d1, 5
wait:	di
	lea	a4, 0(a9)
	ld.w	d0, 0(a9)
	lea	a4, 0(a9)
	jge	d0, d1, done
	wfi
	ei
	j	wait
done:	st.w	d0, 0(a15)
	halt
__irq:	addi	d13, d13, 1
	st.w	d13, 0(a9)
	reti
	.bss
cell:	.space	8
`

// injector asserts the line while the next of its scheduled cycles has
// been reached and not yet consumed; delivery consumes in order.
type injector struct {
	at    []int64
	now   func() int64
	taken func() int64
}

func (in *injector) line() bool {
	t := in.taken()
	return int(t) < len(in.at) && in.now() >= in.at[int(t)]
}

// irqRunState is everything the contract pins bit-identical.
type irqRunState struct {
	Output    []uint32
	IRQsTaken int64
	State     iss.ArchState
}

func runISSIRQ(t *testing.T, f *elf32.File, at []int64) (irqRunState, error) {
	t.Helper()
	sim, err := iss.New(f, iss.Config{CycleAccurate: true})
	if err != nil {
		t.Fatalf("iss.New: %v", err)
	}
	if at != nil {
		inj := &injector{at: at, now: sim.Cycles, taken: func() int64 { return sim.Stats().IRQsTaken }}
		sim.IRQLine = inj.line
	}
	err = sim.Run()
	return irqRunState{Output: sim.Output(), IRQsTaken: sim.Stats().IRQsTaken, State: sim.State()}, err
}

// runSysIRQ translates f and runs it to the end on the given engine with
// the injection schedule at (nil = no interrupt line).
func runSysIRQ(t *testing.T, f *elf32.File, opts core.Options, engine Engine, at []int64) (*System, error) {
	t.Helper()
	prog, err := core.Translate(f, opts)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	sys := NewWithEngine(prog, engine)
	if at != nil {
		inj := &injector{at: at, now: sys.Now, taken: func() int64 { return sys.Stats().IRQsTaken }}
		sys.IRQLine = inj.line
	}
	return sys, sys.Run()
}

func runPlatformIRQ(t *testing.T, f *elf32.File, opts core.Options, engine Engine, at []int64) (irqRunState, error) {
	t.Helper()
	sys, err := runSysIRQ(t, f, opts, engine, at)
	return irqRunState{Output: sys.Output, IRQsTaken: sys.Stats().IRQsTaken, State: sys.State()}, err
}

func diffIRQState(ref, got irqRunState, label string) error {
	if fmt.Sprint(ref.Output) != fmt.Sprint(got.Output) {
		return fmt.Errorf("%s: output %v, want %v", label, got.Output, ref.Output)
	}
	if got.IRQsTaken != ref.IRQsTaken {
		return fmt.Errorf("%s: irqs taken %d, want %d", label, got.IRQsTaken, ref.IRQsTaken)
	}
	if d := got.State.Diff(ref.State); d != nil {
		return fmt.Errorf("%s: %s", label, strings.Join(d, "; "))
	}
	return nil
}

// checkIRQMatrix runs the full level × drain × engine matrix for one
// injection schedule: the interpreter and compiled engine must agree
// bit-exactly at every point, and at Level3 both must agree bit-exactly
// with the ISS oracle.
func checkIRQMatrix(t *testing.T, f *elf32.File, at []int64, ref irqRunState) (ok bool) {
	t.Helper()
	ok = true
	for _, lv := range []core.Level{core.Level1, core.Level2, core.Level3} {
		for _, sd := range []bool{false, true} {
			opts := core.Options{Level: lv, SingleDrainCorrection: sd}
			label := fmt.Sprintf("L%d-drain%d", int(lv), map[bool]int{false: 2, true: 1}[sd])
			interp, err := runPlatformIRQ(t, f, opts, EngineInterp, at)
			if err != nil {
				t.Errorf("%s interp: %v", label, err)
				return false
			}
			compiled, err := runPlatformIRQ(t, f, opts, EngineCompiled, at)
			if err != nil {
				t.Errorf("%s compiled: %v", label, err)
				return false
			}
			if err := diffIRQState(interp, compiled, label+" compiled-vs-interp"); err != nil {
				t.Error(err)
				ok = false
			}
			if lv == core.Level3 {
				if err := diffIRQState(ref, interp, label+" vs-iss"); err != nil {
					t.Error(err)
					ok = false
				}
			}
		}
	}
	return ok
}

// TestIRQDeliveryCycleExact sweeps single-interrupt injection cycles and
// requires the delivery to land at the identical source cycle — pinned
// through final cycles, interrupt count, shadow PC and register file —
// across the ISS and both translated engines.
func TestIRQDeliveryCycleExact(t *testing.T) {
	f, err := tc32asm.Assemble(irqCountProg)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	for _, k := range []int64{0, 1, 2, 3, 5, 17, 64, 333, 777, 100000} {
		ref, err := runISSIRQ(t, f, []int64{k})
		if err != nil {
			t.Fatalf("k=%d: iss: %v", k, err)
		}
		want := int64(1)
		if k >= 1000 {
			want = 0 // beyond the end of the run: never delivered
		}
		if ref.IRQsTaken != want {
			t.Fatalf("k=%d: oracle took %d interrupts, want %d", k, ref.IRQsTaken, want)
		}
		if !checkIRQMatrix(t, f, []int64{k}, ref) {
			t.Fatalf("k=%d: matrix diverged", k)
		}
	}
}

// TestIRQWaitWakeCycleExact drives the wfi program with interrupt bursts
// at fixed cycles: the wake cycles (and everything downstream) must be
// identical across the engines.
func TestIRQWaitWakeCycleExact(t *testing.T) {
	f, err := tc32asm.Assemble(irqWaitProg)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	at := []int64{10, 11, 300, 301, 5000}
	ref, err := runISSIRQ(t, f, at)
	if err != nil {
		t.Fatalf("iss: %v", err)
	}
	if ref.IRQsTaken != 5 || len(ref.Output) != 1 || ref.Output[0] != 5 {
		t.Fatalf("oracle: taken=%d output=%v, want 5 and [5]", ref.IRQsTaken, ref.Output)
	}
	checkIRQMatrix(t, f, at, ref)
}

// TestIRQRandomInjection is the property test: any random injection
// schedule keeps the engines bit-identical (and, at Level3, identical to
// the ISS).
func TestIRQRandomInjection(t *testing.T) {
	f, err := tc32asm.Assemble(irqCountProg)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	fw, err := tc32asm.Assemble(irqWaitProg)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	check := func(seed uint32, nRaw uint8, waitProg bool) bool {
		n := int(nRaw%6) + 1
		at := make([]int64, n)
		c := int64(seed)
		for i := range at {
			c = (c*1103515245 + 12345) & 0x7FFFFFFF
			step := c % 700
			if i == 0 {
				at[i] = step
			} else {
				at[i] = at[i-1] + step
			}
		}
		file := f
		if waitProg {
			file = fw
			// The wait program needs exactly 5 wakeups to ever halt.
			if len(at) > 5 {
				at = at[:5]
			}
			for len(at) < 5 {
				at = append(at, at[len(at)-1]+100)
			}
		}
		ref, err := runISSIRQ(t, file, at)
		if err != nil {
			t.Logf("iss at=%v: %v", at, err)
			return false
		}
		return checkIRQMatrix(t, file, at, ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestIRQProgrammingErrors pins the error behavior of the architecture's
// two defined misuse cases on both sides: a spurious reti (outside any
// handler) and wfi with interrupts disabled both fail — never diverge,
// never hang.
func TestIRQProgrammingErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		at   []int64 // nil = no interrupt line attached
	}{
		{"spurious-reti", "\t.text\n\t.global _start\n_start:\tmovi\td0, 1\n\treti\n__irq:\thalt\n", []int64{1 << 40}},
		{"wfi-no-source", "\t.text\n\t.global _start\n_start:\tei\n\twfi\n\thalt\n__irq:\treti\n", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := tc32asm.Assemble(tc.src)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			if _, err := runISSIRQ(t, f, tc.at); err == nil {
				t.Errorf("iss: no error")
			}
			for _, lv := range []core.Level{core.Level1, core.Level2, core.Level3} {
				for _, eng := range []Engine{EngineCompiled, EngineInterp} {
					if _, err := runPlatformIRQ(t, f, core.Options{Level: lv}, eng, tc.at); err == nil {
						t.Errorf("L%d-%s: no error", int(lv), eng)
					}
				}
			}
		})
	}
}
