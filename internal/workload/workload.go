// Package workload provides the benchmark programs of the paper's
// evaluation: gcd, dpcm, fir, ellip, sieve and subband (Figures 5 and 6,
// Table 1) plus fibonacci (Table 2). Each workload is a complete TC32
// assembly program together with its expected debug-port output, computed
// by an independent Go reference implementation of the same algorithm.
//
// The program mix mirrors the paper: gcd and sieve are control-flow
// dominated (many small basic blocks), fir and ellip are filters, dpcm and
// subband are audio-coding kernels (ellip and subband with large basic
// blocks that parallelize well on the VLIW target).
package workload

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Workload is one benchmark program.
type Workload struct {
	Name        string
	Description string
	Source      string // TC32 assembly
	// Expected is the debug-port output vector. Every copy of a
	// built-in workload shares it: read-only.
	Expected []uint32
	// PaperInstructions is the executed-instruction count the paper
	// reports for this program in Table 2 (0 if not reported).
	PaperInstructions int64
	// LargeBlocks marks the programs the paper calls out as consisting
	// of large basic blocks (good VLIW parallelization).
	LargeBlocks bool
}

// prologue returns the common program entry: stack setup and the debug
// port pointer in a15.
const prologue = `	.text
	.global _start
_start:	movh.a	sp, 0x1010	; stack top = 0x10100000
	la	a15, 0xF0000F00	; debug output port
`

// emit writes d-register rd to the debug port.
func emit(rd int) string {
	return fmt.Sprintf("\tst.w\td%d, 0(a15)\n", rd)
}

// wordTable renders label: .word v0, v1, ... lines (8 values per line).
func wordTable(label string, vals []int32) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", label)
	for i, v := range vals {
		if i%8 == 0 {
			if i > 0 {
				b.WriteString("\n")
			}
			b.WriteString("\t.word\t")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteString("\n")
	return b.String()
}

// lcg is a tiny deterministic pseudo-random generator used to build input
// tables (both in the assembly source and in the Go reference).
type lcg uint32

func (l *lcg) next() uint32 {
	*l = lcg(uint32(*l)*1664525 + 1013904223)
	return uint32(*l)
}

// sample returns a small signed sample in [-amp, amp).
func (l *lcg) sample(amp int32) int32 {
	return int32(l.next()%(2*uint32(amp))) - amp
}

// mul32 is the TC32 mul semantic: low 32 bits of the product.
func mul32(a, b int32) int32 { return int32(uint32(a) * uint32(b)) }

// builtins is every workload in the paper's presentation order, built
// once: each constructor renders its assembly source and runs its Go
// reference, which a per-lookup rebuild would repeat on every job spec.
var builtins = []Workload{
	GCD(),
	DPCM(),
	FIR(),
	Ellip(),
	Sieve(),
	Subband(),
	Fibonacci(),
}

// All returns every workload, in the paper's presentation order. The
// slice is the caller's own; each workload's Expected is shared and
// read-only.
func All() []Workload { return slices.Clone(builtins) }

// Six returns the six programs of Figures 5/6 and Table 1 (no fibonacci).
func Six() []Workload {
	out := make([]Workload, 0, 6)
	for _, w := range builtins {
		if w.Name != "fibonacci" {
			out = append(out, w)
		}
	}
	return out
}

// ByName returns the named workload. Its Expected is shared and
// read-only.
func ByName(name string) (Workload, bool) {
	for _, w := range builtins {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// SameOutput checks a simulator's debug-port output against the
// expected vector. It is the single functional-equivalence check shared
// by the direct measurement path (repro.Measure) and the simulation
// farm, so the two paths can never diverge on what counts as a match.
func SameOutput(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("output mismatch: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("output[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
	return nil
}

// Names returns all workload names, sorted.
func Names() []string {
	var names []string
	for _, w := range builtins {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return names
}
