package iss_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/iss"
	"repro/internal/tc32"
	"repro/internal/tc32asm"
)

// TestArchStateDiff: every field changed alone is reported, by name, as
// the one difference; a11 changed alone is not reported.
func TestArchStateDiff(t *testing.T) {
	base := iss.ArchState{ShadowPC: 0x20, Cycles: 100}
	for r := range base.R {
		base.R[r] = uint32(3 * r)
	}
	cases := []struct {
		name string
		mut  func(*iss.ArchState)
	}{
		{"IE", func(s *iss.ArchState) { s.IE = true }},
		{"InHandler", func(s *iss.ArchState) { s.InHandler = true }},
		{"Waiting", func(s *iss.ArchState) { s.Waiting = true }},
		{"Halted", func(s *iss.ArchState) { s.Halted = true }},
		{"ShadowPC", func(s *iss.ArchState) { s.ShadowPC += 4 }},
		{"Cycles", func(s *iss.ArchState) { s.Cycles++ }},
	}
	// A field added to ArchState without a case here fails the test.
	named := map[string]bool{"R": true}
	for _, c := range cases {
		named[c.name] = true
	}
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		if f := reflect.TypeOf(base).Field(i).Name; !named[f] {
			t.Errorf("field %s has no case", f)
		}
	}
	for r := tc32.Reg(0); r < tc32.NumRegs; r++ {
		cases = append(cases, struct {
			name string
			mut  func(*iss.ArchState)
		}{r.String(), func(s *iss.ArchState) { s.R[r] ^= 1 }})
	}
	if d := base.Diff(base); d != nil {
		t.Errorf("equal states differ: %v", d)
	}
	for _, tc := range cases {
		got := base
		tc.mut(&got)
		d := got.Diff(base)
		if tc.name == "a11" {
			if d != nil {
				t.Errorf("a11 reported: %v", d)
			}
			continue
		}
		if len(d) != 1 || !strings.HasPrefix(d[0], tc.name+":") {
			t.Errorf("%s changed: diff %q", tc.name, d)
		}
	}
}

// waitBus stands in for an arbitrated SoC bus: every access is charged a
// varying number of wait-states, which TakeWait drains.
type waitBus struct{ n, pending int64 }

func (b *waitBus) BusRead32(addr uint32, cycle int64) uint32 { b.charge(); return uint32(b.n) }
func (b *waitBus) BusWrite32(addr, val uint32, cycle int64)  { b.charge() }
func (b *waitBus) charge()                                   { b.n++; b.pending += 1 + b.n%4 }
func (b *waitBus) TakeWait() int64 {
	w := b.pending
	b.pending = 0
	return w
}

// plainBus is a device that reports no waits.
type plainBus struct{}

func (plainBus) BusRead32(addr uint32, cycle int64) uint32 { return 1 }
func (plainBus) BusWrite32(addr, val uint32, cycle int64)  {}

// busLoop reads and writes a device in the I/O window in a loop.
const busLoop = `	.text
	.global _start
_start:	la	a15, 0xF0000F00
	la	a8, 0xF0100000
	movi	d0, 0
	li	d1, 20
loop:	ld.w	d2, 0(a8)
	st.w	d2, 4(a8)
	add	d3, d3, d2
	addi	d0, d0, 1
	jlt	d0, d1, loop
	st.w	d3, 0(a15)
	halt
`

// TestRunUntilChargesBusWaits: a standalone ISS attached to a
// WaitReporter bus charges the reported waits in RunUntil on the same
// cycles, quantum by quantum, as stepping it and stalling by the drained
// waits after each instruction.
func TestRunUntilChargesBusWaits(t *testing.T) {
	f, err := tc32asm.Assemble(busLoop)
	if err != nil {
		t.Fatal(err)
	}
	newSim := func(bus iss.Bus) (*iss.Sim, *[]string) {
		s, err := iss.New(f, iss.Config{CycleAccurate: true})
		if err != nil {
			t.Fatal(err)
		}
		s.AttachBus(bus)
		trace := new([]string)
		s.Trace = func(i tc32.Inst, cycle int64) { *trace = append(*trace, fmt.Sprintf("%#x@%d", i.Addr, cycle)) }
		return s, trace
	}
	got, gotTrace := newSim(&waitBus{})
	refBus := &waitBus{}
	ref, refTrace := newSim(refBus)
	const quantum = 7
	for limit := int64(quantum); !got.Halted() || !ref.Halted(); limit += quantum {
		if err := got.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
		for !ref.Halted() && ref.Cycles() < limit {
			if err := ref.Step(); err != nil {
				t.Fatal(err)
			}
			ref.Stall(refBus.TakeWait())
		}
		if got.Now() != ref.Now() {
			t.Fatalf("limit %d: clock %d, want %d", limit, got.Now(), ref.Now())
		}
	}
	if strings.Join(*gotTrace, " ") != strings.Join(*refTrace, " ") {
		t.Errorf("instruction cycles differ:\n got %v\nwant %v", *gotTrace, *refTrace)
	}
	if d := got.State().Diff(ref.State()); d != nil {
		t.Errorf("state: %v", d)
	}
	plain, _ := newSim(plainBus{})
	if err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Now() <= plain.Now() {
		t.Errorf("clock %d with bus waits, %d without: no wait was charged", got.Now(), plain.Now())
	}
}
