package platform

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/c6x"
	"repro/internal/core"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// Indirect branches — runtime-routine returns, source returns, reti —
// dispatch at run time through return-site tables (see c6x.Fuse). These
// tests pin what that buys on translated programs; bit-identity across
// the engines is the existing matrices' job.

// TestFusedRecursionStaysFused: fibonacci returns through an address it
// reloads from the stack, which no compile-time analysis of the caller
// resolves. Every return site is in the table of the return-address
// register, so the recursion runs fused — uninterrupted, and stopped at
// every region boundary (quantum 1) with the captured branch pending,
// where each quantum is first speculated three boundaries deep and
// rolled back, the parallel scheduler's pattern.
func TestFusedRecursionStaysFused(t *testing.T) {
	w, _ := workload.ByName("fibonacci")
	for _, lv := range []core.Level{core.Level1, core.Level2, core.Level3} {
		_, built := build(t, w.Source, lv)
		prog := built.Prog
		ref := NewWithEngine(prog, EngineCompiledNoFuse)
		if err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		for _, quantum := range []int64{0, 1} {
			sys := NewWithEngine(prog, EngineCompiled)
			if quantum == 0 {
				if err := sys.Run(); err != nil {
					t.Fatal(err)
				}
			}
			for limit := quantum; !sys.CPU.Halted(); limit += quantum {
				sys.Checkpoint()
				if err := sys.RunUntil(limit + 3); err != nil {
					t.Fatal(err)
				}
				sys.Rollback()
				if err := sys.RunUntil(limit); err != nil {
					t.Fatal(err)
				}
			}
			label := fmt.Sprintf("L%d/q%d", int(lv), quantum)
			comparePlat(t, label, sys, ref)
			if es := sys.CPU.EngineStats(); es.GenericShare() >= 0.01 || es.Deopts() != 0 {
				t.Errorf("%s: generic engine retired %.1f%% of the packets, deopts %s; want < 1%% and none: %+v",
					label, 100*es.GenericShare(), es.DeoptSummary(), es)
			}
		}
	}
}

// TestFusedRetiOntoPendingIRQ: reti branches through a register the
// platform wrote, so it misses every table and leaves fused code at the
// interrupted leader — a region start the scheduler loop re-enters
// without its boundary actions. With the next interrupt already asserted
// (it arrived while the handler ran masked) that boundary is its
// delivery point: StepFused runs the hook there, and the delivery lands
// on the cycle the unfused engine and, at Level3, the ISS deliver at.
func TestFusedRetiOntoPendingIRQ(t *testing.T) {
	f, err := tc32asm.Assemble(irqCountProg)
	if err != nil {
		t.Fatal(err)
	}
	at := []int64{40, 41, 42, 300, 301}
	iss, err := runISSIRQ(t, f, at)
	if err != nil {
		t.Fatal(err)
	}
	if iss.IRQsTaken != int64(len(at)) {
		t.Fatalf("oracle took %d interrupts, want %d", iss.IRQsTaken, len(at))
	}
	for _, lv := range []core.Level{core.Level1, core.Level2, core.Level3} {
		prog, err := core.Translate(f, core.Options{Level: lv})
		if err != nil {
			t.Fatal(err)
		}
		run := func(engine Engine, quantum int64) (*System, []string) {
			sys := NewWithEngine(prog, engine)
			inj := &injector{at: at, now: sys.Now, taken: func() int64 { return sys.Stats().IRQsTaken }}
			sys.IRQLine = inj.line
			var trace []string
			sys.BoundaryTrace = func(src uint32, now int64) {
				trace = append(trace, fmt.Sprintf("%#x@%d/%d", src, now, sys.Stats().IRQsTaken))
			}
			for limit := quantum; !sys.CPU.Halted(); limit += quantum {
				if err := sys.RunUntil(limit); err != nil {
					t.Fatalf("L%d %v q%d: %v", int(lv), engine, quantum, err)
				}
				if limit > 1_000_000 {
					t.Fatal("runaway")
				}
			}
			return sys, trace
		}
		for _, quantum := range []int64{1, 64, 100_000} {
			label := fmt.Sprintf("L%d/q%d", int(lv), quantum)
			a, atrace := run(EngineCompiled, quantum)
			b, btrace := run(EngineCompiledNoFuse, quantum)
			comparePlat(t, label, a, b)
			if strings.Join(atrace, " ") != strings.Join(btrace, " ") {
				t.Errorf("%s: boundary traces differ (%d vs %d points): a boundary ran without its hook", label, len(atrace), len(btrace))
			}
			if got := a.Stats().IRQsTaken; got != int64(len(at)) {
				t.Errorf("%s: %d interrupts taken, want %d", label, got, len(at))
			}
			if lv == core.Level3 && a.Stats().GeneratedCycles != iss.Cycles {
				t.Errorf("%s: %d cycles, ISS %d", label, a.Stats().GeneratedCycles, iss.Cycles)
			}
			if es := a.CPU.EngineStats(); es.DeoptsBy[c6x.DeoptIndirectMiss] != int64(len(at)) {
				t.Errorf("%s: deopts %s, want every reti a table miss", label, es.DeoptSummary())
			}
		}
	}
}

// TestFuseLargeLevel3Program: a Level-3 program with thousands of
// cache-probe call sites fuses, and its segment count stays a small
// multiple of its packets: the probe routine is compiled once and each
// call site adds only its own continuation. (Before, every site cloned
// the routine and ~1.3 k sites exhausted the segment budget, so the
// whole program ran unfused — a cost the benchmark shows only as time.)
func TestFuseLargeLevel3Program(t *testing.T) {
	var src strings.Builder
	src.WriteString("\t.text\n\t.global _start\n_start:\tla\ta15, 0xF0000F00\n\tmovi\td0, 0\n\tmovi\td1, 0\n")
	const blocks, perBlock = 520, 14
	for b := 0; b < blocks; b++ {
		for i := 0; i < perBlock; i++ {
			fmt.Fprintf(&src, "\taddi\td%d, d%d, %d\n", 2+(b+i)%6, (b+i)%2, 1+i)
		}
		fmt.Fprintf(&src, "\tjlt\td0, d1, skip%d\n\taddi\td0, d0, 1\nskip%d:\n", b, b)
	}
	src.WriteString("\tst.w\td0, 0(a15)\n\thalt\n")
	f, err := tc32asm.Assemble(src.String())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Translate(f, core.Options{Level: core.Level3})
	if err != nil {
		t.Fatal(err)
	}
	if prog.TotalSrcInsts < 8000 {
		t.Fatalf("generated %d source instructions, want ≥ 8000", prog.TotalSrcInsts)
	}
	sys := NewWithEngine(prog, EngineCompiled)
	if !sys.CPU.Fused() {
		t.Fatal("program did not fuse")
	}
	fp, err := c6x.FuseCached(prog.C6x, c6x.FuseConfig{}) // the memoized fusion NewWithEngine attached
	if err != nil {
		t.Fatal(err)
	}
	packets := len(prog.C6x.Packets)
	if fp.Segments() > packets/2 {
		t.Errorf("%d segments for %d packets (%d source instructions); want at most one per two packets", fp.Segments(), packets, prog.TotalSrcInsts)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sys.Output) != 1 || sys.Output[0] != blocks {
		t.Fatalf("output %v, want [%d]", sys.Output, blocks)
	}
	if es := sys.CPU.EngineStats(); es.GenericPackets != 0 || es.Deopts() != 0 {
		t.Errorf("generic engine retired %d packets, deopts %s; want none", es.GenericPackets, es.DeoptSummary())
	}
	t.Logf("%d source instructions, %d packets, %d segments", prog.TotalSrcInsts, packets, fp.Segments())
}
