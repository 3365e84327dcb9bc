package platform

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/c6x"
	"repro/internal/core"
	"repro/internal/iss"
	"repro/internal/workload"
)

// The sync device's accesses run as direct calls in fused code (sync.go).
// The bit-identity matrices show that a bound access does what the
// MemPort would; these tests cover what they cannot reach: the guard
// that sends an access elsewhere back to the MemPort, a fault in a
// packet that paid no accounting sync, and the counters that show the
// binding engaged.

// syncOpts are the translations the sync tests run: every level with
// cycle generation, in both correction-drain shapes.
var syncOpts = []core.Options{
	{Level: core.Level1},
	{Level: core.Level2},
	{Level: core.Level3},
	{Level: core.Level2, SingleDrainCorrection: true},
	{Level: core.Level3, SingleDrainCorrection: true},
}

func syncLabel(name string, o core.Options) string {
	return fmt.Sprintf("%s/L%d-sd%v", name, int(o.Level), o.SingleDrainCorrection)
}

// syncPair builds the fused and the interpreter system of a workload,
// each run to the same emulated clock, so that the next access is on a
// path the run has already taken.
func syncPair(t *testing.T, name string, o core.Options, until int64) (fused, interp *System) {
	t.Helper()
	w, _ := workload.ByName(name)
	prog, err := core.Translate(mustAssemble(t, w.Source), o)
	if err != nil {
		t.Fatal(err)
	}
	fused, interp = NewWithEngine(prog, EngineCompiled), NewWithEngine(prog, EngineInterp)
	for _, sys := range []*System{fused, interp} {
		if err := sys.RunUntil(until); err != nil {
			t.Fatal(err)
		}
	}
	if es := fused.CPU.EngineStats(); es.BoundSites == 0 || es.GenericPackets != 0 {
		t.Fatalf("%s: the fused run did not run bound: %+v", syncLabel(name, o), es)
	}
	return fused, interp
}

// TestSyncGuardFallback: a base register moved off the device (a
// debugger writing B29) turns every bound access into a RAM access,
// which fused code must make through the MemPort exactly like the
// interpreter. Registers, memory, Stats and output stay identical.
func TestSyncGuardFallback(t *testing.T) {
	for _, name := range []string{"gcd", "sieve"} {
		for _, o := range syncOpts {
			label := syncLabel(name, o)
			fused, interp := syncPair(t, name, o, 300)
			for _, sys := range []*System{fused, interp} {
				rBase, _ := sys.RAM()
				sys.CPU.SetReg(core.RegSyncBase, rBase+iss.RAMSize/2)
				if err := sys.Run(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			comparePlat(t, label, fused, interp)
			if fused.CPU.Cycle() != interp.CPU.Cycle() || fused.CPU.Stats() != interp.CPU.Stats() || !bytes.Equal(ramOf(fused), ramOf(interp)) {
				t.Errorf("%s: c6x clock, stats or RAM differ:\n  interp: %+v\n  fused:  %+v", label, interp.CPU.Stats(), fused.CPU.Stats())
			}
			if es := fused.CPU.EngineStats(); es.DeviceFallbacks == 0 {
				t.Errorf("%s: no bound access fell back to the memory port: %+v", label, es)
			}
		}
	}
}

// TestSyncFaultInBoundPacket: a base register pointing at unmapped
// memory faults the next sync access. In fused code that is a packet
// whose only memory op is bound, which paid no accounting sync before
// it; the error (packet, cycle, text) and Stats at the fault are the
// interpreter's. Moved to the last RAM word instead, the base start
// reaches RAM and the single-drain shape's SyncAdd store faults later
// in the region, with more folded accounting owed.
func TestSyncFaultInBoundPacket(t *testing.T) {
	for _, o := range syncOpts {
		for _, base := range []string{"unmapped", "ram-end"} {
			if base == "ram-end" && !o.SingleDrainCorrection {
				continue
			}
			label := syncLabel("sieve", o) + "/" + base
			fused, interp := syncPair(t, "sieve", o, 500)
			var errs [2]error
			for i, sys := range []*System{fused, interp} {
				b := uint32(0x4000_0000)
				if base == "ram-end" {
					rBase, _ := sys.RAM()
					b = rBase + iss.RAMSize - 4
				}
				sys.CPU.SetReg(core.RegSyncBase, b)
				errs[i] = sys.Run()
			}
			if errs[0] == nil || errs[1] == nil || errs[0].Error() != errs[1].Error() {
				t.Fatalf("%s: errors differ:\n  interp: %v\n  fused:  %v", label, errs[1], errs[0])
			}
			if !reflect.DeepEqual(fused.Stats(), interp.Stats()) || fused.CPU.Stats() != interp.CPU.Stats() {
				t.Errorf("%s: state at the fault differs:\n  interp: %+v %+v\n  fused:  %+v %+v",
					label, interp.Stats(), interp.CPU.Stats(), fused.Stats(), fused.CPU.Stats())
			}
			se := errs[0].(*c6x.SimError)
			if in := onlyMemOp(fused.Prog.C6x.Packets[se.Packet]); syncOffset(&in) < 0 {
				t.Errorf("%s: fault at packet %d, not a sync access: %v", label, se.Packet, errs[0])
			}
			if es := fused.CPU.EngineStats(); es.GenericPackets != 0 || es.DeviceFallbacks == 0 {
				t.Errorf("%s: want the fault on a bound access in fused code: %+v", label, es)
			}
		}
	}
}

// onlyMemOp returns the packet's one memory op (a NOP if it has another
// number of them).
func onlyMemOp(pk c6x.Packet) c6x.Inst {
	var mem []c6x.Inst
	for _, in := range pk.Insts {
		if in.Op.IsMem() {
			mem = append(mem, in)
		}
	}
	if len(mem) != 1 {
		return c6x.Inst{Op: c6x.NOP}
	}
	return mem[0]
}

// TestSyncBindingCounters: on every built-in workload at Levels 1-3 the
// fused build binds sync sites and no bound access ever falls back; the
// unfused build, the interpreter and Level 0 (no cycle generation) bind
// nothing. A fallback here means the hot path took the MemPort after
// all, which no bit-identity test would show.
func TestSyncBindingCounters(t *testing.T) {
	for _, w := range workload.All() {
		f := mustAssemble(t, w.Source)
		l0, err := core.Translate(f, core.Options{Level: core.Level0})
		if err != nil {
			t.Fatal(err)
		}
		if es := New(l0).CPU.EngineStats(); es.BoundSites != 0 {
			t.Errorf("%s/L0: %d bound sites, want none", w.Name, es.BoundSites)
		}
		for _, level := range []core.Level{core.Level1, core.Level2, core.Level3} {
			label := fmt.Sprintf("%s/L%d", w.Name, int(level))
			prog, err := core.Translate(f, core.Options{Level: level})
			if err != nil {
				t.Fatal(err)
			}
			sys := New(prog)
			if err := sys.Run(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if es := sys.CPU.EngineStats(); es.BoundSites == 0 || es.DeviceFallbacks != 0 {
				t.Errorf("%s: bound sites %d, fallbacks %d; want some and none", label, es.BoundSites, es.DeviceFallbacks)
			}
			for _, e := range []Engine{EngineCompiledNoFuse, EngineInterp} {
				if es := NewWithEngine(prog, e).CPU.EngineStats(); es.BoundSites != 0 {
					t.Errorf("%s %v: %d bound sites, want none", label, e, es.BoundSites)
				}
			}
		}
	}
}

// TestSyncBinderDeclared pins what the platform binds: the three access
// kinds at their offsets from RegSyncBase, a base start only where the
// region table says one is, and nothing when the RAM window covers the
// device.
func TestSyncBinderDeclared(t *testing.T) {
	w, _ := workload.ByName("gcd")
	f := mustAssemble(t, w.Source)
	prog, err := core.Translate(f, core.Options{Level: core.Level2})
	if err != nil {
		t.Fatal(err)
	}
	startOf := baseStarts(prog)
	bind := syncBinder(prog, iss.RAMBase)
	base, corr := -1, -1
	for p, ri := range startOf {
		if ri >= 0 && base < 0 {
			base = p
		}
	}
	for p, pk := range prog.C6x.Packets {
		if in := onlyMemOp(pk); in.Op == c6x.STW && syncOffset(&in) == 0 && startOf[p] < 0 {
			corr = p
			break
		}
	}
	if base < 0 {
		t.Fatal("no base start found")
	}
	st := func(off int32) c6x.Inst {
		return c6x.Inst{Op: c6x.STW, Src1: c6x.R(core.RegSyncBase), Src2: c6x.Imm(off), Volatile: true}
	}
	ld := c6x.Inst{Op: c6x.LDW, Src1: c6x.R(core.RegSyncBase), Src2: c6x.Imm(0), Volatile: true}
	for _, c := range []struct {
		pkt   int
		in    c6x.Inst
		bound bool
	}{
		{base, st(0), true},
		{base, st(core.SyncAdd - core.SyncBase), true},
		{base, ld, true},
		{base, st(core.IRQCtl - core.SyncBase), false},
		{base, c6x.Inst{Op: c6x.STW, Src1: c6x.R(c6x.B(3)), Src2: c6x.Imm(0), Volatile: true}, false},
	} {
		if got := bind(c.pkt, c.in) != nil; got != c.bound {
			t.Errorf("%v at packet %d: bound=%v, want %v", c.in, c.pkt, got, c.bound)
		}
	}
	// A base start credits its region; a correction start, where the
	// program has one, does not.
	if corr >= 0 {
		sys := NewWithEngine(prog, EngineInterp)
		if _, _, ok := bind(corr, st(0))(sys, core.SyncStart, 5, 0); !ok || sys.srcInsts != 0 || sys.Sync.Total != 5 {
			t.Errorf("correction start: ok=%v srcInsts=%d total=%d", ok, sys.srcInsts, sys.Sync.Total)
		}
	}
	sys := NewWithEngine(prog, EngineInterp)
	if _, _, ok := bind(base, st(0))(sys, core.SyncStart, 7, 0); !ok || sys.srcInsts != int64(prog.Blocks[startOf[base]].SrcInsts) || sys.Sync.Starts != 1 {
		t.Errorf("base start: ok=%v srcInsts=%d starts=%d", ok, sys.srcInsts, sys.Sync.Starts)
	}
	if _, _, ok := bind(base, st(0))(sys, core.SyncAdd, 7, 0); ok {
		t.Error("a base start at another address was not declined")
	}
	if syncBinder(prog, core.SyncBase-64) != nil {
		t.Error("sync accesses bound although RAM covers the device")
	}
}
