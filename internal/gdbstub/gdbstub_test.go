package gdbstub

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/iss"
	"repro/internal/socbus"
	"repro/internal/tc32asm"
)

const debugProgram = `
	.global _start
_start:	movh.a	sp, 0x1010
	la	a15, 0xF0000F00
	movi	d0, 0
	movi	d1, 5
loop:	addi	d0, d0, 10	; <- mid-block breakpoint target
	addi	d0, d0, 3
	addi	d1, d1, -1
	jnz	d1, loop
	st.w	d0, 0(a15)
	halt
`

func buildELF(t *testing.T) *elf32.File {
	t.Helper()
	f, err := tc32asm.Assemble(debugProgram)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// midBlockAddr returns the address of the first addi in the loop (a
// mid-block instruction: the block starts at the loop label).
func midBlockAddr(t *testing.T, f *elf32.File) uint32 {
	sym, ok := f.Symbol("loop")
	if !ok {
		t.Fatal("no loop symbol")
	}
	return sym.Value + 4 // second instruction of the block
}

func TestISSTargetStepAndRegs(t *testing.T) {
	f := buildELF(t)
	sim, err := iss.New(f, iss.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tgt := &ISSTarget{Sim: sim}
	// movh.a + la(2 instructions) + movi d0 + movi d1 = 5 steps.
	for i := 0; i < 5; i++ {
		if err := tgt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	regs, err := tgt.Regs()
	if err != nil {
		t.Fatal(err)
	}
	if regs[1] != 5 { // d1 = 5
		t.Errorf("d1 = %d, want 5", regs[1])
	}
	if regs[32] != tgt.PC() {
		t.Errorf("pc mismatch")
	}
}

func TestDualTargetSingleStepsThroughBlock(t *testing.T) {
	f := buildELF(t)
	d, err := NewDualTarget(f, core.Level2)
	if err != nil {
		t.Fatal(err)
	}
	// Step one instruction at a time and watch d0 evolve: after the
	// first loop addi, d0 = 10; after the second, 13.
	seen := map[uint32]bool{}
	var d0AfterFirst, d0AfterSecond uint32
	loopAddr, _ := f.Symbol("loop")
	for i := 0; i < 40 && !d.Exited(); i++ {
		before := d.PC()
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		seen[before] = true
		if before == loopAddr.Value && d0AfterFirst == 0 {
			regs, _ := d.Regs()
			d0AfterFirst = regs[0]
		}
		if before == loopAddr.Value+4 && d0AfterSecond == 0 {
			regs, _ := d.Regs()
			d0AfterSecond = regs[0]
		}
	}
	if d0AfterFirst != 10 {
		t.Errorf("d0 after first loop addi = %d, want 10", d0AfterFirst)
	}
	if d0AfterSecond != 13 {
		t.Errorf("d0 after second loop addi = %d, want 13", d0AfterSecond)
	}
	if !seen[loopAddr.Value+4] {
		t.Error("single-step never paused at the mid-block instruction")
	}
}

func TestDualTargetMidBlockBreakpoint(t *testing.T) {
	f := buildELF(t)
	d, err := NewDualTarget(f, core.Level2)
	if err != nil {
		t.Fatal(err)
	}
	bp := midBlockAddr(t, f)
	bps := map[uint32]bool{bp: true}
	hits := 0
	for hits < 3 {
		running, err := d.Continue(bps)
		if err != nil {
			t.Fatal(err)
		}
		if !running {
			t.Fatalf("program exited after %d hits", hits)
		}
		if d.PC() != bp {
			t.Fatalf("stopped at %#x, want breakpoint %#x", d.PC(), bp)
		}
		hits++
		// d0 at hit k: after k-1 full iterations plus the first addi...
		// first hit: d0 = 10 (first addi executed? no: breakpoint is
		// BEFORE executing the instruction at bp). At first hit one
		// loop addi has run: d0 = 10.
		regs, _ := d.Regs()
		want := uint32(10 + (hits-1)*13)
		if regs[0] != want {
			t.Errorf("hit %d: d0 = %d, want %d", hits, regs[0], want)
		}
		if err := d.Step(); err != nil { // step off the breakpoint
			t.Fatal(err)
		}
	}
}

func TestDualTargetRunsToCompletion(t *testing.T) {
	f := buildELF(t)
	d, err := NewDualTarget(f, core.Level2)
	if err != nil {
		t.Fatal(err)
	}
	running, err := d.Continue(map[uint32]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if running {
		t.Fatal("expected program exit")
	}
	// 5 iterations × 13 = 65.
	if got := d.System().Output; len(got) != 1 || got[0] != 65 {
		t.Errorf("output = %v, want [65]", got)
	}
	if d.System().Stats().GeneratedCycles == 0 {
		t.Error("debug run should still generate cycles")
	}
}

// rspClient is a minimal RSP client for protocol tests.
type rspClient struct {
	t *testing.T
	c net.Conn
	r *bufio.Reader
}

func dialStub(t *testing.T, tgt Target) *rspClient {
	t.Helper()
	a, b := net.Pipe()
	srv := NewServer(tgt)
	go srv.Serve(a) //nolint:errcheck
	return &rspClient{t: t, c: b, r: bufio.NewReader(b)}
}

func (c *rspClient) cmd(payload string) string {
	c.t.Helper()
	var sum byte
	for i := 0; i < len(payload); i++ {
		sum += payload[i]
	}
	fmt.Fprintf(c.c, "$%s#%02x", payload, sum)
	// Read ack then response.
	for {
		b, err := c.r.ReadByte()
		if err != nil {
			c.t.Fatal(err)
		}
		if b == '$' {
			var resp []byte
			for {
				b, err := c.r.ReadByte()
				if err != nil {
					c.t.Fatal(err)
				}
				if b == '#' {
					break
				}
				resp = append(resp, b)
			}
			var csum [2]byte
			if _, err := c.r.Read(csum[:]); err != nil {
				c.t.Fatal(err)
			}
			return string(resp)
		}
	}
}

func TestRSPSessionAgainstISS(t *testing.T) {
	f := buildELF(t)
	sim, err := iss.New(f, iss.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl := dialStub(t, &ISSTarget{Sim: sim})

	if got := cl.cmd("qSupported:foo"); !strings.Contains(got, "PacketSize") {
		t.Errorf("qSupported = %q", got)
	}
	if got := cl.cmd("?"); got != "S05" {
		t.Errorf("? = %q", got)
	}
	// Set a breakpoint at the loop label and continue.
	loop, _ := f.Symbol("loop")
	if got := cl.cmd(fmt.Sprintf("Z0,%x,4", loop.Value)); got != "OK" {
		t.Errorf("Z0 = %q", got)
	}
	if got := cl.cmd("c"); got != "S05" {
		t.Errorf("c = %q", got)
	}
	// Read all registers; d1 (reg 1) must be 5.
	g := cl.cmd("g")
	if len(g) < 8*NumRegs {
		t.Fatalf("g reply too short: %d", len(g))
	}
	d1 := leHex32(t, g[8:16])
	if d1 != 5 {
		t.Errorf("d1 = %d, want 5", d1)
	}
	// Read pc (reg 32) via p.
	pc := leHex32(t, cl.cmd("p20"))
	if pc != loop.Value {
		t.Errorf("pc = %#x, want %#x", pc, loop.Value)
	}
	// Single step.
	if got := cl.cmd("s"); got != "S05" {
		t.Errorf("s = %q", got)
	}
	// Write then read a register: set d5 = 0xdeadbeef.
	if got := cl.cmd("P5=efbeadde"); got != "OK" {
		t.Errorf("P = %q", got)
	}
	if v := leHex32(t, cl.cmd("p5")); v != 0xdeadbeef {
		t.Errorf("d5 = %#x", v)
	}
	// Memory write/read round trip in RAM.
	if got := cl.cmd("M10000000,4:2a000000"); got != "OK" {
		t.Errorf("M = %q", got)
	}
	if got := cl.cmd("m10000000,4"); got != "2a000000" {
		t.Errorf("m = %q", got)
	}
	// Remove the breakpoint and run to exit.
	if got := cl.cmd(fmt.Sprintf("z0,%x,4", loop.Value)); got != "OK" {
		t.Errorf("z0 = %q", got)
	}
	if got := cl.cmd("c"); got != "W00" {
		t.Errorf("final c = %q", got)
	}
	cl.cmd("D")
}

func TestRSPSessionAgainstDualTarget(t *testing.T) {
	f := buildELF(t)
	d, err := NewDualTarget(f, core.Level2)
	if err != nil {
		t.Fatal(err)
	}
	cl := dialStub(t, d)
	bp := midBlockAddr(t, f)
	if got := cl.cmd(fmt.Sprintf("Z0,%x,4", bp)); got != "OK" {
		t.Fatalf("Z0 = %q", got)
	}
	if got := cl.cmd("c"); got != "S05" {
		t.Fatalf("c = %q", got)
	}
	if pc := leHex32(t, cl.cmd("p20")); pc != bp {
		t.Errorf("stopped at %#x, want %#x", pc, bp)
	}
	if got := cl.cmd("c"); got != "S05" {
		t.Fatalf("second c = %q", got)
	}
	if pc := leHex32(t, cl.cmd("p20")); pc != bp {
		t.Errorf("second stop at %#x, want %#x", pc, bp)
	}
	if got := cl.cmd(fmt.Sprintf("z0,%x,4", bp)); got != "OK" {
		t.Fatalf("z0 = %q", got)
	}
	if got := cl.cmd("c"); got != "W00" {
		t.Errorf("final c = %q", got)
	}
}

func leHex32(t *testing.T, s string) uint32 {
	t.Helper()
	if len(s) < 8 {
		t.Fatalf("hex too short: %q", s)
	}
	var v uint32
	for i := 0; i < 4; i++ {
		b, err := strconv.ParseUint(s[2*i:2*i+2], 16, 8)
		if err != nil {
			t.Fatal(err)
		}
		v |= uint32(b) << (8 * i)
	}
	return v
}

func TestRegNames(t *testing.T) {
	if regName(0) != "d0" || regName(26) != "sp(a10)" || regName(27) != "ra(a11)" || regName(32) != "pc" {
		t.Error("register naming wrong")
	}
}

// TestDualTargetFusedSystemSingleSteps pins the debugger's relationship
// with the superblock engine: the dual target's platform attaches the
// fused program (platform.New defaults to the fused compiled engine),
// but the stub drives the CPU packet-wise, which never enters fused
// dispatch — single-stepping is a forced deoptimization by
// construction. The observable contract: stepping and mid-block
// breakpoints behave identically to an interpreter-backed platform, and
// the program completes with the right output afterwards.
func TestDualTargetFusedSystemSingleSteps(t *testing.T) {
	f := buildELF(t)
	d, err := NewDualTarget(f, core.Level2)
	if err != nil {
		t.Fatal(err)
	}
	if !d.System().CPU.Fused() {
		t.Skip("debug image declined fusion — nothing to pin")
	}
	// Interleave: single-step twice, then continue to the mid-block
	// breakpoint, repeatedly. Compare d0 against the closed form.
	bp := midBlockAddr(t, f)
	bps := map[uint32]bool{bp: true}
	for hit := 1; hit <= 3; hit++ {
		running, err := d.Continue(bps)
		if err != nil {
			t.Fatal(err)
		}
		if !running || d.PC() != bp {
			t.Fatalf("hit %d: stopped at %#x (running=%v), want breakpoint %#x", hit, d.PC(), running, bp)
		}
		regs, _ := d.Regs()
		if want := uint32(10 + (hit-1)*13); regs[0] != want {
			t.Errorf("hit %d: d0 = %d, want %d", hit, regs[0], want)
		}
		for i := 0; i < 2; i++ { // resume by stepping off the breakpoint
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	delete(bps, bp)
	if running, err := d.Continue(bps); err != nil || running {
		t.Fatalf("final continue: running=%v err=%v", running, err)
	}
	out := d.System().Output
	if len(out) != 1 || out[0] != 65 { // 5 iterations × 13
		t.Errorf("output = %v, want [65]", out)
	}
}

// TestDebuggerMemoryAccessIsInvisible: reading and writing memory from
// the debugger does not perturb the debuggee on either target. The
// clock, the debug-port output and the state of a device whose reads
// mutate (a mailbox slot pops when read) are the same before and after;
// accesses outside RAM and text are refused rather than performed, and
// RAM still reads and writes.
func TestDebuggerMemoryAccessIsInvisible(t *testing.T) {
	f := buildELF(t)
	sim, err := iss.New(f, iss.Config{CycleAccurate: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDualTarget(f, core.Level2)
	if err != nil {
		t.Fatal(err)
	}
	type subject struct {
		name   string
		tgt    Target
		clock  func() int64
		output func() []uint32
		attach func(iss.Bus)
	}
	for _, s := range []subject{
		{"iss", &ISSTarget{Sim: sim}, sim.Cycles, sim.Output, sim.AttachBus},
		{"dual", d, func() int64 { return d.System().Stats().GeneratedCycles }, func() []uint32 { return d.System().Output }, d.System().AttachBus},
	} {
		mbox := socbus.NewMailbox(2)
		mbox.Write(0, 42, 0) // slot 0 full: a read would pop it
		s.attach(socbus.NewBus(mbox))
		for i := 0; i < 5; i++ {
			if err := s.tgt.Step(); err != nil {
				t.Fatal(err)
			}
		}
		clock, output := s.clock(), fmt.Sprint(s.output())
		buf := make([]byte, 4)
		for _, addr := range []uint32{socbus.MailboxBase, iss.IOBase + 0x100, iss.DebugPortAddr} {
			if err := s.tgt.ReadMem(addr, buf); err == nil {
				t.Errorf("%s: read of %#x outside RAM and text succeeded", s.name, addr)
			}
		}
		for _, addr := range []uint32{socbus.MailboxBase + socbus.SlotStride, iss.DebugPortAddr, core.SyncStart} {
			if err := s.tgt.WriteMem(addr, []byte{7}); err == nil {
				t.Errorf("%s: write of %#x outside RAM succeeded", s.name, addr)
			}
		}
		text := f.Section(".text")
		if err := s.tgt.ReadMem(text.Addr, buf); err != nil || fmt.Sprint(buf) != fmt.Sprint(text.Data[:4]) {
			t.Errorf("%s: text read %v, %v; want %v", s.name, buf, err, text.Data[:4])
		}
		if err := s.tgt.WriteMem(iss.RAMBase+8, []byte{1, 2, 3, 4}); err != nil {
			t.Errorf("%s: RAM write: %v", s.name, err)
		}
		if err := s.tgt.ReadMem(iss.RAMBase+8, buf); err != nil || fmt.Sprint(buf) != "[1 2 3 4]" {
			t.Errorf("%s: RAM read back %v, %v", s.name, buf, err)
		}
		if got := s.clock(); got != clock {
			t.Errorf("%s: debugger access moved the clock %d -> %d", s.name, clock, got)
		}
		if got := fmt.Sprint(s.output()); got != output {
			t.Errorf("%s: debugger access changed the output %s -> %s", s.name, output, got)
		}
		if !mbox.Full(0) || mbox.Full(1) || mbox.Pops != 0 || mbox.Posts != 1 {
			t.Errorf("%s: debugger access reached the mailbox: pops %d posts %d", s.name, mbox.Pops, mbox.Posts)
		}
	}
}
