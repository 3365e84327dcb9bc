package platform

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/iss"
	"repro/internal/socbus"
	"repro/internal/tc32asm"
)

func build(t *testing.T, src string, level core.Level) (*elf32.File, *System) {
	t.Helper()
	f, err := tc32asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Translate(f, core.Options{Level: level})
	if err != nil {
		t.Fatal(err)
	}
	return f, New(prog)
}

// ramOf is sys's RAM backing array.
func ramOf(sys *System) []byte {
	_, b := sys.RAM()
	return b
}

func TestSyncDevSemantics(t *testing.T) {
	s := &SyncDev{Ratio: 2}
	s.Start(10, 100)
	if s.DoneAt != 120 || s.Total != 10 {
		t.Errorf("after start: doneAt=%d total=%d", s.DoneAt, s.Total)
	}
	// Drain before completion stalls; after completion is free.
	if got := s.Drain(110); got != 120 {
		t.Errorf("drain(110) = %d, want 120", got)
	}
	if got := s.Drain(130); got != 130 {
		t.Errorf("drain(130) = %d, want 130", got)
	}
	// Correction cycles extend a running generation.
	s.Start(5, 200)
	s.Add(3, 205)
	if s.DoneAt != 200+10+6 || s.Total != 18 {
		t.Errorf("after add: doneAt=%d total=%d", s.DoneAt, s.Total)
	}
}

// driverProgram polls the UART busy flag before each byte — the
// cycle-accurate handshake the paper's bus interface exists to validate.
const driverProgram = `
	.global _start
_start:	movh.a	sp, 0x1010
	la	a2, 0xF0002000	; UART
	movi	d0, 'H'
	call	putc
	movi	d0, 'I'
	call	putc
	la	a15, 0xF0000F00
	movi	d1, 1
	st.w	d1, 0(a15)
	halt
putc:	ld.w	d2, 4(a2)	; STATUS
	jnz	d2, putc	; poll while busy
	st.w	d0, 0(a2)	; DATA
	ret
`

func TestDriverHandshakeOnPlatform(t *testing.T) {
	f, sys := build(t, driverProgram, core.Level2)
	uart := socbus.NewUART(40)
	sys.AttachBus(socbus.NewBus(uart))
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if string(uart.Sent) != "HI" {
		t.Errorf("uart sent %q, want HI", uart.Sent)
	}
	if uart.Overruns != 0 {
		t.Errorf("overruns = %d; polling driver must never overrun", uart.Overruns)
	}
	// The second byte must have been sent at least 40 generated cycles
	// after the first (the busy window).
	if len(uart.SendTimes) == 2 {
		gap := uart.SendTimes[1] - uart.SendTimes[0]
		if gap < 40 {
			t.Errorf("send gap %d < busy window 40: handshake not cycle accurate", gap)
		}
	}

	// And the reference simulator agrees on the behaviour.
	ref, err := iss.New(f, iss.Config{CycleAccurate: true})
	if err != nil {
		t.Fatal(err)
	}
	refUart := socbus.NewUART(40)
	ref.AttachBus(socbus.NewBus(refUart))
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if string(refUart.Sent) != "HI" || refUart.Overruns != 0 {
		t.Errorf("reference uart sent %q (overruns %d)", refUart.Sent, refUart.Overruns)
	}
}

func TestBrokenDriverOverrunsOnBothSides(t *testing.T) {
	// A driver that does NOT poll: with a slow UART both the reference
	// and the platform must observe the same overrun behaviour — this is
	// exactly the class of bug cycle-accurate emulation exists to catch.
	src := `
	.global _start
_start:	movh.a	sp, 0x1010
	la	a2, 0xF0002000
	movi	d0, 'A'
	st.w	d0, 0(a2)
	movi	d0, 'B'
	st.w	d0, 0(a2)	; fires while busy
	halt
`
	f, sys := build(t, src, core.Level3)
	uart := socbus.NewUART(1000)
	sys.AttachBus(socbus.NewBus(uart))
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if uart.Overruns != 1 || string(uart.Sent) != "A" {
		t.Errorf("platform: sent %q overruns %d, want A/1", uart.Sent, uart.Overruns)
	}
	ref, _ := iss.New(f, iss.Config{CycleAccurate: true})
	refUart := socbus.NewUART(1000)
	ref.AttachBus(socbus.NewBus(refUart))
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if refUart.Overruns != 1 || string(refUart.Sent) != "A" {
		t.Errorf("reference: sent %q overruns %d, want A/1", refUart.Sent, refUart.Overruns)
	}
}

func TestTimerSeesGeneratedClock(t *testing.T) {
	// Reading the timer twice across a known-length loop must show the
	// emulated (generated) clock advancing, closely matching the
	// reference core's own cycle count for the same code.
	src := `
	.global _start
_start:	movh.a	sp, 0x1010
	la	a2, 0xF0001000	; timer
	la	a15, 0xF0000F00
	ld.w	d1, 0(a2)	; t0
	movi	d3, 50
spin:	addi	d3, d3, -1
	jnz	d3, spin
	ld.w	d2, 0(a2)	; t1
	sub	d4, d2, d1
	st.w	d4, 0(a15)
	halt
`
	f, sys := build(t, src, core.Level3)
	sys.AttachBus(socbus.NewBus(socbus.NewTimer()))
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	ref, _ := iss.New(f, iss.Config{CycleAccurate: true})
	ref.AttachBus(socbus.NewBus(socbus.NewTimer()))
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	plat := int64(int32(sys.Output[0]))
	board := int64(int32(ref.Output()[0]))
	if plat <= 0 || board <= 0 {
		t.Fatalf("elapsed plat=%d board=%d", plat, board)
	}
	diff := plat - board
	if diff < 0 {
		diff = -diff
	}
	if float64(diff)/float64(board) > 0.05 {
		t.Errorf("timer elapsed: platform %d vs board %d (>5%% apart)", plat, board)
	}
}

func TestUnmappedAccessErrors(t *testing.T) {
	_, sys := build(t, `
_start:	movh.a	a2, 0x4000
	ld.w	d0, 0(a2)
	halt
`, core.Level0)
	if err := sys.Run(); err == nil {
		t.Error("unmapped load should error")
	}
}

func TestSyncTotalReadable(t *testing.T) {
	// Translated code can read back the total generated cycle count.
	src := fmt.Sprintf(`
	.global _start
_start:	movh.a	sp, 0x1010
	movi	d1, 20
w:	addi	d1, d1, -1
	jnz	d1, w
	la	a2, %#x
	la	a15, 0xF0000F00
	ld.w	d0, 0(a2)
	st.w	d0, 0(a15)
	halt
`, uint32(core.SyncTotal))
	_, sys := build(t, src, core.Level1)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sys.Output) != 1 || sys.Output[0] == 0 {
		t.Errorf("sync total = %v, want nonzero", sys.Output)
	}
	if int64(sys.Output[0]) > sys.Sync.Total {
		t.Errorf("read total %d exceeds final %d", sys.Output[0], sys.Sync.Total)
	}
}

func TestStatsPopulated(t *testing.T) {
	_, sys := build(t, `
_start:	movi	d0, 1
	halt
`, core.Level1)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.C6xCycles == 0 || st.Packets == 0 || st.Instructions == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.Regions == 0 {
		t.Error("no cycle regions executed")
	}
}

// TestMemoryPortEdges: loads and stores of 1, 2 and 4 bytes agree with a
// byte-at-a-time reference at both edges of every memory window — RAM
// (whose backing array ends before the window does: the tail reads
// zero, also when an access straddles the array's end), the cache table
// and the text image — and one byte past a window is unmapped. The
// source windows (RAM and text) also run through the reference
// simulator's memory, iss.Memory.Read/Write, as a second subject: it must
// read the same values and fault at the same places.
func TestMemoryPortEdges(t *testing.T) {
	f, sys := build(t, irqCountProg, core.Level3)
	ref, err := iss.New(f, iss.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mem := ref.Arch.Mem
	rBase, _ := sys.RAM()
	tBase, text := sys.Prog.TextAddr, sys.Prog.TextImage
	if len(sys.ctab) == 0 || len(text) == 0 {
		t.Fatal("Level3 program without cache table or text image")
	}
	loop := func(b []byte, off uint32, size int) uint32 {
		var v uint32
		for i := 0; i < size; i++ {
			if j := int(off) + i; j < len(b) {
				v |= uint32(b[j]) << (8 * i)
			}
		}
		return v
	}
	// store reports whether a store succeeds on the platform and, for a
	// source window, that the ISS agrees.
	store := func(label string, source bool, addr, val uint32, size int) bool {
		t.Helper()
		_, perr := sys.Store(addr, val, size, 0)
		if ierr := mem.Write(0, addr, val, size, 0); source && (ierr == nil) != (perr == nil) {
			t.Errorf("%s: store%d @%#x: platform %v, ISS %v", label, size, addr, perr, ierr)
		}
		return perr == nil
	}
	load := func(label string, source bool, addr uint32, size int) (uint32, error) {
		t.Helper()
		v, _, perr := sys.Load(addr, size, 0)
		iv, ierr := mem.Read(0, addr, size, 0)
		if source && ((ierr == nil) != (perr == nil) || iv != v) {
			t.Errorf("%s: load%d @%#x: platform %#x, %v; ISS %#x, %v", label, size, addr, v, perr, iv, ierr)
		}
		return v, perr
	}
	check := func(label string, base uint32, backing func() []byte, window int, writable, source bool) {
		t.Helper()
		for _, size := range []int{1, 2, 4} {
			offs := []int{0, 1, window - size}
			if n := len(backing()); n < window {
				offs = append(offs, n-size, n-size+1, n-1, n) // around the backing array's end
			}
			for k, off := range offs {
				if off < 0 {
					continue
				}
				addr, val := base+uint32(off), 0xA1B2C3D4+uint32(k)
				if writable {
					if !store(label, source, addr, val, size) {
						t.Fatalf("%s: store%d @+%d failed", label, size, off)
					}
					if got, want := loop(backing(), uint32(off), size), val&(1<<(8*size)-1); got != want {
						t.Errorf("%s: store%d @+%d left %#x, want %#x", label, size, off, got, want)
					}
				}
				got, err := load(label, source, addr, size)
				if err != nil {
					t.Fatalf("%s: load%d @+%d: %v", label, size, off, err)
				}
				if want := loop(backing(), uint32(off), size); got != want {
					t.Errorf("%s: load%d @+%d = %#x, want %#x", label, size, off, got, want)
				}
			}
			past := base + uint32(window-size+1)
			if _, err := load(label, source, past, size); err == nil {
				t.Errorf("%s: load%d one byte past the window succeeded", label, size)
			}
			if source && store(label, source, past, 0, size) {
				t.Errorf("%s: store%d one byte past the window succeeded", label, size)
			}
		}
	}
	ram := func() []byte { return ramOf(sys) }
	// Reads first, against the tail that was never stored to; then the
	// stores, the last of which grow the backing array to the full window.
	check("ram-read", rBase, ram, iss.RAMSize, false, true)
	check("text", tBase, func() []byte { return text }, len(text), false, true)
	for _, size := range []int{1, 2, 4} {
		for _, addr := range []uint32{tBase, tBase + uint32(len(text)-size)} {
			if store("text", true, addr, 0, size) {
				t.Errorf("text: store%d @%#x to the read-only image succeeded", size, addr)
			}
		}
	}
	check("ctab", sys.cBase, func() []byte { return sys.ctab }, len(sys.ctab), true, false)
	check("ram", rBase, ram, iss.RAMSize, true, true)
}
