package iss

import (
	"encoding/binary"
	"fmt"
)

// Memory map constants of the TC32 source system.
const (
	// IOBase..IOBase+IOSize is the memory-mapped I/O window. Accesses in
	// this window reach the Bus device and incur bus wait states.
	IOBase = 0xF000_0000
	IOSize = 0x0100_0000

	// DebugPortAddr is a word-write port collecting program results; it
	// is timing-insensitive so that functional results can be compared
	// across all simulators and translation levels.
	DebugPortAddr = IOBase + 0xF00

	// RAMBase is where the RAM window starts when the image has no .data
	// section to place it (the assembler links .data here by default).
	RAMBase = 0x1000_0000

	// RAMSize is the size of the data RAM region. The stack grows down
	// from the end of this region.
	RAMSize = 1 << 20
)

// Bus is the interface to memory-mapped I/O devices. The cycle argument is
// the current core cycle at the time of the access (the source-processor
// cycle domain; on the emulation platform the generated cycle count plays
// the same role).
type Bus interface {
	BusRead32(addr uint32, cycle int64) uint32
	BusWrite32(addr uint32, val uint32, cycle int64)
}

// WaitReporter is the optional interface of an arbitrated SoC bus
// (internal/soc): TakeWait drains the source-cycle wait-states the bus
// charged for the transactions since the last call (arbitration
// contention). Both core models find it at AttachBus and charge the
// waits to their own clock: the ISS as pipeline stalls, the translated
// platform as generated cycles.
type WaitReporter interface {
	TakeWait() int64
}

// Fault is a memory access fault.
type Fault struct {
	PC    uint32
	Addr  uint32
	Write bool
}

func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("iss: memory fault: %s at %#x (pc %#x)", kind, f.Addr, f.PC)
}

// Memory is the address space of the TC32 source system, the one
// description of it that the reference simulator, the RT-level proxy and
// the translated platform all decode through. Its windows, decoded in
// this order:
//   - RAM: RAMSize bytes at the .data address, writable;
//   - text: the code image at its link address, read-only;
//   - I/O: the debug port, and the attached Bus for every other address.
//
// Everything else faults. RAM is demand-grown: the whole window is mapped
// and reads as zero, but the backing array only extends to the highest
// byte ever stored. Typical programs touch a few KB of data, so building
// a memory allocates nothing for the rest of the megabyte.
type Memory struct {
	ram   []byte
	rBase uint32
	text  []byte
	tBase uint32
	bus   Bus

	// Output collects words written to the debug port.
	Output []uint32

	// Undo journal for speculative execution: while journaling, every
	// RAM write records the bytes it overwrites, so a rollback can revert
	// RAM without copying it (a quantum writes a handful of words).
	// Debug-port output rolls back by truncation to outMark.
	journaling bool
	undo       []memUndo
	outMark    int
}

// memUndo is one journaled RAM write: the old bytes at off.
type memUndo struct {
	off  uint32
	size int32
	old  uint32
}

// NewMemory maps a program image: the text at textAddr and the RAM window
// at dataAddr holding data (at RAMBase when dataAddr is 0, a program
// without .data). The text is mapped, not copied — nothing writes it.
// Data past the end of the window is not mapped, like any address there.
func NewMemory(textAddr uint32, text []byte, dataAddr uint32, data []byte) *Memory {
	m := &Memory{rBase: RAMBase, text: text, tBase: textAddr}
	if dataAddr != 0 {
		m.rBase = dataAddr
	}
	if len(data) > RAMSize {
		data = data[:RAMSize]
	}
	if len(data) > 0 {
		m.growRAM(len(data))
		copy(m.ram, data)
	}
	return m
}

// AttachBus connects the memory-mapped I/O window to a device.
func (m *Memory) AttachBus(b Bus) { m.bus = b }

// RAM returns the base of the RAM window and its backing array (the rest
// of the window reads zero). The slice is the memory's own: inspect it,
// do not keep it across a write.
func (m *Memory) RAM() (base uint32, backing []byte) { return m.rBase, m.ram }

// rd and wr are the little-endian port: size bytes at b[off:],
// bounds-checked by the caller. Words and halfwords move in one access.
func rd(b []byte, off uint32, size int) uint32 {
	switch size {
	case 4:
		return binary.LittleEndian.Uint32(b[off:])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b[off:]))
	}
	return uint32(b[off])
}

func wr(b []byte, off uint32, val uint32, size int) {
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(b[off:], val)
	case 2:
		binary.LittleEndian.PutUint16(b[off:], uint16(val))
	default:
		b[off] = byte(val)
	}
}

// growRAM extends the backing array to at least need bytes (amortized
// doubling), capped at the window size.
func (m *Memory) growRAM(need int) {
	n := max(2*len(m.ram), 4096, need)
	nb := make([]byte, min(n, RAMSize))
	copy(nb, m.ram)
	m.ram = nb
}

// Peek reads size bytes (1, 2 or 4) at addr, little-endian, from RAM or
// text. It has no side effect: ok is false anywhere else, the I/O window
// included, so a debugger can look without touching a device.
func (m *Memory) Peek(addr uint32, size int) (v uint32, ok bool) {
	if v, ok := m.PeekStored(addr, size); ok {
		return v, true
	}
	if off := addr - m.rBase; off < RAMSize && off+uint32(size) <= RAMSize {
		return m.ramTail(off, size), true
	}
	if off := addr - m.tBase; off < uint32(len(m.text)) && uint32(size) <= uint32(len(m.text))-off {
		return rd(m.text, off, size), true
	}
	return 0, false
}

// PeekStored is Peek's common case, small enough to inline into a
// simulator's load path: it reads the access when it lies in the part of
// RAM stored to so far, and reports false otherwise (Peek then decodes
// the rest of the address space).
func (m *Memory) PeekStored(addr uint32, size int) (uint32, bool) {
	if off := addr - m.rBase; int64(off)+int64(size) <= int64(len(m.ram)) {
		return rd(m.ram, off, size), true
	}
	return 0, false
}

// ramTail reads size bytes at off in the RAM window that reach past the
// backing array, where the window reads zero.
func (m *Memory) ramTail(off uint32, size int) uint32 {
	var v uint32
	for i := 0; i < size; i++ {
		if j := int(off) + i; j < len(m.ram) {
			v |= uint32(m.ram[j]) << (8 * i)
		}
	}
	return v
}

// Poke writes size bytes (1, 2 or 4) at addr, little-endian, in RAM,
// journaled like every RAM write. ok is false anywhere else: text is
// read-only (the simulators execute a decoded or translated copy of it,
// so a write there would be seen by neither), and the I/O window is left
// alone.
func (m *Memory) Poke(addr, val uint32, size int) bool {
	if m.PokeStored(addr, val, size) {
		return true
	}
	off := addr - m.rBase
	if off >= RAMSize || off+uint32(size) > RAMSize {
		return false
	}
	if int(off)+size > len(m.ram) {
		m.growRAM(int(off) + size)
	}
	if m.journaling {
		m.undo = append(m.undo, memUndo{off: off, size: int32(size), old: rd(m.ram, off, size)})
	}
	wr(m.ram, off, val, size)
	return true
}

// PokeStored is Poke's common case, small enough to inline into a
// simulator's store path: it writes the access when it lies in the part
// of RAM stored to so far and no journal is open, and reports false
// otherwise (Poke then grows RAM, journals, or refuses).
func (m *Memory) PokeStored(addr, val uint32, size int) bool {
	if off := addr - m.rBase; !m.journaling && int64(off)+int64(size) <= int64(len(m.ram)) {
		wr(m.ram, off, val, size)
		return true
	}
	return false
}

// IsIO reports whether addr lies in the memory-mapped I/O window.
func IsIO(addr uint32) bool { return addr >= IOBase && addr-IOBase < IOSize }

// ReadIO performs a read of addr in the I/O window at the given bus
// cycle: the debug port returns the number of words written to it, any
// other address the attached Bus (0 with none).
func (m *Memory) ReadIO(addr uint32, cycle int64) uint32 {
	if addr == DebugPortAddr || addr == DebugPortAddr+4 {
		return uint32(len(m.Output))
	}
	if m.bus != nil {
		return m.bus.BusRead32(addr, cycle)
	}
	return 0
}

// WriteIO performs a write of addr in the I/O window at the given bus
// cycle: the debug port collects val in Output, any other address goes to
// the attached Bus.
func (m *Memory) WriteIO(addr, val uint32, cycle int64) {
	if addr == DebugPortAddr {
		m.Output = append(m.Output, val)
	} else if m.bus != nil {
		m.bus.BusWrite32(addr, val, cycle)
	}
}

// Read reads size bytes (1, 2 or 4) at addr, little-endian.
func (m *Memory) Read(pc, addr uint32, size int, cycle int64) (uint32, error) {
	if v, ok := m.Peek(addr, size); ok {
		return v, nil
	}
	if IsIO(addr) {
		return m.ReadIO(addr, cycle), nil
	}
	return 0, &Fault{PC: pc, Addr: addr}
}

// Write writes size bytes (1, 2 or 4) at addr, little-endian.
func (m *Memory) Write(pc, addr uint32, val uint32, size int, cycle int64) error {
	if m.Poke(addr, val, size) {
		return nil
	}
	if IsIO(addr) {
		m.WriteIO(addr, val, cycle)
		return nil
	}
	return &Fault{PC: pc, Addr: addr, Write: true}
}

// ReadWord peeks the word at addr (0 outside RAM and text) — inspection
// for tests and debuggers, with no side effect.
func (m *Memory) ReadWord(addr uint32) uint32 {
	v, _ := m.Peek(addr, 4)
	return v
}

// BeginJournal starts recording write undo information (speculative
// execution support). Any previous journal is discarded.
func (m *Memory) BeginJournal() {
	m.journaling = true
	m.undo = m.undo[:0]
	m.outMark = len(m.Output)
}

// DropJournal stops journaling and discards the records (the
// speculation committed).
func (m *Memory) DropJournal() {
	m.journaling = false
	m.undo = m.undo[:0]
}

// RevertJournal undoes every journaled write in reverse order and
// truncates the debug-port output back to the journal start, then stops
// journaling (the speculation rolled back).
func (m *Memory) RevertJournal() {
	for i := len(m.undo) - 1; i >= 0; i-- {
		u := &m.undo[i]
		wr(m.ram, u.off, u.old, int(u.size))
	}
	m.Output = m.Output[:m.outMark]
	m.journaling = false
	m.undo = m.undo[:0]
}
