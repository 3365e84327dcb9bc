// Package socbus models the SoC bus of the emulated system and the
// hardware attached to it. On the paper's platform this hardware lives in
// the FPGAs behind a bus interface that adapts the C6x bus to the SoC bus
// of the emulated processor core; the cycle stream produced by the
// synchronization device clocks it.
//
// Peripherals are lazily-advancing state machines keyed on absolute cycle
// timestamps, so exactly the same devices serve both the reference
// simulator (timestamps = source-core cycles) and the emulation platform
// (timestamps = generated cycles). Cycle-accurate handshakes — the
// paper's motivating use case for device-driver validation — fall out of
// the timestamps: a driver that polls the UART busy flag too early sees
// it still busy.
//
// The multi-core devices (shared.go) add shared memory, the
// mailbox/doorbell block and the atomic counter bank; the interrupt
// controller (irq.go) turns mailbox posts, cross-core RAISE writes and
// scheduler-clocked timer deadlines into per-core interrupt lines.
package socbus

import (
	"fmt"
	"sort"
)

// Device is one peripheral on the SoC bus.
type Device interface {
	// Range returns the device's address window.
	Range() (base, size uint32)
	// Read returns the register at byte offset off at the given cycle.
	Read(off uint32, cycle int64) uint32
	// Write stores to the register at byte offset off at the given cycle.
	Write(off uint32, val uint32, cycle int64)
}

// Granular is the optional Device refinement that partitions the
// device's register window into independent conflict granules for
// speculative SoC execution (internal/soc): two accesses interact only
// if Granule maps their offsets to the same key. A device without the
// interface is one whole granule — any two accesses to it interact.
type Granular interface {
	Granule(off uint32) uint32
}

// MutatingReader is the optional Device refinement declaring which
// reads mutate device state (a mailbox DATA pop, the interrupt
// controller's auto-acking CLAIM). The speculative scheduler treats
// such reads as writes for conflict purposes. A device without the
// interface is assumed to mutate on every read (conservative).
type MutatingReader interface {
	ReadMutates(off uint32) bool
}

// ShadowDevice is a device that can participate in speculative SoC
// execution: NewShadow allocates a private same-shape copy for a
// speculating core to run against, and SyncShadow refreshes a shadow
// with the live device's state at a quantum boundary. Shadow state is
// always discarded — a committing core's transactions are replayed
// against the live device instead.
type ShadowDevice interface {
	Device
	NewShadow() Device
	SyncShadow(shadow Device)
}

// Transaction is one bus access, as reported to Bus.Trace.
type Transaction struct {
	Addr  uint32
	Val   uint32
	Write bool
	Cycle int64
}

// Bus routes accesses to devices. It implements the reference
// simulator's Bus interface and is driven by the platform's bus interface
// on the translated side.
type Bus struct {
	devs []Device
	// Trace, if non-nil, is called with every transaction in order, after
	// the device performed it (handshake validation and differential
	// tests attach a recorder). Shadow buses do not inherit it.
	Trace func(Transaction)
	// Unmapped counts accesses that hit no device.
	Unmapped int
}

// NewBus builds a bus with the given devices.
func NewBus(devs ...Device) *Bus {
	b := &Bus{devs: devs}
	sort.Slice(b.devs, func(i, j int) bool {
		bi, _ := b.devs[i].Range()
		bj, _ := b.devs[j].Range()
		return bi < bj
	})
	return b
}

// Attach adds a device.
func (b *Bus) Attach(d Device) { b.devs = append(b.devs, d) }

func (b *Bus) find(addr uint32) (Device, uint32) {
	d, _, off := b.findIdx(addr)
	return d, off
}

func (b *Bus) findIdx(addr uint32) (Device, int, uint32) {
	for i, d := range b.devs {
		base, size := d.Range()
		if addr >= base && addr-base < size {
			return d, i, addr - base
		}
	}
	return nil, -1, 0
}

// DeviceAt returns the device mapped at addr (nil if unmapped).
func (b *Bus) DeviceAt(addr uint32) Device {
	d, _ := b.find(addr)
	return d
}

// unmappedGranule keys every unmapped access: such accesses touch no
// device state, so sharing one granule is harmless.
const unmappedGranule = uint64(1) << 63

// AccessMeta classifies addr for the speculative SoC scheduler: the
// conflict granule the access touches (unique across the whole bus) and
// whether a read of addr mutates device state. Devices refine both via
// the Granular and MutatingReader interfaces; without them a device is
// a single granule whose reads are assumed mutating.
func (b *Bus) AccessMeta(addr uint32) (granule uint64, readMutates bool) {
	d, idx, off := b.findIdx(addr)
	if d == nil {
		return unmappedGranule, false
	}
	var g uint32
	if gr, ok := d.(Granular); ok {
		g = gr.Granule(off)
	}
	readMutates = true
	if mr, ok := d.(MutatingReader); ok {
		readMutates = mr.ReadMutates(off)
	}
	return uint64(idx+1)<<32 | uint64(g), readMutates
}

// NewShadow builds a private copy of the bus for a speculating core:
// same device order and address map, every device a fresh shadow. It
// fails if any attached device does not support shadowing (the
// parallel scheduler's Validate gate).
func (b *Bus) NewShadow() (*Bus, error) {
	sb := &Bus{devs: make([]Device, len(b.devs))}
	for i, d := range b.devs {
		sd, ok := d.(ShadowDevice)
		if !ok {
			base, _ := d.Range()
			return nil, fmt.Errorf("socbus: device %T at %#x does not support speculative shadowing", d, base)
		}
		sb.devs[i] = sd.NewShadow()
	}
	return sb, nil
}

// SyncShadow refreshes a shadow bus built by NewShadow with the live
// bus's device state — the per-quantum reset of a speculative world.
func (b *Bus) SyncShadow(sb *Bus) {
	for i, d := range b.devs {
		d.(ShadowDevice).SyncShadow(sb.devs[i])
	}
	sb.Unmapped = b.Unmapped
}

// BusRead32 reads a device register (iss.Bus interface).
func (b *Bus) BusRead32(addr uint32, cycle int64) uint32 {
	d, off := b.find(addr)
	var v uint32
	if d != nil {
		v = d.Read(off, cycle)
	} else {
		b.Unmapped++
	}
	if b.Trace != nil {
		b.Trace(Transaction{Addr: addr, Val: v, Cycle: cycle})
	}
	return v
}

// BusWrite32 writes a device register (iss.Bus interface).
func (b *Bus) BusWrite32(addr uint32, val uint32, cycle int64) {
	d, off := b.find(addr)
	if d != nil {
		d.Write(off, val, cycle)
	} else {
		b.Unmapped++
	}
	if b.Trace != nil {
		b.Trace(Transaction{Addr: addr, Val: val, Write: true, Cycle: cycle})
	}
}

// Timer is a free-running cycle counter with a resettable base — the
// simplest cycle-accurate peripheral: reading COUNT at different emulated
// times gives different values, so it directly exposes timing fidelity.
//
// Registers: +0 COUNT (R), +4 CTRL (W: any value resets the counter).
type Timer struct {
	Base    uint32
	resetAt int64
}

// TimerBase is the default timer address.
const TimerBase = 0xF000_1000

// NewTimer returns a timer at the default address.
func NewTimer() *Timer { return &Timer{Base: TimerBase} }

// Range implements Device.
func (t *Timer) Range() (uint32, uint32) { return t.Base, 0x100 }

// Read implements Device.
func (t *Timer) Read(off uint32, cycle int64) uint32 {
	if off == 0 {
		return uint32(cycle - t.resetAt)
	}
	return 0
}

// Write implements Device.
func (t *Timer) Write(off uint32, val uint32, cycle int64) {
	if off == 4 {
		t.resetAt = cycle
	}
}

// ReadMutates implements MutatingReader: COUNT reads are pure.
func (t *Timer) ReadMutates(off uint32) bool { return false }

// NewShadow implements ShadowDevice.
func (t *Timer) NewShadow() Device { c := *t; return &c }

// SyncShadow implements ShadowDevice.
func (t *Timer) SyncShadow(shadow Device) { *shadow.(*Timer) = *t }

// UART is a byte-wide output port with a busy handshake: after accepting
// a byte it is busy for CyclesPerByte cycles, and a write while busy is an
// overrun (the byte is lost). A correct driver polls STATUS until idle —
// exactly the handshake the paper's cycle-accurate bus interface exists to
// validate.
//
// Registers: +0 DATA (W: send byte; R: last byte), +4 STATUS (R: bit0 =
// busy).
type UART struct {
	Base          uint32
	CyclesPerByte int64

	Sent      []byte
	SendTimes []int64
	Overruns  int
	busyUntil int64
	last      uint32
}

// UARTBase is the default UART address.
const UARTBase = 0xF000_2000

// NewUART returns a UART at the default address.
func NewUART(cyclesPerByte int64) *UART {
	return &UART{Base: UARTBase, CyclesPerByte: cyclesPerByte}
}

// Range implements Device.
func (u *UART) Range() (uint32, uint32) { return u.Base, 0x100 }

// Read implements Device.
func (u *UART) Read(off uint32, cycle int64) uint32 {
	switch off {
	case 0:
		return u.last
	case 4:
		if cycle < u.busyUntil {
			return 1
		}
		return 0
	}
	return 0
}

// Write implements Device.
func (u *UART) Write(off uint32, val uint32, cycle int64) {
	if off != 0 {
		return
	}
	if cycle < u.busyUntil {
		u.Overruns++
		return
	}
	u.last = val & 0xFF
	u.Sent = append(u.Sent, byte(val))
	u.SendTimes = append(u.SendTimes, cycle)
	u.busyUntil = cycle + u.CyclesPerByte
}

// ReadMutates implements MutatingReader: DATA and STATUS reads are pure.
func (u *UART) ReadMutates(off uint32) bool { return false }

// NewShadow implements ShadowDevice.
func (u *UART) NewShadow() Device {
	c := &UART{}
	u.SyncShadow(c)
	return c
}

// SyncShadow implements ShadowDevice.
func (u *UART) SyncShadow(shadow Device) {
	s := shadow.(*UART)
	sent, times := s.Sent[:0], s.SendTimes[:0]
	*s = *u
	s.Sent = append(sent, u.Sent...)
	s.SendTimes = append(times, u.SendTimes...)
}
