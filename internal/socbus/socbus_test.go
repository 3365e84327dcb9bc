package socbus

import "testing"

func TestTimerCountsCycles(t *testing.T) {
	tm := NewTimer()
	if got := tm.Read(0, 100); got != 100 {
		t.Errorf("count = %d, want 100", got)
	}
	tm.Write(4, 1, 150) // reset
	if got := tm.Read(0, 160); got != 10 {
		t.Errorf("count after reset = %d, want 10", got)
	}
	if got := tm.Read(8, 160); got != 0 {
		t.Errorf("unknown register = %d, want 0", got)
	}
}

func TestUARTHandshake(t *testing.T) {
	u := NewUART(16)
	if busy := u.Read(4, 0); busy != 0 {
		t.Error("fresh UART should be idle")
	}
	u.Write(0, 'A', 100)
	if busy := u.Read(4, 110); busy != 1 {
		t.Error("UART should be busy 10 cycles after send")
	}
	if busy := u.Read(4, 116); busy != 0 {
		t.Error("UART should be idle after 16 cycles")
	}
	// Write while busy: overrun, byte lost.
	u.Write(0, 'B', 200)
	u.Write(0, 'C', 205)
	if u.Overruns != 1 {
		t.Errorf("overruns = %d, want 1", u.Overruns)
	}
	u.Write(0, 'D', 216)
	if string(u.Sent) != "ABD" {
		t.Errorf("sent = %q, want ABD", u.Sent)
	}
	if u.Read(0, 300) != 'D' {
		t.Error("DATA readback should be last byte")
	}
}

func TestBusRoutingAndTrace(t *testing.T) {
	tm := NewTimer()
	u := NewUART(8)
	b := NewBus(tm, u)
	b.BusRead32(TimerBase, 5) // untraced: nothing to report to
	var log []Transaction
	b.Trace = func(tx Transaction) { log = append(log, tx) }
	b.BusWrite32(UARTBase, 'x', 10)
	if got := b.BusRead32(TimerBase, 50); got != 50 {
		t.Errorf("timer via bus = %d", got)
	}
	b.BusRead32(0xF00FF000, 60) // unmapped
	if b.Unmapped != 1 {
		t.Errorf("unmapped = %d, want 1", b.Unmapped)
	}
	if len(log) != 3 {
		t.Fatalf("trace has %d entries, want 3", len(log))
	}
	if !log[0].Write || log[0].Addr != UARTBase || log[0].Cycle != 10 {
		t.Errorf("log[0] = %+v", log[0])
	}
	if log[1].Write || log[1].Val != 50 {
		t.Errorf("log[1] = %+v", log[1])
	}
	sb, err := NewBus(NewSharedRAM(4)).NewShadow()
	if err != nil || sb.Trace != nil {
		t.Errorf("shadow bus: err=%v, traced=%v; want an untraced copy", err, sb.Trace != nil)
	}
}

func TestAttach(t *testing.T) {
	b := NewBus()
	b.Attach(NewTimer())
	if got := b.BusRead32(TimerBase, 7); got != 7 {
		t.Errorf("attached timer read = %d", got)
	}
}
