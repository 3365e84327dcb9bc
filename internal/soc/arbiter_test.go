package soc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestArbiterSlotPacking pins the windowed arbiter's defining behavior:
// a request timestamped before existing reservations packs into the
// free slot at its own time instead of queueing behind occupancy that
// sits in its future — the quantum-skew fix. Requests arrive out of
// order exactly as a large quantum produces them (one core's whole
// quantum of traffic before the next core's).
func TestArbiterSlotPacking(t *testing.T) {
	a := newArbiter(2, 2)
	// Core 0's quantum: transactions at cycles 10 and 20.
	if g := a.acquire(0, 10); g != 10 {
		t.Fatalf("grant %d, want 10", g)
	}
	if g := a.acquire(0, 20); g != 20 {
		t.Fatalf("grant %d, want 20", g)
	}
	// Core 1, serviced later in the same quantum, requests at cycle 14 —
	// between core 0's reservations. A busy-until clock would stall it
	// to 22; the window packs it into the hole at 14.
	if g := a.acquire(1, 14); g != 14 {
		t.Errorf("mid-hole request granted %d, want 14 (quantum-skew overestimation)", g)
	}
	if w := a.Waits(1); w != 0 {
		t.Errorf("mid-hole request charged %d wait cycles, want 0", w)
	}
	// A request overlapping a reservation still slips to the slot end.
	if g := a.acquire(1, 11); g != 12 {
		t.Errorf("overlapping request granted %d, want 12", g)
	}
	// The hole at [16,20) is too narrow at occupancy 2 for a request at
	// 15 (would collide with the reservation at 14..16): earliest fit 16.
	if g := a.acquire(1, 15); g != 16 {
		t.Errorf("tight-hole request granted %d, want 16", g)
	}
}

// TestArbiterPruneSafety: pruning below every future request time never
// changes a grant — only the window size.
func TestArbiterPruneSafety(t *testing.T) {
	a := newArbiter(2, 3)
	for _, req := range []int64{5, 5, 9, 14, 14, 20} {
		a.acquire(0, req)
	}
	b := a.clone()
	b.prune(24) // strictly below the next request times used below
	if len(b.window) >= len(a.window) {
		t.Errorf("prune dropped nothing (window %d -> %d)", len(a.window), len(b.window))
	}
	for _, req := range []int64{25, 26, 27, 40} {
		ga, gb := a.acquire(1, req), b.acquire(1, req)
		if ga != gb {
			t.Errorf("req %d: pruned arbiter granted %d, unpruned %d", req, gb, ga)
		}
	}
	if a.Waits(1) != b.Waits(1) || a.Grants(1) != b.Grants(1) {
		t.Errorf("accounting diverged after prune: waits %d/%d grants %d/%d",
			a.Waits(1), b.Waits(1), a.Grants(1), b.Grants(1))
	}
}

// TestArbiterCloneIndependence: a lane's private arbiter never leaks
// reservations or accounting back into its source.
func TestArbiterCloneIndependence(t *testing.T) {
	a := newArbiter(2, 1)
	a.acquire(0, 10)
	c := a.clone()
	c.acquire(1, 10)
	c.acquire(1, 11)
	if g := a.Grants(1); g != 0 {
		t.Errorf("clone leaked %d grants into source", g)
	}
	if g := a.acquire(1, 11); g != 11 {
		t.Errorf("source arbiter granted %d, want 11 (clone reservation leaked)", g)
	}
	// copyStateFrom refreshes the clone back to the source's state.
	c.copyStateFrom(a)
	if g, w := c.Grants(1), c.Waits(1); g != a.Grants(1) || w != a.Waits(1) {
		t.Errorf("copyStateFrom: grants/waits %d/%d, want %d/%d", g, w, a.Grants(1), a.Waits(1))
	}
	if g := c.acquire(0, 11); g != 12 {
		t.Errorf("refreshed clone granted %d, want 12", g)
	}
}

// slotLinear is the arbiter's slot search as a scan from the window's
// first slot — the reference the binary-search start is checked against.
func slotLinear(a *Arbiter, t int64) int64 {
	g := t
	for _, s := range a.window {
		if s.start >= g+a.BusyCycles {
			break
		}
		if s.end > g {
			g = s.end
		}
	}
	return g
}

// TestArbiterSlotMatchesLinearScan: over random request streams —
// out-of-order timestamps as large quanta produce them, pruning below
// the request horizon, lanes cloned off and refreshed — every grant
// equals the linear scan's, and the window keeps the ordering the
// search relies on.
func TestArbiterSlotMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := newArbiter(4, 1+int64(r.Intn(4)))
		lane := a.clone()
		base := int64(0)
		for i := 0; i < 400; i++ {
			arb := a
			switch r.Intn(10) {
			case 0:
				base += int64(r.Intn(96))
				a.prune(base - 8)
				continue
			case 1:
				lane.copyStateFrom(a)
				continue
			case 2, 3:
				arb = lane
			}
			req := base + int64(r.Intn(128)) - 4
			want := slotLinear(arb, req)
			if got := arb.acquire(r.Intn(4), req); got != want {
				t.Errorf("seed %d op %d: request %d granted %d, linear scan grants %d", seed, i, req, got, want)
				return false
			}
			for j := 1; j < len(arb.window); j++ {
				if arb.window[j-1].end > arb.window[j].start {
					t.Errorf("seed %d op %d: window slots %v and %v overlap or are out of order", seed, i, arb.window[j-1], arb.window[j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
