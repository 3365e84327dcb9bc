package dist

import (
	"context"
	"testing"
	"time"
)

func TestBackoffGrowsAndCaps(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, 800*time.Millisecond)
	var prevCap time.Duration
	for i := range 6 {
		d := b.Next()
		wantCap := 100 * time.Millisecond << i
		if wantCap > 800*time.Millisecond {
			wantCap = 800 * time.Millisecond
		}
		if d <= 0 || d > wantCap {
			t.Fatalf("attempt %d: delay %v outside (0, %v]", i, d, wantCap)
		}
		if wantCap < prevCap {
			t.Fatalf("cap shrank: %v after %v", wantCap, prevCap)
		}
		prevCap = wantCap
	}
	b.Reset()
	if d := b.Next(); d > 100*time.Millisecond {
		t.Fatalf("after Reset, delay %v exceeds base", d)
	}
}

func TestBackoffSleepHonorsContext(t *testing.T) {
	b := NewBackoff(time.Hour, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if b.Sleep(ctx) {
		t.Fatal("Sleep returned true on a cancelled context")
	}
	if time.Since(start) > time.Second {
		t.Fatal("Sleep blocked past cancellation")
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	b := NewBreaker("test", BreakerConfig{Threshold: 3, Cooldown: 5 * time.Second, Clock: clock})

	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatal("fresh breaker must be closed")
	}
	// Two failures: still closed. Third: open.
	b.Failure()
	b.Failure()
	if !b.Allow() {
		t.Fatal("breaker tripped before threshold")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after %d failures, want open", b.State(), 3)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed traffic inside cooldown")
	}

	// Cooldown elapses: exactly one probe is allowed.
	now = now.Add(6 * time.Second)
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	// Probe fails: open again for a full cooldown.
	b.Failure()
	if b.Allow() {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}

	// Next probe succeeds: closed, and the failure streak is forgotten.
	now = now.Add(6 * time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
	b.Failure()
	b.Failure()
	if !b.Allow() {
		t.Fatal("streak survived the successful probe")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker("streak", BreakerConfig{Threshold: 3})
	for range 10 {
		b.Failure()
		b.Failure()
		b.Success()
	}
	if b.State() != BreakerClosed {
		t.Fatal("interleaved successes must keep the breaker closed")
	}
	if b.Trips() != 0 {
		t.Fatalf("trips = %d, want 0", b.Trips())
	}
}
