package dist

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: healthy, traffic flows.
	BreakerClosed BreakerState = iota
	// BreakerOpen: tripped, traffic is refused until the cooldown ends.
	BreakerOpen
	// BreakerHalfOpen: cooldown over, one probe is in flight; its outcome
	// closes or re-opens the circuit.
	BreakerHalfOpen
)

// BreakerConfig tunes a Breaker. The zero value means: trip after 3
// consecutive failures, probe again after 5 s.
type BreakerConfig struct {
	// Threshold is how many consecutive failures trip the breaker.
	Threshold int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe.
	Cooldown time.Duration
	// Clock is the time source (tests inject a fake one).
	Clock func() time.Time
}

// Breaker is a consecutive-failure circuit breaker. It guards a
// worker's remote store: a persistently unreachable store degrades
// translation to local-only instead of paying a network timeout per
// cache miss.
//
// Allow is the gate: callers skip the protected operation when it
// returns false and report the outcome with Success/Failure when it
// returns true. In the half-open state exactly one caller gets a probe;
// the rest stay refused until the probe reports.
type Breaker struct {
	name string
	cfg  BreakerConfig

	mu      sync.Mutex
	state   BreakerState
	fails   int       // consecutive failures while closed
	until   time.Time // open until (state == BreakerOpen)
	probing bool      // a half-open probe is in flight
	trips   int64

	ctrTrips *obs.Counter
}

// NewBreaker builds a breaker. name labels its telemetry
// (cabt_breaker_trips_total{breaker=name}).
func NewBreaker(name string, cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Breaker{
		name: name,
		cfg:  cfg,
		ctrTrips: obs.Default.Counter("cabt_breaker_trips_total",
			"circuit-breaker trips (closed/half-open to open)", "breaker", name),
	}
}

// Allow reports whether the protected operation may run now. A true
// return obligates the caller to report Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Clock().Before(b.until) {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success reports a healthy outcome: the circuit closes and the failure
// streak resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails = 0
	b.probing = false
}

// Failure reports an unhealthy outcome. A half-open probe failure or a
// closed-state streak reaching the threshold re-opens the circuit for a
// full cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.trip()
		return
	}
	b.fails++
	if b.state == BreakerClosed && b.fails >= b.cfg.Threshold {
		b.trip()
	}
}

// trip opens the circuit. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.until = b.cfg.Clock().Add(b.cfg.Cooldown)
	b.fails = 0
	b.probing = false
	b.trips++
	b.ctrTrips.Inc()
}

// State reports the breaker's position (open reports half-open once its
// cooldown has lapsed, since the next Allow would probe).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && !b.cfg.Clock().Before(b.until) {
		return BreakerHalfOpen
	}
	return b.state
}

// Trips reports how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
