// Package simclock provides a deterministic virtual clock used by the
// simulated radio, flash, and CPU models.
//
// All UpKit timing experiments (Fig. 8 of the paper) run against virtual
// time: components advance the clock by the duration their modelled
// operation would take on real hardware, so results are exactly
// reproducible and independent of host load.
package simclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a monotonically advancing virtual clock.
//
// The zero value is ready to use and starts at instant zero. Clock is
// safe for concurrent use; an advance is one atomic add.
type Clock struct {
	now atomic.Int64
}

// New returns a clock starting at virtual instant zero.
func New() *Clock { return &Clock{} }

// Now reports the current virtual instant as an offset from the start.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Advance moves the clock forward by d. Negative durations are ignored:
// virtual time never moves backwards.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now.Add(int64(d))
	}
}

// Timer accumulates named spans of virtual time. It is used to break an
// update down into the paper's phases (propagation, verification,
// loading).
type Timer struct {
	mu    sync.Mutex
	clock *Clock
	spans map[string]time.Duration
}

// NewTimer returns a phase timer bound to clock.
func NewTimer(clock *Clock) *Timer {
	return &Timer{clock: clock, spans: make(map[string]time.Duration)}
}

// Measure runs fn and charges the virtual time it consumed to phase.
func (t *Timer) Measure(phase string, fn func() error) error {
	start := t.clock.Now()
	err := fn()
	t.Add(phase, t.clock.Now()-start)
	return err
}

// Add charges d of virtual time to phase.
func (t *Timer) Add(phase string, d time.Duration) {
	t.mu.Lock()
	t.spans[phase] += d
	t.mu.Unlock()
}

// Phase reports the accumulated time for phase.
func (t *Timer) Phase(phase string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[phase]
}

// Snapshot returns a copy of all phase accumulators.
func (t *Timer) Snapshot() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.spans))
	for k, v := range t.spans {
		out[k] = v
	}
	return out
}

// String renders the phase breakdown sorted by name, for debugging.
func (t *Timer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("%v", t.spans)
}
