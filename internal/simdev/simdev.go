// Package simdev provides the synthetic device fleet of the campaign
// control plane and the engine-scale tests: a few dozen bytes of
// state per device and no real update work, so the campaign engine —
// scheduling, aggregation, breaker, checkpointing — can be exercised
// at 100k–1M devices, far past what full testbed stacks fit in memory.
//
// Fleets are deterministic in (size, fail rate): the same parameters
// always produce the same device IDs and the same failing population.
// That determinism is what lets a control plane rebuild an identical
// fleet after a process restart and resume a checkpointed campaign
// against the same fault pattern.
package simdev

import (
	"errors"
	"time"

	"upkit/internal/fleet"
)

// ErrSimFailure is the deterministic failure every failing sim device
// reports.
var ErrSimFailure = errors.New("simdev: simulated device failure")

// IDBase is the first device ID in a sim fleet; device i gets
// IDBase + i, matching the testbed's device-ID convention.
const IDBase = 0xB000

// Device is a synthetic fleet.Updater starting at version 1.
type Device struct {
	id      uint32
	version uint16
	fail    bool
	latency time.Duration
}

func (u *Device) ID() uint32      { return u.id }
func (u *Device) Version() uint16 { return u.version }

// TryUpdate sleeps the configured latency, then either reports the
// deterministic failure or lands on version 2.
func (u *Device) TryUpdate() (uint16, error) {
	if u.latency > 0 {
		time.Sleep(u.latency)
	}
	if u.fail {
		return u.version, ErrSimFailure
	}
	u.version = 2
	return 2, nil
}

// Fails spreads rate deterministically across device indices (a
// Fibonacci-hash coin flip), so the failing population is stable for a
// given fleet size.
func Fails(i int, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := uint32(i) * 2654435761 // Knuth's multiplicative hash
	return float64(h%1_000_000) < rate*1_000_000
}

// Build wires an n-device synthetic fleet, every device on v1.
func Build(n int, failRate float64, latency time.Duration) []fleet.Updater {
	ups := make([]fleet.Updater, n)
	for i := range ups {
		ups[i] = &Device{
			id:      uint32(IDBase + i),
			version: 1,
			fail:    Fails(i, failRate),
			latency: latency,
		}
	}
	return ups
}
