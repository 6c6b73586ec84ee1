// Package energy models the energy consumption of a constrained IoT
// device during an update, in the spirit of the paper's
// energy-efficiency arguments (§I, §VI): radio-on time dominates, and
// unnecessary reboots waste the whole boot current budget.
//
// The meter prices radio air time at the radio's power and charges a
// fixed cost per reboot. It is an accounting layer only — correctness
// never depends on it.
package energy

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Component identifies an energy consumer.
type Component string

// Standard components.
const (
	Radio Component = "radio"
	Boot  Component = "boot" // reboot overhead (peripheral reinit, network rejoin)
)

// Profile holds the power draw of each component while active, in
// milliwatts, plus fixed per-event charges in microjoules.
type Profile struct {
	// RadioMW is the radio power while transmitting/receiving.
	RadioMW float64
	// RebootUJ is the fixed energy cost of a reboot (peripheral
	// reinitialisation and network re-association).
	RebootUJ float64
}

// NRF52840Profile returns datasheet-flavoured constants for the
// nRF52840 (radio ~16 mA TX at 3 V).
func NRF52840Profile() Profile {
	return Profile{
		RadioMW:  48,
		RebootUJ: 250_000, // ≈ rejoining an 802.15.4/BLE network
	}
}

// Meter accumulates radio air time and reboots, and prices them in
// microjoules when read: air time is whole nanoseconds and reboots a
// count, so charges are two atomic adds and their order never moves a
// reading. Safe for concurrent use.
type Meter struct {
	profile Profile
	airNs   atomic.Int64
	reboots atomic.Int64
}

// NewMeter creates a meter with the given power profile.
func NewMeter(p Profile) *Meter {
	return &Meter{profile: p}
}

// Profile returns the meter's power profile.
func (m *Meter) Profile() Profile { return m.profile }

// ChargeRadio records radio activity lasting d.
func (m *Meter) ChargeRadio(d time.Duration) {
	m.airNs.Add(int64(d))
}

// ChargeReboot records one reboot.
func (m *Meter) ChargeReboot() {
	m.reboots.Add(1)
}

// Component reports the energy recorded on c, in microjoules.
func (m *Meter) Component(c Component) float64 {
	switch c {
	case Radio:
		return m.profile.RadioMW * time.Duration(m.airNs.Load()).Seconds() * 1000
	case Boot:
		return m.profile.RebootUJ * float64(m.reboots.Load())
	}
	return 0
}

// Snapshot returns the energy of every component charged so far.
func (m *Meter) Snapshot() map[Component]float64 {
	out := make(map[Component]float64, 2)
	if m.airNs.Load() != 0 {
		out[Radio] = m.Component(Radio)
	}
	if m.reboots.Load() != 0 {
		out[Boot] = m.Component(Boot)
	}
	return out
}

// String renders the meter as "component=XmJ" pairs, sorted.
func (m *Meter) String() string {
	snap := m.Snapshot()
	parts := make([]string, 0, len(snap))
	for _, c := range []Component{Boot, Radio} {
		if uj, ok := snap[c]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.1fmJ", c, uj/1000))
		}
	}
	return strings.Join(parts, " ")
}
