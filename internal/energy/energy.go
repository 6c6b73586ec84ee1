// Package energy models the energy consumption of a constrained IoT
// device during an update, in the spirit of the paper's
// energy-efficiency arguments (§I, §VI): radio-on time dominates, and
// unnecessary reboots waste the whole boot current budget.
//
// The meter integrates radio power over virtual time and charges a
// fixed cost per reboot. It is an accounting layer only — correctness
// never depends on it.
package energy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
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

// Meter accumulates energy per component. Safe for concurrent use.
type Meter struct {
	mu      sync.Mutex
	profile Profile
	uj      map[Component]float64
}

// NewMeter creates a meter with the given power profile.
func NewMeter(p Profile) *Meter {
	return &Meter{profile: p, uj: make(map[Component]float64)}
}

// Profile returns the meter's power profile.
func (m *Meter) Profile() Profile { return m.profile }

// add records e microjoules on component c.
func (m *Meter) add(c Component, e float64) {
	m.mu.Lock()
	m.uj[c] += e
	m.mu.Unlock()
}

// ChargeRadio records radio activity lasting d.
func (m *Meter) ChargeRadio(d time.Duration) {
	m.add(Radio, m.profile.RadioMW*d.Seconds()*1000)
}

// ChargeReboot records one reboot.
func (m *Meter) ChargeReboot() {
	m.add(Boot, m.profile.RebootUJ)
}

// Component reports the energy recorded on c, in microjoules.
func (m *Meter) Component(c Component) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.uj[c]
}

// Snapshot returns a copy of all component accumulators.
func (m *Meter) Snapshot() map[Component]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[Component]float64, len(m.uj))
	for k, v := range m.uj {
		out[k] = v
	}
	return out
}

// String renders the meter as "component=XmJ" pairs, sorted.
func (m *Meter) String() string {
	snap := m.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.1fmJ", k, snap[Component(k)]/1000))
	}
	return strings.Join(parts, " ")
}
