// Package platform defines the hardware and operating-system profiles
// of the paper's evaluation targets: Nordic nRF52840, TI CC2650, and
// TI CC2538, running Zephyr, RIOT, or Contiki (§V).
//
// Flash timing constants are *effective* values — they include driver
// and OS overhead — calibrated so that the headline configuration
// (nRF52840 + Zephyr) reproduces the phase durations of Fig. 8a; see
// EXPERIMENTS.md for the calibration notes.
package platform

import (
	"fmt"
	"time"

	"upkit/internal/flash"
)

// OS identifies one of the evaluated operating systems.
type OS int

// Evaluated operating systems.
const (
	Zephyr OS = iota + 1
	RIOT
	Contiki
)

// String names the OS.
func (o OS) String() string {
	switch o {
	case Zephyr:
		return "Zephyr"
	case RIOT:
		return "RIOT"
	case Contiki:
		return "Contiki"
	default:
		return fmt.Sprintf("OS(%d)", int(o))
	}
}

// AllOSes lists the evaluated operating systems in the paper's order.
func AllOSes() []OS { return []OS{Zephyr, RIOT, Contiki} }

// Approach is the network configuration of the update agent (§IV-B).
type Approach int

// Update distribution approaches.
const (
	// Pull: the device polls the update server over CoAP/6LoWPAN.
	Pull Approach = iota + 1
	// Push: a smartphone forwards updates over BLE.
	Push
)

// String names the approach.
func (a Approach) String() string {
	switch a {
	case Pull:
		return "pull"
	case Push:
		return "push"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// MCU describes one hardware platform.
type MCU struct {
	// Name is the part number.
	Name string
	// Internal is the on-chip flash geometry.
	Internal flash.Geometry
	// External is the off-chip SPI flash, if any (the CC2650 needs it
	// to hold the second slot, §V).
	External *flash.Geometry
	// RAMBytes is the SRAM size.
	RAMBytes int
	// ReservedBootloader is the internal-flash area reserved for the
	// bootloader itself.
	ReservedBootloader int
}

// HasExternalFlash reports whether the platform carries SPI flash.
func (m MCU) HasExternalFlash() bool { return m.External != nil }

// NRF52840 returns the Nordic nRF52840 profile (1 MiB flash, 256 KiB
// RAM). Erase/program times are effective values (driver + OS overhead
// included) calibrated against Fig. 8a: a safe-swap sector (3 erases +
// 3×16 page programs + reads) costs ≈454 ms, so the 28-sector
// push-configuration swap lands at ≈12.7 s while the slot erase during
// Start-update stays under 2 s.
func NRF52840() MCU {
	return MCU{
		Name: "nRF52840",
		Internal: flash.Geometry{
			Name:        "nrf52840-internal",
			Size:        1024 * 1024,
			SectorSize:  4096,
			PageSize:    256,
			EraseSector: 60 * time.Millisecond,
			ProgramPage: 5000 * time.Microsecond,
			ReadPage:    30 * time.Microsecond,
		},
		RAMBytes:           256 * 1024,
		ReservedBootloader: 32 * 1024,
	}
}

// CC2650 returns the TI CC2650 profile (128 KiB internal flash, 20 KiB
// RAM, plus 1 MiB external SPI NOR for the non-bootable slot).
func CC2650() MCU {
	ext := flash.Geometry{
		Name:        "cc2650-external-mx25r",
		Size:        1024 * 1024,
		SectorSize:  4096,
		PageSize:    256,
		EraseSector: 240 * time.Millisecond,
		ProgramPage: 4 * time.Millisecond,
		ReadPage:    800 * time.Microsecond,
		External:    true,
	}
	return MCU{
		Name: "CC2650",
		Internal: flash.Geometry{
			Name:        "cc2650-internal",
			Size:        128 * 1024,
			SectorSize:  4096,
			PageSize:    256,
			EraseSector: 90 * time.Millisecond,
			ProgramPage: 1500 * time.Microsecond,
			ReadPage:    20 * time.Microsecond,
		},
		External:           &ext,
		RAMBytes:           20 * 1024,
		ReservedBootloader: 20 * 1024,
	}
}

// CC2538 returns the TI CC2538 profile (512 KiB flash, 32 KiB RAM,
// 2 KiB erase sectors).
func CC2538() MCU {
	return MCU{
		Name: "CC2538",
		Internal: flash.Geometry{
			Name:        "cc2538-internal",
			Size:        512 * 1024,
			SectorSize:  2048,
			PageSize:    256,
			EraseSector: 60 * time.Millisecond,
			ProgramPage: 1700 * time.Microsecond,
			ReadPage:    25 * time.Microsecond,
		},
		RAMBytes:           32 * 1024,
		ReservedBootloader: 16 * 1024,
	}
}

// BuildSlotBytes returns the slot size used by the Fig. 8 experiments
// for the given approach on the nRF52840: slots are dimensioned to the
// installed build (Table II), rounded up to whole sectors — 112 KiB for
// the push build (~82 kB) and 224 KiB for the pull build (~218 kB).
// The pull build's larger slots are exactly why its static loading
// phase takes twice as long (Fig. 8a).
func BuildSlotBytes(a Approach) int {
	switch a {
	case Push:
		return 112 * 1024
	default:
		return 224 * 1024
	}
}
