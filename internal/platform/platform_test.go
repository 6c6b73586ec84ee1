package platform

import (
	"testing"
	"time"
)

func TestAllMCUGeometriesValid(t *testing.T) {
	for _, mcu := range []MCU{NRF52840(), CC2650(), CC2538()} {
		t.Run(mcu.Name, func(t *testing.T) {
			if err := mcu.Internal.Validate(); err != nil {
				t.Fatalf("internal geometry: %v", err)
			}
			if mcu.External != nil {
				if err := mcu.External.Validate(); err != nil {
					t.Fatalf("external geometry: %v", err)
				}
				if !mcu.External.External {
					t.Fatal("external flash must be flagged External")
				}
			}
			if mcu.RAMBytes <= 0 {
				t.Fatal("RAM size missing")
			}
			if mcu.ReservedBootloader <= 0 || mcu.ReservedBootloader%mcu.Internal.SectorSize != 0 {
				t.Fatalf("bootloader reservation %d not sector aligned", mcu.ReservedBootloader)
			}
		})
	}
}

func TestPaperPlatformSpecs(t *testing.T) {
	// RFC 7228 class-1/2 envelope the paper targets (§I).
	nrf := NRF52840()
	if nrf.Internal.Size != 1024*1024 || nrf.RAMBytes != 256*1024 {
		t.Fatal("nRF52840 sizes wrong")
	}
	cc2650 := CC2650()
	if cc2650.Internal.Size != 128*1024 || cc2650.RAMBytes != 20*1024 {
		t.Fatal("CC2650 sizes wrong")
	}
	if !cc2650.HasExternalFlash() {
		t.Fatal("CC2650 must carry external flash (holds the NB slot, §V)")
	}
	cc2538 := CC2538()
	if cc2538.Internal.Size != 512*1024 || cc2538.RAMBytes != 32*1024 {
		t.Fatal("CC2538 sizes wrong")
	}
	if cc2538.HasExternalFlash() {
		t.Fatal("CC2538 has no external flash")
	}
}

func TestOSAndApproachNames(t *testing.T) {
	if Zephyr.String() != "Zephyr" || RIOT.String() != "RIOT" || Contiki.String() != "Contiki" {
		t.Fatal("OS names wrong")
	}
	if OS(9).String() == "" {
		t.Fatal("unknown OS must render")
	}
	if Pull.String() != "pull" || Push.String() != "push" {
		t.Fatal("approach names wrong")
	}
	if Approach(9).String() == "" {
		t.Fatal("unknown approach must render")
	}
	if len(AllOSes()) != 3 {
		t.Fatal("three OSes evaluated in the paper")
	}
}

func TestBuildSlotBytes(t *testing.T) {
	push := BuildSlotBytes(Push)
	pull := BuildSlotBytes(Pull)
	if push != 112*1024 || pull != 224*1024 {
		t.Fatalf("slot bytes = %d/%d", push, pull)
	}
	// The 2:1 ratio is what produces Fig. 8a's loading-phase ratio.
	if pull != 2*push {
		t.Fatal("pull slots must be twice the push slots")
	}
	nrf := NRF52840()
	if push%nrf.Internal.SectorSize != 0 || pull%nrf.Internal.SectorSize != 0 {
		t.Fatal("slot sizes must be sector aligned")
	}
}

func TestSwapSectorCostCalibration(t *testing.T) {
	// One safe-swap sector on the nRF52840 costs 3 erases + 3×16 page
	// programs (+ reads); the Fig. 8a calibration targets ≈420 ms so a
	// 28-sector swap (plus journal traffic and the jump) lands near the
	// paper's 12.7 s loading phase.
	g := NRF52840().Internal
	pagesPerSector := g.SectorSize / g.PageSize
	perSector := 3*g.EraseSector + 3*time.Duration(pagesPerSector)*g.ProgramPage +
		3*time.Duration(pagesPerSector)*g.ReadPage
	if perSector < 400*time.Millisecond || perSector > 450*time.Millisecond {
		t.Fatalf("per-sector swap cost = %v, want ≈420ms", perSector)
	}
}
