package device_test

import (
	"errors"
	"testing"

	"upkit/internal/agent"
	"upkit/internal/bootloader"
	"upkit/internal/device"
	"upkit/internal/energy"
	"upkit/internal/platform"
	"upkit/internal/security"
	"upkit/internal/testbed"
	"upkit/internal/updateserver"
	"upkit/internal/verifier"
)

// TestPhaseNamesAgree: the device charges both halves of the double
// verification to one accumulator, so the agent's phase name must be
// the bootloader's.
func TestPhaseNamesAgree(t *testing.T) {
	if agent.PhaseVerification != bootloader.PhaseVerification {
		t.Fatalf("agent phase %q != bootloader phase %q", agent.PhaseVerification, bootloader.PhaseVerification)
	}
}

func baseOptions() device.Options {
	suite := security.NewTinyCrypt()
	vendor := security.MustGenerateKey("dev-vendor")
	server := security.MustGenerateKey("dev-server")
	return device.Options{
		Name:      "test-device",
		MCU:       platform.NRF52840(),
		Mode:      bootloader.ModeStatic,
		SlotBytes: 128 * 1024,
		Suite:     suite,
		Keys:      verifier.Keys{Vendor: vendor.Public(), Server: server.Public()},
		DeviceID:  0xD1,
		AppID:     0xA1,
		NonceSeed: "device-test",
	}
}

func TestNewLaysOutSlots(t *testing.T) {
	d, err := device.New(baseOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if d.SlotA.Region().Offset != platform.NRF52840().ReservedBootloader {
		t.Fatalf("slot A offset = %#x", d.SlotA.Region().Offset)
	}
	if d.SlotA.Region().Length != 128*1024 || d.SlotB.Region().Length != 128*1024 {
		t.Fatal("slot sizes wrong")
	}
	if d.External != nil {
		t.Fatal("nRF52840 has no external flash")
	}
	if d.RunningVersion() != 0 || d.Running() != nil {
		t.Fatal("fresh device must not be running anything")
	}
}

func TestNewDefaultsToSymmetricLayout(t *testing.T) {
	opts := baseOptions()
	opts.SlotBytes = 0
	d, err := device.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.SlotA.Region().Length != d.SlotB.Region().Length {
		t.Fatal("default layout must be symmetric")
	}
	if d.SlotA.Region().Length < 400*1024 {
		t.Fatalf("default slots = %d bytes; should use most of the 1 MiB chip", d.SlotA.Region().Length)
	}
}

func TestNewRejectsOversizedSlots(t *testing.T) {
	opts := baseOptions()
	opts.SlotBytes = 600 * 1024 // 2×600 KiB exceeds 1 MiB
	if _, err := device.New(opts); !errors.Is(err, device.ErrTooSmallFlash) {
		t.Fatalf("error = %v, want ErrTooSmallFlash", err)
	}
}

func TestNewRequiresSuite(t *testing.T) {
	opts := baseOptions()
	opts.Suite = nil
	if _, err := device.New(opts); err == nil {
		t.Fatal("New without suite must fail")
	}
}

func TestABModeHasTwoBootableSlots(t *testing.T) {
	opts := baseOptions()
	opts.Mode = bootloader.ModeAB
	d, err := device.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.SlotB.Kind.String() != "B" {
		t.Fatalf("slot B kind = %v, want bootable in A/B mode", d.SlotB.Kind)
	}
}

func TestApplyStagedUpdateWithoutStage(t *testing.T) {
	d, err := device.New(baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyStagedUpdate(); !errors.Is(err, device.ErrNoUpdateStaged) {
		t.Fatalf("error = %v, want ErrNoUpdateStaged", err)
	}
}

func TestRebootChargesEnergyAndTime(t *testing.T) {
	// Use the testbed for a provisioned device.
	b, err := testbed.New(testbed.Options{}, testbed.MakeFirmware("v1", 32*1024))
	if err != nil {
		t.Fatal(err)
	}
	bootBefore := b.Device.Meter.Component(energy.Boot)
	clockBefore := b.Device.Clock.Now()
	if _, err := b.Device.Reboot(); err != nil {
		t.Fatal(err)
	}
	if b.Device.Meter.Component(energy.Boot) <= bootBefore {
		t.Fatal("reboot did not charge boot energy")
	}
	if b.Device.Clock.Now() <= clockBefore {
		t.Fatal("reboot did not consume virtual time")
	}
}

func TestFactoryProvisionRejectsDifferential(t *testing.T) {
	d, err := device.New(baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	u := &updateserver.Update{Differential: true}
	if err := d.FactoryProvision(u); err == nil {
		t.Fatal("differential factory image must be rejected")
	}
}

func TestManifestOfRunningImage(t *testing.T) {
	b, err := testbed.New(testbed.Options{}, testbed.MakeFirmware("v1", 32*1024))
	if err != nil {
		t.Fatal(err)
	}
	m := b.Device.Manifest()
	if m == nil || m.Version != 1 {
		t.Fatalf("manifest = %+v, want v1", m)
	}
}

func TestEnergyReportIntegratesFlash(t *testing.T) {
	b, err := testbed.New(testbed.Options{Seed: "energy-report"}, testbed.MakeFirmware("er-v1", 32*1024))
	if err != nil {
		t.Fatal(err)
	}
	total1 := b.Device.EnergyReport()
	if total1 <= 0 {
		t.Fatal("no energy recorded after factory provisioning")
	}
	if b.Device.Meter.Component(energy.Flash) <= 0 {
		t.Fatal("flash energy not integrated")
	}
	// Calling again without activity must not double-charge.
	total2 := b.Device.EnergyReport()
	if total2 != total1 {
		t.Fatalf("idle EnergyReport changed total: %f -> %f", total1, total2)
	}
	// More flash activity raises the total.
	if err := b.PublishVersion(2, testbed.MakeFirmware("er-v2", 32*1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PullUpdate(); err != nil {
		t.Fatal(err)
	}
	if total3 := b.Device.EnergyReport(); total3 <= total2 {
		t.Fatalf("EnergyReport did not grow after an update: %f -> %f", total2, total3)
	}
}
