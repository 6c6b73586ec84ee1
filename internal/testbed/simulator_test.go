package testbed

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"upkit/internal/bootloader"
	"upkit/internal/flash"
	"upkit/internal/platform"
	"upkit/internal/security"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
)

// Golden simulated statistics of two scripted updates on an nRF52840
// bed, recorded from the dense flash model before the sparse store
// replaced it. A change to the simulator's host cost must leave every
// one of them alone: operation counters, per-sector wear, the device
// clock and the Fig. 8a phase breakdown. A change that moves them is a
// model change and has to say so (and re-record them).

// flashFingerprint renders everything the flash model accounts for:
// the operation counters and the wear map, run-length encoded as
// "count*erases".
func flashFingerprint(mem *flash.Memory) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%+v wear", mem.Stats())
	geo := mem.Geometry()
	sectors := geo.Size / geo.SectorSize
	for s := 0; s < sectors; {
		n := mem.EraseCount(s)
		run := 1
		for s+run < sectors && mem.EraseCount(s+run) == n {
			run++
		}
		fmt.Fprintf(&sb, " %d*%d", run, n)
		s += run
	}
	return sb.String()
}

func bedFingerprint(b *Bed) string {
	return fmt.Sprintf("flash{%s} clock=%d phases=%v",
		flashFingerprint(b.Device.Internal), int64(b.Device.Clock.Now()), b.Device.Phases)
}

func TestGoldenCountersStaticDifferential(t *testing.T) {
	const want = "flash{{SectorErases:284 PagePrograms:3135 BytesRead:879572 BytesWritten:756666} wear 8*0 112*2 1*56 2*2 133*0} clock=36496828000 phases=map[loading:26.56735s verification:837.258ms]"
	v1 := MakeFirmware("golden-static-v1", 32*1024)
	v2 := DeriveAppChange(v1, 1000)
	b, err := New(Options{
		Approach:     platform.Pull,
		Mode:         bootloader.ModeStatic,
		Differential: true,
		Seed:         "golden-static",
	}, v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PublishVersion(2, v2); err != nil {
		t.Fatal(err)
	}
	res, err := b.PullUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || !bytes.Equal(runningFirmware(t, b), v2) {
		t.Fatalf("booted v%d, want v2 with the published bytes", res.Version)
	}
	if !b.Device.Manifest().IsDifferential() {
		t.Fatal("expected a differential manifest")
	}
	if got := bedFingerprint(b); got != want {
		t.Errorf("simulated statistics moved:\n got  %s\n want %s", got, want)
	}
}

func TestGoldenCountersABEncrypted(t *testing.T) {
	const want = "flash{{SectorErases:114 PagePrograms:278 BytesRead:191590 BytesWritten:68426} wear 8*0 112*1 2*0 1*2 133*0} clock=14162788000 phases=map[loading:2s verification:837.228ms]"
	v1 := MakeFirmware("golden-ab-v1", 32*1024)
	v2 := DeriveOSChange(v1)
	b, err := New(Options{
		Approach:     platform.Pull,
		Mode:         bootloader.ModeAB,
		Differential: true,
		Encrypted:    true,
		Seed:         "golden-ab",
	}, v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PublishVersion(2, v2); err != nil {
		t.Fatal(err)
	}
	res, err := b.PullUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || !bytes.Equal(runningFirmware(t, b), v2) {
		t.Fatalf("booted v%d, want v2 with the published bytes", res.Version)
	}
	if got := bedFingerprint(b); got != want {
		t.Errorf("simulated statistics moved:\n got  %s\n want %s", got, want)
	}
}

// TestDeviceHeapFootprint pins what a simulated device costs the host:
// a factory-provisioned nRF52840 holding a 32 KiB image keeps buffers
// only for the flash sectors it has programmed, not for its 1 MiB chip
// (1037 KiB per device with a dense array).
func TestDeviceHeapFootprint(t *testing.T) {
	const devices = 256
	const limit = 128 << 10
	suite, err := security.SuiteByName("tinycrypt", nil)
	if err != nil {
		t.Fatal(err)
	}
	vendor := vendorserver.New(suite, security.MustGenerateKey("footprint-vendor"))
	update := updateserver.New(suite, security.MustGenerateKey("footprint-server"))
	fw := MakeFirmware("footprint-v1", 32*1024)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	beds := make([]*Bed, devices)
	for i := range beds {
		beds[i], err = New(Options{
			Approach:     platform.Pull,
			Differential: true,
			DeviceID:     uint32(0xF000 + i),
			Seed:         fmt.Sprintf("footprint-%d", i),
			SharedVendor: vendor,
			SharedUpdate: update,
		}, fw)
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perDevice := (int64(after.HeapInuse) - int64(before.HeapInuse)) / devices
	t.Logf("HeapInuse grew %d KiB per device", perDevice>>10)
	if perDevice >= limit {
		t.Fatalf("HeapInuse grew %d bytes per device, want < %d", perDevice, limit)
	}
	runtime.KeepAlive(beds)
}
