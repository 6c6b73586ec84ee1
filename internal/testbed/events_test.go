package testbed

import (
	"testing"

	"upkit/internal/events"
	"upkit/internal/platform"
)

// Lifecycle-event tests: the device's event log must tell the full,
// correctly ordered story of an update — the operator-facing record.

func TestEventSequenceForSuccessfulUpdate(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Seed: "events-ok"})
	if err := b.PublishVersion(2, MakeFirmware("ev-v2", fwSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PullUpdate(); err != nil {
		t.Fatal(err)
	}

	// Expected order for the OTA update (after the factory boot).
	wantOrder := []events.Kind{
		events.KindTokenIssued,
		events.KindManifestAccepted,
		events.KindFirmwareVerified,
		events.KindUpdateStaged,
		events.KindRebooted,
		events.KindBootVerified,
		events.KindInstalled,
	}
	log := b.Device.Events.Events()
	idx := 0
	for _, e := range log {
		if idx < len(wantOrder) && e.Kind == wantOrder[idx] {
			idx++
		}
	}
	if idx != len(wantOrder) {
		t.Fatalf("event order incomplete: matched %d of %d\n%s",
			idx, len(wantOrder), b.Device.Events)
	}
	// Timestamps are non-decreasing.
	var prev int64
	for _, e := range log {
		if int64(e.At) < prev {
			t.Fatalf("timestamps regressed:\n%s", b.Device.Events)
		}
		prev = int64(e.At)
	}
}

func TestEventSequenceForRejectedManifest(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Push, Seed: "events-rej"})
	if err := b.PublishVersion(2, MakeFirmware("ev-v2", fwSize)); err != nil {
		t.Fatal(err)
	}
	phone := b.Smartphone()
	phone.TamperManifest = func(m []byte) []byte { m[20] ^= 1; return m }
	if err := phone.PushUpdate(); err == nil {
		t.Fatal("tampered manifest accepted")
	}

	rej, ok := lastEvent(b.Device.Events, events.KindManifestRejected)
	if !ok {
		t.Fatalf("no manifest-rejected event:\n%s", b.Device.Events)
	}
	if rej.Detail == "" {
		t.Fatal("rejection event missing the reason")
	}
	// Early rejection: no firmware event, no staging, and no extra
	// reboot beyond the factory one.
	if b.Device.Events.Count(events.KindFirmwareVerified) != 0 {
		t.Fatal("firmware event recorded for a rejected manifest")
	}
	if b.Device.Events.Count(events.KindUpdateStaged) != 0 {
		t.Fatal("staged event recorded for a rejected manifest")
	}
	if got := b.Device.Events.Count(events.KindRebooted); got != 1 {
		t.Fatalf("reboots in log = %d, want 1 (factory only)", got)
	}
}

func TestEventSequenceForRejectedFirmware(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Push, Seed: "events-fw"})
	if err := b.PublishVersion(2, MakeFirmware("ev-v2", fwSize)); err != nil {
		t.Fatal(err)
	}
	phone := b.Smartphone()
	phone.TamperPayload = func(p []byte) []byte { p[100] ^= 1; return p }
	if err := phone.PushUpdate(); err == nil {
		t.Fatal("tampered firmware accepted")
	}
	if _, ok := lastEvent(b.Device.Events, events.KindFirmwareRejected); !ok {
		t.Fatalf("no firmware-rejected event:\n%s", b.Device.Events)
	}
	if b.Device.Events.Count(events.KindManifestAccepted) != 1 {
		t.Fatal("manifest should have been accepted before the firmware failed")
	}
}

func TestSwapResumedEventAfterPowerLoss(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Push, Seed: "events-resume"})
	if err := b.PublishVersion(2, MakeFirmware("ev-v2", fwSize)); err != nil {
		t.Fatal(err)
	}
	if err := b.Smartphone().PushUpdate(); err != nil {
		t.Fatal(err)
	}
	// Power fails during the install swap; the next boot resumes it.
	b.Device.Internal.FailAfter(120)
	if _, err := b.Device.ApplyStagedUpdate(); err == nil {
		t.Fatal("expected power loss during install")
	}
	b.Device.Internal.ClearFault()
	if _, err := b.Device.Reboot(); err != nil {
		t.Fatal(err)
	}
	if _, ok := lastEvent(b.Device.Events, events.KindSwapResumed); !ok {
		t.Fatalf("no swap-resumed event:\n%s", b.Device.Events)
	}
}

// lastEvent returns the most recent retained event of kind, or ok=false.
func lastEvent(l *events.Log, kind events.Kind) (ev events.Event, ok bool) {
	for _, e := range l.Events() {
		if e.Kind == kind {
			ev, ok = e, true
		}
	}
	return ev, ok
}
