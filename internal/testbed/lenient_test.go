package testbed

import (
	"bytes"
	"errors"
	"testing"

	"upkit/internal/bootloader"
	"upkit/internal/platform"
	"upkit/internal/slot"
)

// The bootloader's lenient path (verifier.VerifyConfirmedForBoot)
// forgives a key's lifecycle for images that already ran — a confirmed
// boot-slot image, and the factory recovery image — but never a
// signature that does not verify. Each test forges the stored manifest
// in flash and asserts that the image does not boot.

// breakSignature flips one byte of the vendor or the server signature
// in the manifest stored in s.
func breakSignature(t *testing.T, s *slot.Slot, reason string) {
	t.Helper()
	m, err := s.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sig := m.VendorSig[:]
	if reason == "server-sig" {
		sig = m.ServerSig[:]
	}
	at := bytes.Index(enc, sig)
	if at < 0 {
		t.Fatal("signature not found in the encoded manifest")
	}
	r := s.Region()
	if err := r.Mem.Corrupt(r.Offset+at+len(sig)/2, 0x01); err != nil {
		t.Fatal(err)
	}
}

func TestBootloaderRejectsConfirmedImageWithBadSignature(t *testing.T) {
	for _, reason := range []string{"vendor-sig", "server-sig"} {
		t.Run(reason, func(t *testing.T) {
			b, err := New(Options{
				Approach:  platform.Pull,
				Mode:      bootloader.ModeStatic,
				SlotBytes: 96 * 1024,
				Seed:      "lenient-" + reason,
			}, MakeFirmware("lenient-v1", 32*1024))
			if err != nil {
				t.Fatal(err)
			}
			// One static update, so that the boot slot holds an image
			// the safe swap moved there, and has confirmed it.
			if err := b.PublishVersion(2, MakeFirmware("lenient-v2", 32*1024)); err != nil {
				t.Fatal(err)
			}
			if res, err := b.PullUpdate(); err != nil || res.Version != 2 {
				t.Fatalf("update to v2: %+v, %v", res, err)
			}
			if st, err := b.Device.SlotA.State(); err != nil || st != slot.StateConfirmed {
				t.Fatalf("boot slot state %v, %v; want Confirmed", st, err)
			}
			before := rejectCount(b, "bootloader", reason)
			breakSignature(t, b.Device.SlotA, reason)
			res, err := b.Device.Reboot()
			if !errors.Is(err, bootloader.ErrNoBootableImage) {
				t.Fatalf("confirmed image with a broken %s booted: %+v, %v", reason, res, err)
			}
			if got := rejectCount(b, "bootloader", reason); got <= before {
				t.Fatalf("upkit_reject_total{bootloader,%s} = %d, want more than %d", reason, got, before)
			}
		})
	}
}

func TestBootloaderRejectsRecoveryImageWithBadSignature(t *testing.T) {
	for _, reason := range []string{"vendor-sig", "server-sig"} {
		t.Run(reason, func(t *testing.T) {
			b := newRecoveryBed(t)
			// Both regular slots ruined: only the recovery image, checked
			// leniently, stands between the device and no boot.
			for _, s := range []*slot.Slot{b.Device.SlotA, b.Device.SlotB} {
				if err := s.Region().Mem.Corrupt(s.Region().Offset+1000, 0xFF); err != nil {
					t.Fatal(err)
				}
			}
			before := rejectCount(b, "bootloader", reason)
			breakSignature(t, b.Device.Recovery, reason)
			res, err := b.Device.Reboot()
			if !errors.Is(err, bootloader.ErrNoBootableImage) {
				t.Fatalf("recovery image with a broken %s booted: %+v, %v", reason, res, err)
			}
			if got := rejectCount(b, "bootloader", reason); got <= before {
				t.Fatalf("upkit_reject_total{bootloader,%s} = %d, want more than %d", reason, got, before)
			}
		})
	}
}
