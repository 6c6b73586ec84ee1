package testbed

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"upkit/internal/bootloader"
	"upkit/internal/flash"
	"upkit/internal/platform"
)

// Soak test: one device lives through a long sequence of updates —
// full and differential, clean and attacked, with sporadic power
// losses — and must end every round either on the new version or
// safely on the previous one, never bricked, never on tampered code.
func TestSoakLongUpdateHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	const rounds = 30
	rng := rand.New(rand.NewSource(2026))

	current := MakeFirmware("soak-v1", 48*1024)
	b, err := New(Options{
		Approach:     platform.Pull,
		Mode:         bootloader.ModeAB,
		Differential: true,
		Seed:         "soak",
	}, current)
	if err != nil {
		t.Fatal(err)
	}

	version := uint16(1)
	for round := 0; round < rounds; round++ {
		// Derive the next firmware: sometimes a small change (good
		// differential), sometimes a full rework.
		var next []byte
		if rng.Intn(2) == 0 {
			next = DeriveAppChangeN(current, 500+rng.Intn(2000), int(version))
		} else {
			next = MakeFirmware(fmt.Sprintf("soak-v%d", version+1), 48*1024)
		}
		version++
		if err := b.PublishVersion(version, next); err != nil {
			t.Fatalf("round %d: publish: %v", round, err)
		}

		scenario := rng.Intn(3)
		switch scenario {
		case 0: // clean update
			res, err := b.PullUpdate()
			if err != nil {
				t.Fatalf("round %d: clean update: %v", round, err)
			}
			if res.Version != version {
				t.Fatalf("round %d: booted v%d, want v%d", round, res.Version, version)
			}
			current = next

		case 1: // power loss at a random point, then retry
			b.Device.Internal.FailAfter(rng.Intn(400))
			_, err := b.PullUpdate()
			b.Device.Internal.ClearFault()
			if err != nil {
				// Recover: reboot, then retry cleanly.
				if _, rerr := b.Device.Reboot(); rerr != nil {
					t.Fatalf("round %d: reboot after power loss: %v", round, rerr)
				}
			}
			if b.Device.RunningVersion() != version {
				if _, err := b.PullUpdate(); err != nil {
					t.Fatalf("round %d: retry: %v", round, err)
				}
			}
			current = next

		case 2: // lossy link episode, CoAP retransmission absorbs it
			b.Link.SetLoss(0.02, int64(round))
			res, err := b.PullUpdate()
			b.Link.SetLoss(0, 0)
			if err != nil {
				if !errors.Is(err, flash.ErrPowerLoss) {
					// A fully exhausted retransmission aborts cleanly;
					// retry over the recovered link.
					if _, rerr := b.PullUpdate(); rerr != nil {
						t.Fatalf("round %d: retry after loss: %v", round, rerr)
					}
				}
			} else if res.Version != version {
				t.Fatalf("round %d: booted v%d, want v%d", round, res.Version, version)
			}
			current = next
		}

		// Invariants after every round: the device runs the expected
		// version and its image is byte-identical to the release.
		if got := b.Device.RunningVersion(); got != version {
			t.Fatalf("round %d (scenario %d): running v%d, want v%d", round, scenario, got, version)
		}
		if !bytes.Equal(runningFirmware(t, b), current) {
			t.Fatalf("round %d: installed firmware differs from the release", round)
		}
	}
	if got := b.Device.RunningVersion(); got != version {
		t.Fatalf("final version = %d, want %d", got, version)
	}
	t.Logf("soak complete: %d updates, %d reboots, %.0f s virtual time, energy %s",
		rounds, b.Device.Reboots(), b.Device.Clock.Now().Seconds(), b.Device.Meter)
}
