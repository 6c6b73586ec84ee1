package fleet_test

import (
	"errors"
	"fmt"
	"testing"

	"upkit/internal/fleet"
	"upkit/internal/platform"
	"upkit/internal/testbed"
)

// bedUpdater adapts a testbed deployment to the fleet.Updater
// interface: a campaign over fully simulated UpKit devices.
type bedUpdater struct {
	bed *testbed.Bed
	id  uint32
}

func (u *bedUpdater) ID() uint32      { return u.id }
func (u *bedUpdater) Version() uint16 { return u.bed.Device.RunningVersion() }
func (u *bedUpdater) TryUpdate() (uint16, error) {
	res, err := u.bed.PullUpdate()
	if err != nil {
		return u.bed.Device.RunningVersion(), err
	}
	return res.Version, nil
}

func buildFleet(t *testing.T, n int, target uint16) []*bedUpdater {
	t.Helper()
	v1 := testbed.MakeFirmware("fleet-it-v1", 32*1024)
	v2 := testbed.MakeFirmware("fleet-it-v2", 32*1024)
	out := make([]*bedUpdater, n)
	for i := range out {
		id := uint32(0x9000 + i)
		bed, err := testbed.New(testbed.Options{
			Approach: platform.Pull,
			DeviceID: id,
			Seed:     fmt.Sprintf("fleet-it-%d", i),
		}, v1)
		if err != nil {
			t.Fatal(err)
		}
		if err := bed.PublishVersion(target, v2); err != nil {
			t.Fatal(err)
		}
		out[i] = &bedUpdater{bed: bed, id: id}
	}
	return out
}

func asUpdaters(devs []*bedUpdater) []fleet.Updater {
	out := make([]fleet.Updater, len(devs))
	for i, d := range devs {
		out[i] = d
	}
	return out
}

func TestCampaignOverSimulatedDevices(t *testing.T) {
	devs := buildFleet(t, 6, 2)
	c, err := fleet.New(2, fleet.Policy{CanaryFraction: 0.34, MaxRetries: 1, Parallelism: 3},
		asUpdaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	updated, failed, skipped := report.Updated, report.Failed, report.Skipped
	if updated != 6 || failed != 0 || skipped != 0 {
		t.Fatalf("counts = %d/%d/%d\n%s", updated, failed, skipped, report.Render())
	}
	for _, d := range devs {
		if d.Version() != 2 {
			t.Fatalf("device %#x on v%d", d.id, d.Version())
		}
	}
}

func TestCampaignGateProtectsFleetFromBadLink(t *testing.T) {
	devs := buildFleet(t, 6, 2)
	// The canary's radio is dead: the whole wave fails, the campaign
	// aborts, and the rest of the fleet keeps running v1 untouched.
	devs[0].bed.Link.SetLoss(1.0, 99)
	c, err := fleet.New(2, fleet.Policy{
		CanaryFraction:       1.0 / 6, // exactly one canary
		MaxCanaryFailureRate: 0,
		MaxRetries:           0,
	}, asUpdaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if !errors.Is(err, fleet.ErrCampaignAborted) {
		t.Fatalf("error = %v, want ErrCampaignAborted", err)
	}
	failed, skipped := report.Failed, report.Skipped
	if failed != 1 || skipped != 5 {
		t.Fatalf("failed/skipped = %d/%d, want 1/5\n%s", failed, skipped, report.Render())
	}
	for _, d := range devs[1:] {
		if d.Version() != 1 {
			t.Fatalf("device %#x was updated during an aborted campaign", d.id)
		}
	}
}

func TestCampaignRetriesThroughLossyLink(t *testing.T) {
	devs := buildFleet(t, 3, 2)
	// One device's link drops 10% of frames — CoAP retransmission plus
	// campaign retries must still get it there.
	devs[1].bed.Link.SetLoss(0.1, 1234)
	c, err := fleet.New(2, fleet.Policy{MaxRetries: 3, Parallelism: 1}, asUpdaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Updated != 3 {
		t.Fatalf("updated = %d, want 3\n%s", report.Updated, report.Render())
	}
}
