package fleet_test

import (
	"fmt"
	"testing"

	"upkit/internal/fleet"
	"upkit/internal/platform"
	"upkit/internal/security"
	"upkit/internal/testbed"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
)

// buildSharedFleet wires n simulated devices against ONE update server
// — the deployment shape of a real campaign, where every device's
// request lands on the same Internet-facing endpoint and its patch
// cache. All devices start on v1; v2 (a localized ~1 kB change, so the
// differential path is taken) is already published.
func buildSharedFleet(tb testing.TB, n int, opts ...updateserver.Option) ([]*bedUpdater, *updateserver.Server) {
	tb.Helper()
	suite, err := security.SuiteByName("tinycrypt", nil)
	if err != nil {
		tb.Fatal(err)
	}
	vendor := vendorserver.New(suite, security.MustGenerateKey("fleet-shared-vendor"))
	update := updateserver.New(suite, security.MustGenerateKey("fleet-shared-server"), opts...)

	v1 := testbed.MakeFirmware("fleet-shared-v1", 32*1024)
	v2 := testbed.DeriveAppChange(v1, 1000)
	out := make([]*bedUpdater, n)
	for i := range out {
		id := uint32(0xA000 + i)
		bed, err := testbed.New(testbed.Options{
			Approach:     platform.Pull,
			Differential: true,
			DeviceID:     id,
			Seed:         fmt.Sprintf("fleet-shared-%d", i),
			SharedVendor: vendor,
			SharedUpdate: update,
		}, v1)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = &bedUpdater{bed: bed, id: id}
	}
	if err := out[0].bed.PublishVersion(2, v2); err != nil {
		tb.Fatal(err)
	}
	return out, update
}

// TestCampaignSharedServerComputesOneDiff is the many-devices-one-
// release scenario: a whole fleet updating across the same version
// pair must cost the server exactly one diff computation, not one per
// device.
func TestCampaignSharedServerComputesOneDiff(t *testing.T) {
	const n = 12
	devs, update := buildSharedFleet(t, n)
	c, err := fleet.New(2, fleet.Policy{Parallelism: 6}, asUpdaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if updated, failed, skipped, pending := report.Updated, report.Failed, report.Skipped, report.Pending; updated != n || failed != 0 || skipped != 0 || pending != 0 {
		t.Fatalf("counts = %d/%d/%d/%d\n%s", updated, failed, skipped, pending, report.Render())
	}
	for _, d := range devs {
		if d.Version() != 2 {
			t.Fatalf("device %#x on v%d", d.id, d.Version())
		}
	}

	st := update.Stats()
	if st.Computations != 1 {
		t.Fatalf("diff computations = %d for a %d-device campaign on one pair, want 1\nstats: %+v",
			st.Computations, n, st)
	}
	if st.Hits+st.Waits != n-1 {
		t.Fatalf("hits+waits = %d+%d, want %d", st.Hits, st.Waits, n-1)
	}
}

// BenchmarkCampaignSharedServer is the many-devices-one-release
// benchmark: per iteration, a fresh 8-device fleet on one shared
// update server rolls to v2. With the cache the campaign costs one
// diff computation; the reported "diffs/campaign" metric is the
// regression guard (the uncached variant pays one per device).
func BenchmarkCampaignSharedServer(b *testing.B) {
	benchCampaign(b, true)
}

// BenchmarkCampaignSharedServerUncached is the same campaign with the
// patch cache disabled — the pre-cache behaviour, for comparison.
func BenchmarkCampaignSharedServerUncached(b *testing.B) {
	benchCampaign(b, false)
}

func benchCampaign(b *testing.B, cached bool) {
	b.Helper()
	const n = 8
	var diffs, requests uint64
	for b.Loop() {
		b.StopTimer()
		var opts []updateserver.Option
		if !cached {
			opts = append(opts, updateserver.WithPatchCacheSize(0))
		}
		devs, update := buildSharedFleet(b, n, opts...)
		c, err := fleet.New(2, fleet.Policy{Parallelism: 4}, asUpdaters(devs))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		report, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		if updated, _, _, _ := report.Updated, report.Failed, report.Skipped, report.Pending; updated != n {
			b.Fatalf("updated = %d, want %d", updated, n)
		}
		st := update.Stats()
		diffs += st.Computations
		requests += st.Computations + st.Hits + st.Waits
	}
	b.ReportMetric(float64(diffs)/float64(b.N), "diffs/campaign")
	b.ReportMetric(float64(requests)/float64(b.N), "diff-requests/campaign")
}
