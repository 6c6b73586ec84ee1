package experiments

import (
	"fmt"

	"upkit/internal/manifest"
	"upkit/internal/security"
	"upkit/internal/testbed"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
)

// AblationPatchCache measures what the update server's differential-
// patch cache buys in the many-devices-one-release scenario: a fleet
// of devices on the same version pair requesting updates against one
// server. Uncached, every request pays the full bsdiff+LZSS cost;
// cached, the first request computes and the rest are memory reads
// (concurrent first requests are deduplicated by singleflight — see
// internal/updateserver/concurrency_test.go for that invariant).
//
// It reports counts only, so that the table is deterministic: the
// host-time side of the cache is the bench's prepare-churn workload and
// its prepare_warm_us probe.
func AblationPatchCache() (*Table, error) {
	const requests = 12
	const imageKiB = 64
	t := &Table{
		ID:      "ablation-cache",
		Title:   fmt.Sprintf("Differential-patch cache: %d devices, one release pair (%d KiB image, ~1 kB change)", requests, imageKiB),
		Columns: []string{"Server", "Requests", "Diff computations", "Cache hits"},
	}
	suite, err := security.SuiteByName("tinycrypt", nil)
	if err != nil {
		return nil, err
	}
	v1 := testbed.MakeFirmware("cache-exp-v1", imageKiB*1024)
	v2 := testbed.DeriveAppChange(v1, 1000)

	for _, mode := range []string{"uncached", "cached"} {
		vendor := vendorserver.New(suite, security.MustGenerateKey("cache-exp-vendor"))
		var serverOpts []updateserver.Option
		if mode == "uncached" {
			serverOpts = append(serverOpts, updateserver.WithPatchCacheSize(0))
		}
		update := updateserver.New(suite, security.MustGenerateKey("cache-exp-server"), serverOpts...)
		for v, fw := range [][]byte{v1, v2} {
			img, err := vendor.BuildImage(vendorserver.Release{
				AppID: 0x2A, Version: uint16(v + 1), LinkOffset: 0xFFFFFFFF, Firmware: fw,
			})
			if err != nil {
				return nil, err
			}
			if err := update.Publish(img); err != nil {
				return nil, err
			}
		}
		for r := range requests {
			tok := manifest.DeviceToken{
				DeviceID:       uint32(0xCA00 + r),
				Nonce:          uint32(1000 + r),
				CurrentVersion: 1,
			}
			u, err := update.PrepareUpdate(0x2A, tok)
			if err != nil {
				return nil, fmt.Errorf("cache %s request %d: %w", mode, r, err)
			}
			if !u.Differential {
				return nil, fmt.Errorf("cache %s request %d: expected a differential update", mode, r)
			}
		}
		st := update.Stats()
		t.AddRow(mode, requests, st.Computations, st.Hits)
	}
	t.Notes = append(t.Notes,
		"counters are served live at GET /api/v1/stats on the HTTP API")
	return t, nil
}
