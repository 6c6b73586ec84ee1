package upkit_test

import (
	"strconv"
	"sync/atomic"
	"testing"

	"upkit"
)

// Each benchmark regenerates one table or figure of the paper's
// evaluation (§VI). The interesting output is not ns/op — the
// simulations run in virtual time — but the reproduced values, which
// are attached as custom metrics where they are scalar, and printed by
// cmd/upkit-bench in full.

func benchExperiment(b *testing.B, id string) *upkit.ExperimentTable {
	b.Helper()
	var tab *upkit.ExperimentTable
	var err error
	for range b.N {
		tab, err = upkit.RunExperiment(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// metric parses a numeric table cell for ReportMetric.
func metric(b *testing.B, tab *upkit.ExperimentTable, row, col int) float64 {
	b.Helper()
	s := tab.Rows[row][col]
	if n := len(s); n > 0 && s[n-1] == '%' {
		s = s[:n-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

// BenchmarkTable1BootloaderFootprint regenerates Table I.
func BenchmarkTable1BootloaderFootprint(b *testing.B) {
	tab := benchExperiment(b, "table1")
	b.ReportMetric(metric(b, tab, 0, 2), "zephyr+tinydtls_flash_B")
	b.ReportMetric(metric(b, tab, 0, 3), "zephyr+tinydtls_ram_B")
}

// BenchmarkTable2AgentFootprint regenerates Table II.
func BenchmarkTable2AgentFootprint(b *testing.B) {
	tab := benchExperiment(b, "table2")
	b.ReportMetric(metric(b, tab, 0, 2), "pull_zephyr_flash_B")
	b.ReportMetric(metric(b, tab, 3, 2), "push_zephyr_flash_B")
}

// BenchmarkFig7aBootloaderVsMCUBoot regenerates Fig. 7a.
func BenchmarkFig7aBootloaderVsMCUBoot(b *testing.B) {
	tab := benchExperiment(b, "fig7a")
	b.ReportMetric(metric(b, tab, 2, 1), "flash_delta_B")
	b.ReportMetric(metric(b, tab, 2, 2), "ram_delta_B")
}

// BenchmarkFig7bAgentVsLwM2M regenerates Fig. 7b.
func BenchmarkFig7bAgentVsLwM2M(b *testing.B) {
	tab := benchExperiment(b, "fig7b")
	b.ReportMetric(metric(b, tab, 2, 1), "flash_delta_B")
	b.ReportMetric(metric(b, tab, 2, 2), "ram_delta_B")
}

// BenchmarkFig7cAgentVsMCUMgr regenerates Fig. 7c.
func BenchmarkFig7cAgentVsMCUMgr(b *testing.B) {
	tab := benchExperiment(b, "fig7c")
	b.ReportMetric(metric(b, tab, 2, 1), "flash_delta_B")
	b.ReportMetric(metric(b, tab, 2, 2), "ram_delta_B")
}

// BenchmarkFig8aPushVsPull regenerates Fig. 8a (full phase breakdown).
func BenchmarkFig8aPushVsPull(b *testing.B) {
	tab := benchExperiment(b, "fig8a")
	b.ReportMetric(metric(b, tab, 0, 4), "push_total_s")
	b.ReportMetric(metric(b, tab, 1, 4), "pull_total_s")
	b.ReportMetric(metric(b, tab, 0, 1), "push_propagation_s")
	b.ReportMetric(metric(b, tab, 1, 3), "pull_loading_s")
}

// BenchmarkFig8bDifferential regenerates Fig. 8b.
func BenchmarkFig8bDifferential(b *testing.B) {
	tab := benchExperiment(b, "fig8b")
	b.ReportMetric(metric(b, tab, 1, 3), "os_change_reduction_pct")
	b.ReportMetric(metric(b, tab, 2, 3), "app_change_reduction_pct")
}

// BenchmarkFig8cABUpdates regenerates Fig. 8c.
func BenchmarkFig8cABUpdates(b *testing.B) {
	tab := benchExperiment(b, "fig8c")
	b.ReportMetric(metric(b, tab, 0, 1), "static_loading_s")
	b.ReportMetric(metric(b, tab, 1, 1), "ab_loading_s")
	b.ReportMetric(metric(b, tab, 1, 2), "reduction_pct")
}

// BenchmarkAblationEarlyReject quantifies UpKit's early rejection
// against mcumgr+mcuboot.
func BenchmarkAblationEarlyReject(b *testing.B) {
	tab := benchExperiment(b, "ablation-early-reject")
	b.ReportMetric(metric(b, tab, 2, 2), "upkit_replay_cost_s")
	b.ReportMetric(metric(b, tab, 3, 2), "baseline_replay_cost_s")
}

// BenchmarkAblationFreshness runs the attack matrix.
func BenchmarkAblationFreshness(b *testing.B) {
	benchExperiment(b, "ablation-freshness")
}

// BenchmarkAblationBufferSize sweeps the pipeline buffer stage.
func BenchmarkAblationBufferSize(b *testing.B) {
	tab := benchExperiment(b, "ablation-buffer")
	b.ReportMetric(metric(b, tab, 0, 1), "64B_buffer_page_programs")
	b.ReportMetric(metric(b, tab, 3, 1), "4096B_buffer_page_programs")
}

// BenchmarkAblationDoubleSignature runs the key-compromise analysis.
func BenchmarkAblationDoubleSignature(b *testing.B) {
	benchExperiment(b, "ablation-signature")
}

// BenchmarkAblationFlashWear compares static vs A/B sector wear.
func BenchmarkAblationFlashWear(b *testing.B) {
	tab := benchExperiment(b, "ablation-wear")
	b.ReportMetric(metric(b, tab, 0, 2), "static_erases_per_update")
	b.ReportMetric(metric(b, tab, 1, 2), "ab_erases_per_update")
}

// BenchmarkAblationConfidentiality measures the encrypted-payload cost.
func BenchmarkAblationConfidentiality(b *testing.B) {
	tab := benchExperiment(b, "ablation-confidentiality")
	b.ReportMetric(metric(b, tab, 1, 3)-metric(b, tab, 0, 3), "full_image_overhead_s")
}

// BenchmarkAblationPatchCache counts the diff computations the update
// server's differential-patch cache saves in the many-devices-one-release
// scenario.
func BenchmarkAblationPatchCache(b *testing.B) {
	tab := benchExperiment(b, "ablation-cache")
	b.ReportMetric(metric(b, tab, 0, 2), "uncached_diffs")
	b.ReportMetric(metric(b, tab, 1, 2), "cached_diffs")
}

// BenchmarkAblationLossyLink sweeps frame loss vs update time.
func BenchmarkAblationLossyLink(b *testing.B) {
	tab := benchExperiment(b, "ablation-loss")
	b.ReportMetric(metric(b, tab, 0, 1), "perfect_link_s")
	b.ReportMetric(metric(b, tab, 2, 1), "loss3pct_s")
}

// BenchmarkPortability reports the platform-independent code shares.
func BenchmarkPortability(b *testing.B) {
	benchExperiment(b, "portability")
}

// BenchmarkPrepareUpdateParallel measures the update server's request
// hot path under many concurrent devices (real CPU time). With the
// patch warmed into the cache, every request is a store lookup plus a
// per-request ECDSA signature under a store read lock, so throughput
// should scale with cores; run with -cpu 1,2,4 to see it.
func BenchmarkPrepareUpdateParallel(b *testing.B) {
	b.Run("inline-signing", func(b *testing.B) {
		benchPrepareParallel(b)
	})
	b.Run("signer-pool", func(b *testing.B) {
		benchPrepareParallel(b, upkit.WithSigners(0)) // GOMAXPROCS workers
	})
}

func benchPrepareParallel(b *testing.B, opts ...upkit.UpdateServerOption) {
	suite := upkit.NewTinyCrypt()
	vendor := upkit.NewVendorServer(suite, upkit.MustGenerateKey("bench-vendor"))
	server := upkit.NewUpdateServer(suite, upkit.MustGenerateKey("bench-server"), opts...)
	defer server.Close()

	v1 := upkit.MakeFirmware("bench-base", 64*1024)
	v2 := upkit.DeriveAppChange(v1, 1000)
	for v, fw := range map[uint16][]byte{1: v1, 2: v2} {
		img, err := vendor.BuildImage(upkit.Release{
			AppID: 1, Version: v, LinkOffset: 0xFFFFFFFF, Firmware: fw,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := server.Publish(img); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the 1→2 patch so the loop measures the steady state, not one
	// bsdiff computation.
	if _, err := server.PrepareUpdate(1, upkit.DeviceToken{DeviceID: 1, Nonce: 1, CurrentVersion: 1}); err != nil {
		b.Fatal(err)
	}

	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := next.Add(1)
			tok := upkit.DeviceToken{
				DeviceID:       uint32(0x1000 + n),
				Nonce:          uint32(n),
				CurrentVersion: 1,
			}
			u, err := server.PrepareUpdate(1, tok)
			if err != nil {
				b.Fatal(err)
			}
			if u.Manifest.Version != 2 {
				b.Fatalf("served v%d, want v2", u.Manifest.Version)
			}
		}
	})
}
