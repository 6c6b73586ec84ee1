package simdev_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"upkit/internal/fleet"
	"upkit/internal/simdev"
)

// goroutinePeak samples the process goroutine count as campaign
// results stream by, recording the high-water mark.
type goroutinePeak struct {
	mu   sync.Mutex
	seen int
	max  int
}

func (g *goroutinePeak) sample(fleet.Result) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seen++
	// Every completion early on (to catch the pool spinning up), then
	// every 64th so megafleet runs don't spend their time counting
	// goroutines.
	if g.seen <= 64 || g.seen%64 == 0 {
		g.max = max(g.max, runtime.NumGoroutine())
	}
}

// runSim campaigns an n-device sim fleet to v2 with the given pool
// sizes and returns the report, the wall time and the goroutine peak.
func runSim(tb testing.TB, n, parallelism, shards int) (*fleet.Report, time.Duration, int) {
	tb.Helper()
	peak := &goroutinePeak{}
	c, err := fleet.New(2, fleet.Policy{
		Parallelism: parallelism,
		Shards:      shards,
		// Per-device records would be O(fleet); counters suffice.
		MaxResults: -1,
		OnResult:   peak.sample,
	}, simdev.Build(n, 0, 0))
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	report, err := c.Run()
	wall := time.Since(start)
	if err != nil {
		tb.Fatalf("campaign: %v", err)
	}
	if updated, _, _, _ := report.Updated, report.Failed, report.Skipped, report.Pending; updated != n {
		tb.Fatalf("updated = %d, want %d", updated, n)
	}
	return report, wall, peak.max
}

// TestSimCampaign100kBoundedGoroutines is the engine-scale acceptance
// test: a 100k-device campaign must complete with the goroutine count
// bounded by Parallelism + O(shards), not by fleet size, and with a
// report that is O(1) in fleet size (no per-device records, no errors).
func TestSimCampaign100kBoundedGoroutines(t *testing.T) {
	const (
		n           = 100_000
		parallelism = 16
		shards      = 64
	)
	base := runtime.NumGoroutine()
	report, _, peak := runSim(t, n, parallelism, shards)
	limit := base + parallelism + shards + 10
	if peak == 0 || peak > limit {
		t.Fatalf("goroutines peaked at %d, want in (0, %d] (base %d + parallelism %d + O(shards))",
			peak, limit, base, parallelism)
	}
	if len(report.Results) != 0 || len(report.Errors) != 0 {
		t.Fatalf("report holds %d results and %d errors, want none", len(report.Results), len(report.Errors))
	}
}

// benchmarkSimCampaign measures campaign-engine throughput in
// devices/sec at a given fleet size.
func benchmarkSimCampaign(b *testing.B, n int) {
	var wall time.Duration
	var peakG, runs int
	for b.Loop() {
		_, w, peak := runSim(b, n, 16, 64)
		wall += w
		peakG = max(peakG, peak)
		runs++
	}
	if wall > 0 {
		b.ReportMetric(float64(n*runs)/wall.Seconds(), "devices/s")
		b.ReportMetric(float64(peakG), "peak-goroutines")
	}
}

func BenchmarkCampaignSim10k(b *testing.B)  { benchmarkSimCampaign(b, 10_000) }
func BenchmarkCampaignSim100k(b *testing.B) { benchmarkSimCampaign(b, 100_000) }

// BenchmarkCampaignSim1M is the megafleet mode; skipped under -short.
func BenchmarkCampaignSim1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-device campaign skipped in -short mode")
	}
	benchmarkSimCampaign(b, 1_000_000)
}
