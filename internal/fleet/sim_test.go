package fleet

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// goroutinePeak records the process goroutine high-water mark, sampled
// from inside device updates while the worker pool is busy.
type goroutinePeak struct {
	seen atomic.Int64
	max  atomic.Int64
}

func (g *goroutinePeak) sample() {
	// Every update early on (to catch the pool spinning up), then every
	// 64th so megafleet runs don't spend their time counting goroutines.
	if n := g.seen.Add(1); n > 64 && n%64 != 0 {
		return
	}
	cur := int64(runtime.NumGoroutine())
	for {
		m := g.max.Load()
		if cur <= m || g.max.CompareAndSwap(m, cur) {
			return
		}
	}
}

// simDevice is the engine-scale fake Updater: a few bytes of state and
// no update work, so the campaign engine — scheduling, aggregation,
// breaker — runs at 100k–1M devices, far past what full testbed stacks
// fit in memory. Every update samples the goroutine count.
type simDevice struct {
	id      uint32
	version uint16
	peak    *goroutinePeak
}

func (d *simDevice) ID() uint32      { return d.id }
func (d *simDevice) Version() uint16 { return d.version }

func (d *simDevice) TryUpdate() (uint16, error) {
	d.peak.sample()
	d.version = 2
	return 2, nil
}

// simFleet wires an n-device synthetic fleet, every device on v1.
func simFleet(n int, peak *goroutinePeak) []Updater {
	ups := make([]Updater, n)
	for i := range ups {
		ups[i] = &simDevice{id: uint32(0xB000 + i), version: 1, peak: peak}
	}
	return ups
}

// runSim campaigns an n-device sim fleet to v2 and returns the report,
// the wall time and the goroutine peak.
func runSim(tb testing.TB, n, parallelism int) (*Report, time.Duration, int) {
	tb.Helper()
	peak := &goroutinePeak{}
	c, err := New(2, Policy{
		Parallelism: parallelism,
		// Per-device records would be O(fleet); counters suffice.
		MaxResults: -1,
	}, simFleet(n, peak))
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	report, err := c.Run()
	wall := time.Since(start)
	if err != nil {
		tb.Fatalf("campaign: %v", err)
	}
	if report.Updated != n {
		tb.Fatalf("updated = %d, want %d", report.Updated, n)
	}
	return report, wall, int(peak.max.Load())
}

// TestSimCampaign100kBoundedGoroutines is the engine-scale acceptance
// test: a 100k-device campaign must complete with the goroutine count
// bounded by Parallelism, not by fleet size, and with a report that is
// O(1) in fleet size (no per-device records, no errors).
func TestSimCampaign100kBoundedGoroutines(t *testing.T) {
	const (
		n           = 100_000
		parallelism = 16
	)
	base := runtime.NumGoroutine()
	report, _, peak := runSim(t, n, parallelism)
	limit := base + parallelism + 10
	if peak == 0 || peak > limit {
		t.Fatalf("goroutines peaked at %d, want in (0, %d] (base %d + parallelism %d)",
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
		_, w, peak := runSim(b, n, 16)
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
