package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"upkit/internal/bootloader"
	"upkit/internal/updateserver"
)

// defaultSeconds is the --seconds the workload sizes below are tuned
// for (BENCHMARK.json's run_seconds). Each workload does a fixed amount
// of work per run — so memory, sample counts and the exact counters do
// not depend on how fast the program is — sized to take most of this
// budget on the reference 2-core sandbox; the budget itself only cuts a
// run short on a slower machine or program.
const defaultSeconds = 15

// workload is one named input set.
type workload struct {
	name string
	why  string // one line; also BENCHMARK.json's "why"
	// fleet is set for the three fleet workloads, nil for prepare-churn.
	fleet *fleetSpec
	churn *churnSpec
}

// workloads lists the four workloads. The names are fixed: later issues
// refer to them.
var workloads = []workload{
	{
		name: "fleet-diff-small",
		why:  "tiny differential payload (32 KiB image, one 1000-byte edit), so per-update fixed cost dominates: bootloader validate + SafeSwap, ECDSA verifies, one server signature; also the memory workload",
		fleet: &fleetSpec{devices: 1000, imageKiB: 32, sites: 1, bytesPerSite: 1000,
			differential: true, mode: bootloader.ModeStatic, rounds: 6},
	},
	{
		name: "fleet-full-proxy",
		why:  "full 128 KiB image in 64-byte blocks through one caching proxy, so per-block cost dominates: CoAP codec, link accounting, proxy hit path, full-image pipeline; origin and diff codecs idle",
		fleet: &fleetSpec{devices: 400, imageKiB: 128, sites: 1, bytesPerSite: 1000,
			mode: bootloader.ModeStatic, proxy: true, rounds: 5},
	},
	{
		name: "fleet-diff-enc-ab",
		why:  "29 KB encrypted differential patch, A/B boot, direct to origin: all four pipeline stages run, the bootloader never swaps, the origin encrypts per device; guards the paths the other fleets skip",
		fleet: &fleetSpec{devices: 400, imageKiB: 128, sites: 400, bytesPerSite: 60,
			differential: true, encrypted: true, mode: bootloader.ModeAB, rounds: 12},
	},
	{
		name:  "prepare-churn",
		why:   "no devices: 2 clients call PrepareUpdate over 32 bases of a 96 KiB app on durable stores while every 2000th operation publishes; warm path at p50, cold bsdiff in the tail, writes beside reads",
		churn: &churnSpec{imageKiB: 96, editBytes: 512, versions: 33, bases: 32, opsPerPublish: 2000, ops: 20000},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig selects and sizes one run.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	// traceOut, when set in a traced run, is the file spans are written
	// to (JSON lines).
	traceOut string
	// dir is where a workload keeps on-disk state; it is created and
	// removed by the caller.
	dir string
	// probes runs the layer probes after a traced run.
	probes bool
}

// runResult is what one run of one workload measured.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // first few, for the reader
	// Metrics holds every metric the run measured, end-to-end and
	// per-layer, by name.
	Metrics map[string]float64 `json:"metrics"`
	// SamplesMs are the per-operation latencies of each untraced segment
	// (round, or publish epoch); the orchestrator pools them across reps.
	SamplesMs [][]float64 `json:"samples_ms"`
	// Exact holds, per completed segment (round or publish epoch), the
	// counts that must repeat exactly for the same seed.
	Exact []map[string]float64 `json:"exact"`
	// Spans is the traced run's per-kind totals.
	Spans *analysis `json:"spans,omitempty"`
}

const maxFailuresKept = 16

func (r *runResult) fail(n int, msgs ...string) {
	r.Failed += n
	for _, m := range msgs {
		if len(r.Failures) < maxFailuresKept {
			r.Failures = append(r.Failures, m)
		}
	}
}

// scaled sizes a workload's fixed work to the --seconds budget.
func scaled(n int, seconds float64) int {
	return max(1, int(math.Round(float64(n)*seconds/defaultSeconds)))
}

// percentile returns the p-th percentile (0 < p ≤ 1) of sorted samples
// by the nearest-rank method.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailMs is the gated tail metric: per segment (round, or publish
// epoch) the mean latency of the slowest tenth of its operations, and
// over the segments the median. It stands in for p99: in the fleet
// workloads about 1 % of updates are disturbed (a GC cycle, a diff
// wait), so the 99th percentile sits on the cliff between the two modes
// and flips between them from run to run whatever the run length. The
// mean over the slowest tenth moves with both how many operations are
// slow and how slow they are; the median over segments keeps the one
// round a GC cycle lands in from deciding the run's figure.
func tailMs(segments [][]float64) float64 {
	var tails []float64
	for _, seg := range segments {
		sorted := append([]float64(nil), seg...)
		sort.Float64s(sorted)
		tails = append(tails, mean(sorted[len(sorted)-(len(sorted)+9)/10:]))
	}
	return median(tails)
}

// latencyMetrics fills the three latency figures from per-segment
// samples.
func latencyMetrics(m map[string]float64, segments [][]float64) {
	var pooled []float64
	for _, seg := range segments {
		pooled = append(pooled, seg...)
	}
	sort.Float64s(pooled)
	m["update_p50_ms"] = percentile(pooled, 0.50)
	m["update_p99_ms"] = percentile(pooled, 0.99)
	m["update_tail_ms"] = tailMs(segments)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runFleet runs one fleet workload: set-up, then rounds until the
// workload's fixed work is done or the --seconds budget is spent.
func runFleet(w workload, cfg runConfig) (*runResult, error) {
	spec := *w.fleet
	res := &runResult{Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, Metrics: map[string]float64{}}
	var tr *tracer
	if cfg.traced {
		tr = newTracer(w.name)
	}
	f, err := buildFleet(w.name, spec, cfg.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer f.update.Close()

	rounds := scaled(spec.rounds, cfg.seconds)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var (
		all, on, off fleetRound // sums over all / traced / untraced rounds
		fails        []string
		untracedMs   float64 // Σ latency of untraced updates
	)
	for r := 0; r < rounds && all.Wall < budget; r++ {
		// Odd rounds of a traced run record spans; even rounds are its
		// untraced reference.
		traced := cfg.traced && r%2 == 1
		round, samples, err := f.runRound(traced, &fails)
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", w.name, r+1, err)
		}
		if !traced {
			res.SamplesMs = append(res.SamplesMs, samples)
			untracedMs += float64(round.Busy) / 1e6
		}
		part := &off
		if traced {
			part = &on
		}
		for _, sum := range []*fleetRound{&all, part} {
			sum.Wall += round.Wall
			sum.Busy += round.Busy
			sum.Updated += round.Updated
			sum.Counters = sum.Counters.add(round.Counters)
		}
		res.Attempted += spec.devices
		n := float64(spec.devices)
		c := round.Counters
		res.Exact = append(res.Exact, map[string]float64{
			"device.virtual_s_per_update": c.Virtual.Seconds() / n,
			"origin_egress_b_per_update":  float64(c.Egress) / n,
			"coap.exchanges_per_update":   float64(c.Exchanges) / n,
			"flash.written_b_per_update":  float64(c.FlashWritten) / n,
			"flash.erases_per_update":     float64(c.FlashErases) / n,
			"transport.link_b_per_update": float64(c.LinkBytes) / n,
		})
	}
	res.fail(res.Attempted-all.Updated, fails...)
	f.invariants(res, f.round)

	// End-to-end.
	m := res.Metrics
	updates := float64(all.Updated)
	m["updates_per_s"] = ratio(float64(off.Updated), off.Wall.Seconds())
	latencyMetrics(m, res.SamplesMs)
	m["origin_egress_b_per_update"] = ratio(float64(all.Counters.Egress), updates)
	m["installed_mb_per_s"] = m["updates_per_s"] * float64(spec.imageKiB*1024) / 1e6
	m["setup_s"] = f.setup.Seconds()
	m["peak_rss_mb"] = peakRSSMB()

	// Per-layer, from the layers' own counters.
	c := all.Counters
	m["device.virtual_s_per_update"] = ratio(c.Virtual.Seconds(), updates)
	m["fleet.idle_frac"] = 1 - ratio(all.Busy.Seconds(), fleetWorkers*all.Wall.Seconds())
	m["coap.exchanges_per_update"] = ratio(float64(c.Exchanges), updates)
	m["coap.origin_requests_per_update"] = ratio(float64(c.OriginReqs), updates)
	m["coap.retransmissions"] = float64(c.Retransmits)
	m["transport.link_b_per_update"] = ratio(float64(c.LinkBytes), updates)
	m["transport.goodput_frac"] = ratio(c.PayloadBytes, float64(c.LinkBytes))
	m["flash.written_b_per_update"] = ratio(float64(c.FlashWritten), updates)
	m["flash.erases_per_update"] = ratio(float64(c.FlashErases), updates)
	m["flash.write_amp"] = ratio(float64(c.FlashWritten), updates*float64(spec.imageKiB*1024))
	m["device.heap_kb"] = f.heapPerDev / 1024
	m["device.build_ms"] = float64(f.buildPerDev) / 1e6
	serverMetrics(m, f.update)
	h := f.update.Telemetry().Histogram("upkit_server_prepare_seconds", "", nil)
	m["updateserver.prepare_us"] = ratio(h.Sum(), float64(h.Count())) * 1e6
	m["updateserver.publish_ms"] = median(f.publishMs)
	m["vendorserver.build_ms"] = median(f.buildMs)
	if f.cache != nil {
		ps := f.cache.Stats()
		m["proxy.hit_ratio"] = ratio(float64(ps.Hits), float64(ps.Hits+ps.Misses+ps.Waits))
		m["proxy.fills"] = float64(ps.Fills)
	}

	if cfg.traced {
		a := tr.analyse(spUpdate)
		res.Spans = &a
		if err := tr.checkParentage(); err != nil {
			res.fail(1, err.Error())
		}
		if a.Orphans > 0 {
			res.fail(1, fmt.Sprintf("%d shared spans found no parent", a.Orphans))
		}
		spanMetrics(m, a, float64(on.Updated))
		// Traced against untraced rounds of this same process.
		m["trace.overhead_frac"] = 1 - ratio(ratio(float64(on.Updated), on.Wall.Seconds()), m["updates_per_s"])
		m["trace.closure_frac"] = ratio(ratio(a.SelfNs, float64(a.Traces)), ratio(untracedMs, float64(off.Updated))*1e6)
		if cfg.traceOut != "" {
			if err := tr.write(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}

// spanMetrics turns span totals into the per-layer timings. perUpdate
// metrics divide by the traced updates.
func spanMetrics(m map[string]float64, a analysis, tracedOps float64) {
	k := a.Kinds
	ex, origin, px := k[spanNames[spExchange]], k[spanNames[spOrigin]], k[spanNames[spProxy]]
	m["coap.exchange_self_us"] = ratio(ex.SelfNs, float64(ex.Count)) / 1e3
	m["coap.origin_handle_us"] = ratio(origin.SelfNs, float64(origin.Count)) / 1e3
	m["proxy.handle_self_us"] = ratio(px.SelfNs, float64(px.Count)) / 1e3
	m["agent.receive_self_ms"] = ratio(k[spanNames[spCheck]].SelfNs, tracedOps) / 1e6
	m["bootloader.apply_ms"] = ratio(k[spanNames[spApply]].DurNs, tracedOps) / 1e6
}

// serverMetrics reads the counters the update server and its block
// registries keep themselves.
func serverMetrics(m map[string]float64, s *updateserver.Server) {
	st := s.Stats()
	m["updateserver.diff_computations"] = float64(st.Computations)
	m["updateserver.patch_hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses+st.Waits))
	m["updateserver.patch_waits"] = float64(st.Waits)
	m["updateserver.disk_hits"] = float64(st.DiskHits)
	shared := s.Blocks().Stats()
	m["dist.shared_hit_ratio"] = ratio(float64(shared.Hits), float64(shared.Hits+shared.Misses))
	m["dist.private_evictions"] = float64(s.PrivateBlocks().Stats().Evictions)
}

// invariants checks the counts that must come out exactly.
func (f *fleetRun) invariants(res *runResult, rounds int) {
	if f.spec.differential {
		if got := f.update.Stats().Computations; got != uint64(rounds) {
			res.fail(1, fmt.Sprintf("updateserver computed %d diffs, want one per round (%d)", got, rounds))
		}
	}
	if f.cache != nil {
		// Every round's image is one name of imageKiB canonical 1 KiB
		// chunks; each is fetched from the origin exactly once.
		ps := f.cache.Stats()
		chunks := uint64(rounds * f.spec.imageKiB)
		if ps.Fills != chunks || ps.Misses < chunks {
			res.fail(1, fmt.Sprintf("proxy filled %d chunks with %d misses, want %d distinct chunks", ps.Fills, ps.Misses, chunks))
		}
	}
}
