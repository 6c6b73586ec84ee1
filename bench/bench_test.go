package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"upkit/internal/bsdiff"
	"upkit/internal/lzss"
)

// toy shrinks a workload to smoke-test size: 8 devices × 2 rounds, or
// 200 operations on a 16 KiB image with a publish every 50.
func toy(t *testing.T, name string) workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	if w.fleet != nil {
		spec := *w.fleet
		spec.devices, spec.rounds = 8, 2
		w.fleet = &spec
	} else {
		spec := *w.churn
		spec.imageKiB, spec.ops, spec.opsPerPublish, spec.versions, spec.bases = 16, 200, 50, 7, 6
		w.churn = &spec
	}
	return w
}

// TestEvolveChain: every version of a 34-long chain is distinct (the
// reason Evolve exists: chaining testbed.DeriveAppChange gives v3 ==
// v2), the seed matters, and the compressed patch between neighbours
// lands in the band the workload states.
func TestEvolveChain(t *testing.T) {
	for _, tc := range []struct {
		workload     string
		minKB, maxKB float64
		diffs        int // neighbour pairs actually diffed (bsdiff is slow)
	}{
		{"fleet-diff-small", 1.5, 3, 33},
		{"fleet-diff-enc-ab", 24, 34, 3},
	} {
		w, _ := workloadByName(tc.workload)
		spec := w.fleet
		seen := map[[32]byte]int{}
		fw := BaseFirmware(1, tc.workload, spec.imageKiB*1024)
		seen[sha256.Sum256(fw)] = 1
		for v := 2; v <= 34; v++ {
			next := Evolve(fw, 1, v, spec.sites, spec.bytesPerSite)
			if len(next) != len(fw) {
				t.Fatalf("%s v%d: size changed to %d", tc.workload, v, len(next))
			}
			if prev, dup := seen[sha256.Sum256(next)]; dup {
				t.Fatalf("%s: v%d is identical to v%d", tc.workload, v, prev)
			}
			seen[sha256.Sum256(next)] = v
			if v-1 <= tc.diffs {
				kb := float64(len(lzss.Encode(bsdiff.Diff(fw, next)))) / 1000
				if kb < tc.minKB || kb > tc.maxKB {
					t.Errorf("%s v%d→v%d: compressed patch %.1f KB, want %.1f-%.1f KB", tc.workload, v-1, v, kb, tc.minKB, tc.maxKB)
				}
			}
			fw = next
		}
		other := Evolve(BaseFirmware(2, tc.workload, spec.imageKiB*1024), 2, 2, spec.sites, spec.bytesPerSite)
		if _, dup := seen[sha256.Sum256(other)]; dup {
			t.Errorf("%s: seed 2 reproduces an image of seed 1", tc.workload)
		}
	}
}

// TestSmoke runs every workload at toy size with all correctness checks
// on. The run is a traced one, so its first segment is untraced and its
// second records spans: it covers both paths, span parentage, and the
// closure of the spans over an update.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := toy(t, name)
			res, err := run(w, runConfig{seed: 7, seconds: defaultSeconds, traced: true, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			want := 16
			if w.churn != nil {
				want = 200 + w.churn.bases // operations + final window checks
			}
			if res.Attempted != want {
				t.Errorf("attempted %d operations, want %d", res.Attempted, want)
			}
			for _, d := range e2eMetrics {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, res.Metrics[d.Name])
				}
			}

			kinds := []spanKind{spPrepare, spPublishOp, spBuild, spPublish}
			if w.fleet != nil {
				kinds = []spanKind{spUpdate, spCheck, spExchange, spOrigin, spApply}
				if w.fleet.proxy {
					kinds = append(kinds, spProxy, spUpstream)
				}
			}
			for _, k := range kinds {
				if res.Spans.Kinds[spanNames[k]].Count == 0 {
					t.Errorf("no %s span recorded", spanNames[k])
				}
			}
			if res.Spans.Orphans != 0 {
				t.Errorf("%d shared spans without a parent", res.Spans.Orphans)
			}
			// Σ self time is Σ root duration by construction; against the
			// untraced segment's latency it is only loosely 1 at this
			// size (the first segment runs cold).
			if c := res.Metrics["trace.closure_frac"]; c < 0.3 || c > 3 {
				t.Errorf("trace.closure_frac = %v, want about 1", c)
			}
			if w.fleet != nil {
				if got := res.Metrics["coap.retransmissions"]; got != 0 {
					t.Errorf("%v retransmissions on a lossless link", got)
				}
				if got, want := res.Metrics["coap.exchanges_per_update"], res.Exact[0]["coap.exchanges_per_update"]; got <= 0 || want <= 0 {
					t.Errorf("coap.exchanges_per_update = %v (round 1: %v), want > 0", got, want)
				}
			}
		})
	}
}

// TestSpanParentage builds a trace by hand, including a shared span
// that only time containment can place, and checks the self-time
// arithmetic.
func TestSpanParentage(t *testing.T) {
	tr := newTracer("t")
	c := tr.client()
	g := &sharedGate{t: tr, on: true}
	c.start(true, spUpdate)
	c.enter(spCheck)
	c.enter(spExchange)
	c.enter(spProxy)
	start := tr.now()
	time.Sleep(time.Millisecond)
	g.record(spUpstream, start)
	c.exit()
	c.exit()
	c.exit()
	c.finish(1, 1)
	a := tr.analyse(spUpdate)
	if err := tr.checkParentage(); err != nil {
		t.Fatal(err)
	}
	if a.Orphans != 0 || a.Traces != 1 {
		t.Fatalf("orphans %d, traces %d", a.Orphans, a.Traces)
	}
	spans := tr.traces[0].spans
	if len(spans) != 5 || spans[4].kind != spUpstream || spans[spans[4].parent].kind != spProxy {
		t.Fatalf("shared span not adopted by the proxy span: %+v", spans)
	}
	root := float64(spans[0].end - spans[0].start)
	if a.SelfNs != root {
		t.Errorf("Σ self = %v, want the root's duration %v", a.SelfNs, root)
	}
	if px := a.Kinds[spanNames[spProxy]]; px.SelfNs >= px.DurNs || px.SelfNs < 0 {
		t.Errorf("proxy self %v of %v: the adopted child was not subtracted", px.SelfNs, px.DurNs)
	}
}

// TestProbes runs every probe on toy inputs and checks that, between
// the workloads and the probes, every declared per-layer metric has a
// source.
func TestProbes(t *testing.T) {
	defer func(d time.Duration) { probeBatch = d }(probeBatch)
	probeBatch = 200 * time.Microsecond
	produced := map[string]bool{}
	for _, name := range []string{"fleet-full-proxy", "prepare-churn"} {
		w := toy(t, name)
		res, err := run(w, runConfig{seed: 3, seconds: defaultSeconds, traced: true, probes: name == "prepare-churn", dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		for k := range res.Metrics {
			produced[k] = true
		}
	}
	for _, d := range layerMetrics {
		if !produced[d.Name] {
			t.Errorf("per-layer metric %s is declared but nothing produces it", d.Name)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in this package
// in step, and the contract line to exactly the declared metrics.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, want defaultSeconds %d", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.EndToEnd, e2eMetrics) {
		t.Errorf("end_to_end differs from e2eMetrics:\n%+v\n%+v", doc.EndToEnd, e2eMetrics)
	}
	if !reflect.DeepEqual(doc.PerLayer, layerMetrics) {
		t.Errorf("per_layer differs from layerMetrics")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	hasSetup := false
	for _, d := range e2eMetrics {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}

	res := &runResult{Attempted: 1, Metrics: map[string]float64{"updates_per_s": 1, "extra": 2}}
	for traced, defs := range map[bool][]metricDef{false: e2eMetrics, true: layerMetrics} {
		line := res.contractLine(traced)
		if len(line.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics in the contract line, want %d", traced, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if got, ok := line.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("traced=%v: contract line lacks %s [%s]", traced, d.Name, d.Unit)
			}
		}
	}
}
