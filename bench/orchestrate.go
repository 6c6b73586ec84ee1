package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"upkit/internal/bootloader"
)

// orchestrator is the full procedure: reps untraced children and one
// traced child per workload, one process at a time.
type orchestrator struct {
	seed      int64
	seconds   float64
	reps      int
	traceOut  string
	workloads []workload
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Runs are the per-rep values behind an end-to-end median.
	Runs []float64 `json:"runs,omitempty"`
}

// fullResult is the -o file: where the numbers come from, the
// end-to-end block (medians over untraced reps; percentiles over the
// reps' pooled samples) and the per-layer block (the traced run and the
// probes), each keyed by workload, then metric.
type fullResult struct {
	Env    envBlock `json:"env"`
	Config struct {
		Seed    int64   `json:"seed"`
		Seconds float64 `json:"seconds"`
		Reps    int     `json:"reps"`
	} `json:"config"`
	E2E    map[string]map[string]value `json:"e2e"`
	Layers map[string]map[string]value `json:"layers"`
	// Shares is each span kind's self time as a share of the workload's
	// operation (one update), from the traced run: the answer to "which
	// layer bounds this workload".
	Shares   map[string]map[string]float64 `json:"shares"`
	Warnings []string                      `json:"warnings,omitempty"`
	failed   bool
}

// infoMetrics are printed and stored beside the end-to-end metrics for
// the reader, but not gated and not in BENCHMARK.json.
var infoMetrics = []metricDef{
	{Name: "update_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "installed_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},
}

// reportedE2E is what the full procedure prints per workload before the
// per-layer metrics.
var reportedE2E = append(append([]metricDef(nil), e2eMetrics...), infoMetrics...)

func (o *orchestrator) main(out string, selfcheck bool) int {
	sets := 1
	if selfcheck {
		sets = 2
	}
	var results []*fullResult
	for s := 0; s < sets; s++ {
		r, err := o.runSet()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		results = append(results, r)
	}
	last := results[len(results)-1]
	last.print()
	status := 0
	for _, r := range results {
		if r.failed {
			status = 1
		}
	}
	if selfcheck && !compareSets(results[0], results[1]) {
		status = 1
	}
	if out != "" {
		buf, err := json.MarshalIndent(last, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// child runs one (workload, seed, trace) in a fresh process and reads
// back its full result.
func (o *orchestrator) child(w workload, traced bool, dir string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	detail := filepath.Join(dir, "detail.json")
	args := []string{
		"-workload", w.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[traced],
		"-detail", detail,
	}
	if traced && o.traceOut != "" {
		args = append(args, "-trace-out", o.traceOut)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	buf, err := os.ReadFile(detail)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: child: %w", w.name, runErr)
		}
		return nil, err
	}
	os.Remove(detail)
	var res runResult
	if err := json.Unmarshal(buf, &res); err != nil {
		return nil, fmt.Errorf("%s: child result: %w", w.name, err)
	}
	return &res, nil
}

// runSet runs every workload once through the full procedure.
func (o *orchestrator) runSet() (*fullResult, error) {
	dir, err := os.MkdirTemp(".", ".bench_run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	full := &fullResult{
		Env:    readEnv(),
		E2E:    map[string]map[string]value{},
		Layers: map[string]map[string]value{},
		Shares: map[string]map[string]float64{},
	}
	full.Config.Seed, full.Config.Seconds, full.Config.Reps = o.seed, o.seconds, o.reps
	for _, w := range o.workloads {
		var reps []*runResult
		for r := 0; r < o.reps; r++ {
			fmt.Fprintf(os.Stderr, "bench: %s rep %d/%d\n", w.name, r+1, o.reps)
			res, err := o.child(w, false, dir)
			if err != nil {
				return nil, err
			}
			reps = append(reps, res)
		}
		fmt.Fprintf(os.Stderr, "bench: %s traced run and probes\n", w.name)
		traced, err := o.child(w, true, dir)
		if err != nil {
			return nil, err
		}
		full.aggregate(w, reps, traced)
	}
	return full, nil
}

// aggregate folds one workload's runs into the result.
func (f *fullResult) aggregate(w workload, reps []*runResult, traced *runResult) {
	e2e := map[string]value{}
	var pooled [][]float64
	attempted, failed := 0, 0
	for _, r := range append(reps, traced) {
		attempted += r.Attempted
		failed += r.Failed
	}
	for _, r := range reps {
		pooled = append(pooled, r.SamplesMs...)
	}
	latency := map[string]float64{}
	latencyMetrics(latency, pooled)
	for _, d := range reportedE2E {
		var runs []float64
		for _, r := range reps {
			if v, ok := r.Metrics[d.Name]; ok {
				runs = append(runs, v)
			}
		}
		if len(runs) == 0 && d.Name != "failed_frac" {
			continue // does not apply to this workload
		}
		v := value{Value: median(runs), Unit: d.Unit, Runs: runs}
		if pooledValue, ok := latency[d.Name]; ok {
			v.Value = pooledValue
		}
		if d.Name == "failed_frac" {
			v.Value = ratio(float64(failed), float64(attempted))
		}
		e2e[d.Name] = v
	}
	f.E2E[w.name] = e2e
	if failed > 0 {
		f.failed = true
	}

	// The counts that must repeat exactly for one seed, over the rounds
	// every run completed.
	all := append(append([]*runResult(nil), reps...), traced)
	for _, r := range all[1:] {
		for i := 0; i < min(len(r.Exact), len(all[0].Exact)); i++ {
			for name, want := range all[0].Exact[i] {
				if got := r.Exact[i][name]; got != want {
					f.failed = true
					f.Warnings = append(f.Warnings, fmt.Sprintf("%s: %s in round %d is %v in one run and %v in another; it must repeat exactly",
						w.name, name, i+1, want, got))
				}
			}
		}
	}

	layers := map[string]value{}
	for _, d := range layerMetrics {
		layers[d.Name] = value{Value: traced.Metrics[d.Name], Unit: d.Unit}
	}
	f.Layers[w.name] = layers
	if traced.Spans != nil {
		shares := map[string]float64{}
		for name, k := range traced.Spans.Kinds {
			shares[name] = ratio(k.SelfNs, traced.Spans.SelfNs)
		}
		f.Shares[w.name] = shares
	}
	if w.fleet != nil {
		if c := layers["trace.closure_frac"].Value; c < 0.9 || c > 1.1 {
			f.failed = true
			f.Warnings = append(f.Warnings, fmt.Sprintf("%s: trace.closure_frac %.3f outside 0.9-1.1: the spans do not add up to an update", w.name, c))
		}
		if ov := layers["trace.overhead_frac"].Value; ov > 0.1 {
			f.failed = true
			f.Warnings = append(f.Warnings, fmt.Sprintf("%s: trace.overhead_frac %.3f above 0.1", w.name, ov))
		}
	}
	f.Warnings = append(f.Warnings, probeWarnings(w, layers)...)
}

// probeWarnings sets each probe against the span it explains: probe
// cost × per-update count should land within 25 % of the span. A miss
// is a warning for the reader, not a failure — the traced run is the
// measurement, the probe the explanation.
func probeWarnings(w workload, l map[string]value) []string {
	if w.fleet == nil {
		return nil
	}
	get := func(name string) float64 { return l[name].Value }
	type pair struct {
		span, what  string
		spanV, estV float64
	}
	pairs := []pair{{
		span: "coap.exchange_self_us", what: "2x(coap.marshal_ns + coap.unmarshal_ns + transport.transfer_ns)",
		spanV: get("coap.exchange_self_us"),
		estV:  2 * (get("coap.marshal_ns") + get("coap.unmarshal_ns") + get("transport.transfer_ns")) / 1e3,
	}}
	if w.fleet.mode == bootloader.ModeStatic {
		pairs = append(pairs, pair{
			span: "bootloader.apply_ms", what: "slot.safeswap_ms + bootloader.boot_noupdate_ms",
			spanV: get("bootloader.apply_ms"), estV: get("slot.safeswap_ms") + get("bootloader.boot_noupdate_ms"),
		})
	}
	if w.fleet.proxy {
		pairs = append(pairs, pair{
			span: "proxy.handle_self_us", what: "proxy.hit_ns",
			spanV: get("proxy.handle_self_us"), estV: get("proxy.hit_ns") / 1e3,
		})
	} else {
		n := get("coap.origin_requests_per_update")
		pairs = append(pairs, pair{
			span: "coap.origin_handle_us", what: "coap.image_block_ns per block + updateserver.prepare_us once",
			spanV: get("coap.origin_handle_us"),
			estV:  ratio((n-1)*get("coap.image_block_ns")/1e3+get("updateserver.prepare_us"), n),
		})
	}
	var out []string
	for _, p := range pairs {
		if p.spanV > 0 && math.Abs(p.estV-p.spanV) > 0.25*p.spanV {
			out = append(out, fmt.Sprintf("%s: %s is %.4g in the traced run but the probes (%s) give %.4g", w.name, p.span, p.spanV, p.what, p.estV))
		}
	}
	return out
}

func (f *fullResult) print() {
	for _, w := range workloads {
		e2e, ok := f.E2E[w.name]
		if !ok {
			continue
		}
		for _, d := range reportedE2E {
			if v, ok := e2e[d.Name]; ok {
				fmt.Printf("%-18s %-36s %14.6g %s\n", w.name, d.Name, v.Value, d.Unit)
			}
		}
		for _, d := range layerMetrics {
			fmt.Printf("%-18s %-36s %14.6g %s\n", w.name, d.Name, f.Layers[w.name][d.Name].Value, d.Unit)
		}
	}
	for _, msg := range f.Warnings {
		fmt.Fprintln(os.Stderr, "bench: WARNING", msg)
	}
}

// compareSets is -selfcheck: two full sets on the same code must agree
// within each end-to-end metric's own bound.
func compareSets(a, b *fullResult) bool {
	ok := true
	fmt.Printf("\n%-18s %-30s %14s %14s %8s %6s\n", "selfcheck", "metric", "set 1", "set 2", "diff", "bound")
	for _, w := range workloads {
		if _, have := a.E2E[w.name]; !have {
			continue
		}
		for _, d := range e2eMetrics {
			x, y := a.E2E[w.name][d.Name].Value, b.E2E[w.name][d.Name].Value
			diff := ratio(math.Abs(x-y), math.Min(x, y))
			verdict := ""
			if diff > d.Bound {
				verdict = "  FAIL"
				ok = false
			}
			fmt.Printf("%-18s %-30s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", w.name, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
	}
	// Counts the program makes are exact and seed-determined: between two
	// sets they must not differ at all.
	for _, w := range workloads {
		if _, have := a.Layers[w.name]; !have || w.fleet == nil {
			continue
		}
		for _, name := range []string{"device.virtual_s_per_update", "coap.exchanges_per_update",
			"flash.written_b_per_update", "updateserver.diff_computations"} {
			if x, y := a.Layers[w.name][name].Value, b.Layers[w.name][name].Value; x != y {
				fmt.Printf("%-18s %-30s %14.6g %14.6g   must be identical  FAIL\n", w.name, name, x, y)
				ok = false
			}
		}
		if x, y := a.E2E[w.name]["origin_egress_b_per_update"].Value, b.E2E[w.name]["origin_egress_b_per_update"].Value; x != y {
			fmt.Printf("%-18s %-30s %14.6g %14.6g   must be identical  FAIL\n", w.name, "origin_egress_b_per_update", x, y)
			ok = false
		}
	}
	return ok
}
