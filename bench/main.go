// Command bench is the repo's one benchmark: four workloads that drive
// the real update stack through its packages' public functions, eleven
// end-to-end metrics measured untraced, and per-layer metrics from a
// separately traced run plus direct-call layer probes. See README.md.
//
// Two ways to run it:
//
//	bench --workload W --seed N --seconds S --trace 0|1
//
// is one run of one workload in this process, ending in one JSON line
// (the contract BENCHMARK.json declares; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones). Without --trace,
//
//	bench [-workload W] [-seed N] [-reps K] [-o file] [-trace-out dir] [-selfcheck]
//
// is the full procedure: every (workload, rep) re-executes this binary
// as a fresh child in the first form, so peak RSS and GC state belong
// to one run, then one traced child per workload; medians over the reps
// are printed one line per (workload, metric).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all)")
		seed         = flag.Int64("seed", 1, "seed for every generated input: firmware, edits, keys, request order")
		seconds      = flag.Float64("seconds", defaultSeconds, "measured-phase budget per run; workload sizes scale with it")
		trace        = flag.String("trace", "", "0 or 1: do one run in this process and print the contract's JSON line")
		detail       = flag.String("detail", "", "with -trace: also write the run's full result (samples, exact counts, spans) to this file")
		reps         = flag.Int("reps", 3, "untraced runs per workload")
		out          = flag.String("o", "", "write the full result (env, e2e, layers) to this JSON file")
		traceOut     = flag.String("trace-out", "", "directory the traced runs write their spans to (JSON lines per workload)")
		selfcheck    = flag.Bool("selfcheck", false, "run the full set twice and fail if any end-to-end median moves by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("-workload: unknown workload %q (have %s)", *workloadName, strings.Join(workloadNames(), ", ")))
		}
		selected = []workload{w}
	}
	if *trace != "" {
		traced, err := strconv.ParseBool(*trace)
		if err != nil {
			fatal(fmt.Errorf("-trace: want 0 or 1, got %q", *trace))
		}
		if len(selected) != 1 {
			fatal(fmt.Errorf("-trace runs one workload: name it with -workload"))
		}
		os.Exit(single(selected[0], runConfig{seed: *seed, seconds: *seconds, traced: traced, traceOut: *traceOut, probes: traced}, *detail))
	}
	o := orchestrator{seed: *seed, seconds: *seconds, reps: *reps, traceOut: *traceOut, workloads: selected}
	os.Exit(o.main(*out, *selfcheck))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// run dispatches one run of w.
func run(w workload, cfg runConfig) (*runResult, error) {
	var (
		res *runResult
		err error
	)
	if w.fleet != nil {
		res, err = runFleet(w, cfg)
	} else {
		res, err = runChurn(w, cfg)
	}
	if err != nil {
		return nil, err
	}
	if cfg.probes {
		// The workload's fleet is garbage by now; collect it so that the
		// probes do not run in the shadow of a 2 GB heap.
		runtime.GC()
		if err := runProbes(w, cfg, res.Metrics); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
	}
	return res, nil
}

// contractLine is the one JSON object a single run ends with.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// declared is what a run reports: the end-to-end metrics untraced, the
// per-layer metrics traced.
func declared(traced bool) []metricDef {
	if traced {
		return layerMetrics
	}
	return e2eMetrics
}

// contractLine selects exactly the declared metrics from the result.
func (r *runResult) contractLine(traced bool) contractLine {
	line := contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]value{}}
	for _, d := range declared(traced) {
		line.Metrics[d.Name] = value{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return line
}

// single does one run in this process and prints the contract line.
// State on disk lives under a scratch directory in the working
// directory (the benchmark must not write outside its checkout) and is
// removed before returning.
func single(w workload, cfg runConfig, detail string) int {
	dir, err := os.MkdirTemp(".", ".bench_run-")
	if err != nil {
		fatal(err)
	}
	cfg.dir = dir
	if cfg.traceOut != "" {
		if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
			fatal(err)
		}
		cfg.traceOut = filepath.Join(cfg.traceOut, w.name+".spans.jsonl")
	}
	res, err := run(w, cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "bench: FAIL", f)
	}
	if detail != "" {
		buf, err := json.Marshal(res)
		if err == nil {
			err = os.WriteFile(detail, buf, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	line := res.contractLine(cfg.traced)
	for _, d := range declared(cfg.traced) {
		fmt.Printf("%-18s %-36s %14.6g %s\n", w.name, d.Name, res.Metrics[d.Name], d.Unit)
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(buf))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// peakRSSMB reads this process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// envBlock records where a result came from.
type envBlock struct {
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
}

func readEnv() envBlock {
	e := envBlock{
		Commit:     "unknown",
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
	}
	if e.GOGC == "" {
		e.GOGC = "100 (default)"
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		e.Commit = c
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return e
}
