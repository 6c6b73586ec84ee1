package fleet

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// --- satellite: retryDelay overflow clamp ---

func TestRetryDelayClampsShiftAndCapsDelay(t *testing.T) {
	p := Policy{RetryBackoff: time.Second}
	// The old shift went negative past attempt 63; every attempt count
	// must now yield a positive, capped delay.
	for _, attempt := range []int{1, 2, 10, 33, 63, 64, 100, 1 << 20} {
		d := retryDelay(p, attempt, nil)
		if d <= 0 {
			t.Fatalf("attempt %d: delay %v not positive (overflow disabled backoff)", attempt, d)
		}
		if d > DefaultMaxRetryBackoff {
			t.Fatalf("attempt %d: delay %v beyond default cap %v", attempt, d, DefaultMaxRetryBackoff)
		}
	}
	if d := retryDelay(p, 3, nil); d != 4*time.Second {
		t.Fatalf("attempt 3 delay = %v, want 4s (exponential growth below cap)", d)
	}
	// An explicit cap saturates the schedule.
	p.MaxRetryBackoff = 3 * time.Second
	if d := retryDelay(p, 10, nil); d != 3*time.Second {
		t.Fatalf("capped delay = %v, want 3s", d)
	}
	// Jitter on a capped delay must not overflow either.
	p.RetryJitter = 1
	one := func() float64 { return 0.999 }
	if d := retryDelay(p, 200, one); d <= 0 || d > 6*time.Second {
		t.Fatalf("jittered capped delay = %v, want in (0, 6s]", d)
	}
}

// --- satellite: exact canary ceiling ---

func TestCeilFracExactAtScale(t *testing.T) {
	cases := []struct {
		n    int
		frac float64
		want int
	}{
		{1_000_000, 0.001, 1000}, // the float hack yielded 1001
		{1_000_000, 0.25, 250_000},
		{1_000_000, 1.0 / 3.0, 333_334},
		{10, 0.2, 2},
		{10, 0.25, 3},
		{6, 0.34, 3},
		{6, 1.0 / 6.0, 1}, // representation error must not buy a second canary
		{3, 1.0 / 3.0, 1},
		{1, 0.001, 1},
		{5, 0, 0},
		{5, 1, 5},
		{0, 0.5, 0},
		{100_000, 0.0001, 10},
	}
	for _, c := range cases {
		if got := ceilFrac(c.n, c.frac); got != c.want {
			t.Errorf("ceilFrac(%d, %g) = %d, want %d", c.n, c.frac, got, c.want)
		}
	}
}

func TestStageBoundsFromPolicy(t *testing.T) {
	// CanaryFraction compat: two stages.
	b := stageBounds(10, Policy{CanaryFraction: 0.2})
	if len(b) != 2 || b[0] != 2 || b[1] != 10 {
		t.Fatalf("canary bounds = %v, want [2 10]", b)
	}
	// Multi-stage fractions, final 1 implied.
	b = stageBounds(1000, Policy{Stages: []float64{0.01, 0.1}})
	if len(b) != 3 || b[0] != 10 || b[1] != 100 || b[2] != 1000 {
		t.Fatalf("staged bounds = %v, want [10 100 1000]", b)
	}
	// Tiny fleet: empty stages collapse, at least one canary.
	b = stageBounds(2, Policy{Stages: []float64{0.001, 0.01, 1}})
	if b[0] != 1 || b[len(b)-1] != 2 {
		t.Fatalf("tiny-fleet bounds = %v, want first stage of 1 ending at 2", b)
	}
	// No policy: one full wave.
	b = stageBounds(7, Policy{})
	if len(b) != 1 || b[0] != 7 {
		t.Fatalf("default bounds = %v, want [7]", b)
	}
}

// --- staged rollout ---

func TestMultiStageRollout(t *testing.T) {
	devs := makeFleet(20, 1, 2)
	c, err := New(2, Policy{Stages: []float64{0.1, 0.5, 1}, Parallelism: 4, Shards: 4}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, report, 20, 0, 0, 0)
	sizes := []int{2, 8, 10}
	if len(report.Stages) != 3 {
		t.Fatalf("stage summaries = %d, want 3\n%s", len(report.Stages), report.Render())
	}
	for i, ss := range report.Stages {
		if ss.Devices != sizes[i] || ss.Updated != sizes[i] {
			t.Errorf("stage %d = %+v, want %d devices all updated", i, ss, sizes[i])
		}
	}
}

func TestStageGateAbortsMidCampaign(t *testing.T) {
	devs := makeFleet(20, 1, 2)
	// Stage 2 (devices 2..9) fails hard; stage 1 (the 2 canaries) is fine.
	for _, d := range devs[2:10] {
		d.failures.Store(1000)
	}
	c, err := New(2, Policy{Stages: []float64{0.1, 0.5, 1}, MaxCanaryFailureRate: 0.25}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if !errors.Is(err, ErrCampaignAborted) {
		t.Fatalf("error = %v, want ErrCampaignAborted", err)
	}
	if errors.Is(err, ErrBreakerTripped) {
		t.Fatalf("stage-boundary gate reported as breaker trip: %v", err)
	}
	checkCounts(t, report, 2, 8, 10, 0)
	for _, d := range devs[10:] {
		if d.attempts.Load() != 0 {
			t.Fatalf("device %#x beyond the failed stage was attempted", d.id)
		}
	}
	if !report.Aborted || !strings.Contains(report.AbortReason, "gate") {
		t.Fatalf("abort reason = %q, want a stage-gate reason", report.AbortReason)
	}
}

// --- circuit breaker ---

func TestCircuitBreakerTripsMidWave(t *testing.T) {
	const n = 400
	devs := makeFleet(n, 1, 2)
	for _, d := range devs {
		d.failures.Store(1000) // every attempt fails
	}
	c, err := New(2, Policy{
		Parallelism:        4,
		Shards:             8,
		BreakerFailureRate: 0.5,
		BreakerMinSample:   25,
	}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if !errors.Is(err, ErrBreakerTripped) || !errors.Is(err, ErrCampaignAborted) {
		t.Fatalf("error = %v, want ErrBreakerTripped (wrapping ErrCampaignAborted)", err)
	}
	if !report.Aborted {
		t.Fatal("report not marked aborted")
	}
	u, f, s, p := report.Updated, report.Failed, report.Skipped, report.Pending
	if u != 0 || p != 0 {
		t.Fatalf("counts = %d/%d/%d/%d, want no updates or pending", u, f, s, p)
	}
	if f < 25 {
		t.Fatalf("failed = %d, want at least the breaker min sample (25)", f)
	}
	// The breaker must halt the wave long before the fleet drains: allow
	// the min sample plus a claim per worker of slack.
	if f > 25+2*4 {
		t.Fatalf("failed = %d, breaker tripped too late", f)
	}
	if f+s != n {
		t.Fatalf("failed+skipped = %d, want %d", f+s, n)
	}
}

func TestCircuitBreakerRespectsMinSample(t *testing.T) {
	devs := makeFleet(10, 1, 2)
	devs[0].failures.Store(1000) // a single early failure: 100% rate at sample 1
	c, err := New(2, Policy{
		Parallelism:        1,
		Shards:             1,
		BreakerFailureRate: 0.5,
		BreakerMinSample:   10,
	}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatalf("breaker tripped below its min sample: %v", err)
	}
	checkCounts(t, report, 9, 1, 0, 0)
}

// --- checkpoint / resume ---

// cancelOnNthResult cancels a context after n results have streamed.
func cancelOnNthResult(n int, cancel context.CancelFunc) func(Result) {
	var seen atomic.Int64
	return func(Result) {
		if seen.Add(1) == int64(n) {
			cancel()
		}
	}
}

func TestCheckpointResumeRoundTrip(t *testing.T) {
	const n = 60
	devs := makeFleet(n, 1, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pol := Policy{Parallelism: 4, Shards: 8, Stages: []float64{0.1, 1}}
	pol.OnResult = cancelOnNthResult(20, cancel)
	c, err := New(2, pol, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	u1, _, s1, _ := report.Updated, report.Failed, report.Skipped, report.Pending
	if u1 < 20 || s1 == 0 {
		t.Fatalf("interrupted run counts = %s", report.Render())
	}

	// The checkpoint must survive a JSON round-trip.
	cp := c.Checkpoint()
	if cp == nil || cp.Complete {
		t.Fatalf("checkpoint = %+v, want incomplete state", cp)
	}
	blob, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}

	// Resume on a fresh campaign over the same fleet.
	c2, err := New(2, Policy{Parallelism: 4, Shards: 8, Stages: []float64{0.1, 1}}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Restore(back); err != nil {
		t.Fatal(err)
	}
	report2, err := c2.RunContext(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	checkCounts(t, report2, n, 0, 0, 0)
	// Exactly-once: no device is attempted twice across the two runs.
	for _, d := range devs {
		if got := d.attempts.Load(); got != 1 {
			t.Fatalf("device %#x attempted %d times across interrupt+resume, want 1", d.id, got)
		}
		if d.Version() != 2 {
			t.Fatalf("device %#x ended on v%d", d.id, d.Version())
		}
	}
	cp2 := c2.Checkpoint()
	if cp2 == nil || !cp2.Complete {
		t.Fatalf("resumed checkpoint = %+v, want complete", cp2)
	}
}

func TestCheckpointResumeAfterBreakerTrip(t *testing.T) {
	const n = 100
	devs := makeFleet(n, 1, 2)
	for _, d := range devs {
		d.failures.Store(1) // everyone fails once; with no retries, fails terminally
	}
	pol := Policy{Parallelism: 2, Shards: 4, BreakerFailureRate: 0.5, BreakerMinSample: 10}
	c, err := New(2, pol, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); !errors.Is(err, ErrBreakerTripped) {
		t.Fatalf("error = %v, want ErrBreakerTripped", err)
	}
	cp := c.Checkpoint()

	// The transient is gone (devices succeed now); the operator resumes.
	for _, d := range devs {
		d.failures.Store(0)
	}
	c2, err := New(2, pol, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	report, err := c2.Run()
	if err != nil {
		t.Fatalf("resumed run tripped again on pre-resume failures: %v", err)
	}
	u, f, s, p := report.Updated, report.Failed, report.Skipped, report.Pending
	if u+f != n || s != 0 || p != 0 {
		t.Fatalf("resumed counts = %d/%d/%d/%d, want updated+failed == %d", u, f, s, p, n)
	}
	if f != cp.Failed {
		t.Fatalf("failed = %d, want the checkpoint's %d (terminal failures are not re-run)", f, cp.Failed)
	}
}

func TestRestoreValidation(t *testing.T) {
	devs := makeFleet(10, 1, 2)
	pol := Policy{Shards: 4}
	c, _ := New(2, pol, updaters(devs))
	good := &Checkpoint{Target: 2, Devices: 10, Shards: 4, Bounds: []int{10}, Cursors: []int{1, 0, 0, 0}, Stage: 0}
	if err := c.Restore(good); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	bad := []*Checkpoint{
		nil,
		{Target: 3, Devices: 10, Shards: 4, Bounds: []int{10}},
		{Target: 2, Devices: 11, Shards: 4, Bounds: []int{10}},
		{Target: 2, Devices: 10, Shards: 2, Bounds: []int{10}},
		{Target: 2, Devices: 10, Shards: 4, Bounds: []int{5, 10}},
		{Target: 2, Devices: 10, Shards: 4, Bounds: []int{10}, Stage: 5},
		{Target: 2, Devices: 10, Shards: 4, Bounds: []int{10}, Cursors: []int{0, 0}},
	}
	for i, cp := range bad {
		if err := c.Restore(cp); err == nil {
			t.Errorf("bad checkpoint %d accepted", i)
		}
	}
	// Out-of-range cursors are rejected when the run starts.
	c2, _ := New(2, pol, updaters(devs))
	if err := c2.Restore(&Checkpoint{Target: 2, Devices: 10, Shards: 4, Bounds: []int{10},
		Cursors: []int{99, 0, 0, 0}, Stage: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(); err == nil {
		t.Error("run with out-of-range cursors succeeded")
	}
}

func TestResumeCompleteCheckpointIsNoOp(t *testing.T) {
	devs := makeFleet(5, 1, 2)
	c, _ := New(2, Policy{Shards: 2}, updaters(devs))
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	cp := c.Checkpoint()
	if !cp.Complete {
		t.Fatalf("checkpoint after full run not complete: %+v", cp)
	}
	c2, _ := New(2, Policy{Shards: 2}, updaters(devs))
	if err := c2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	report, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, report, 5, 0, 0, 0)
	for _, d := range devs {
		if d.attempts.Load() != 1 {
			t.Fatal("complete checkpoint re-ran devices")
		}
	}
}

// --- satellite: cancellation mid-retry-backoff ---

// cancelingDevice cancels the campaign context from inside its first
// (failing) attempt, so the cancellation lands during the retry
// backoff that follows.
type cancelingDevice struct {
	*fakeDevice
	cancel context.CancelFunc
}

func (d *cancelingDevice) TryUpdate() (uint16, error) {
	v, err := d.fakeDevice.TryUpdate()
	d.cancel()
	return v, err
}

func TestCancellationMidRetryBackoffPreservesLastError(t *testing.T) {
	base := newFake(0x77, 1, 1000) // fails every attempt with "radio glitch"
	base.target = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dev := &cancelingDevice{fakeDevice: base, cancel: cancel}
	c, err := New(2, Policy{
		MaxRetries:   5,
		RetryBackoff: time.Hour, // without cancellation the test would hang
	}, []Updater{dev})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	report, err := c.RunContext(ctx)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation did not interrupt the backoff (took %v)", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if len(report.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(report.Results))
	}
	res := report.Results[0]
	if res.Status != StatusFailed {
		t.Fatalf("status = %v, want deterministic StatusFailed", res.Status)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want exactly 1 (cancel landed in the first backoff)", res.Attempts)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "radio glitch") {
		t.Fatalf("err = %v, want the real last attempt error preserved", res.Err)
	}
}

// --- streaming aggregation bounds ---

func TestReportSamplesAreBounded(t *testing.T) {
	const n = 200
	devs := makeFleet(n, 1, 2)
	for _, d := range devs {
		d.failures.Store(1000)
	}
	c, err := New(2, Policy{MaxResults: 10, MaxErrors: 5, Parallelism: 8}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, report, 0, n, 0, 0)
	if len(report.Results) != 10 || report.ResultsTruncated != n-10 {
		t.Fatalf("results = %d (+%d truncated), want 10 (+%d)", len(report.Results), report.ResultsTruncated, n-10)
	}
	if len(report.Errors) != 5 || report.ErrorsTruncated != n-5 {
		t.Fatalf("errors = %d (+%d truncated), want 5 (+%d)", len(report.Errors), report.ErrorsTruncated, n-5)
	}
	if report.Errors[0].Err == nil {
		t.Fatal("error sample lost the device error")
	}
	// Negative bounds disable the samples entirely.
	c2, _ := New(2, Policy{MaxResults: -1, MaxErrors: -1}, updaters(makeFleet(4, 1, 2)))
	r2, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Results) != 0 || r2.ResultsTruncated != 4 {
		t.Fatalf("MaxResults -1 kept %d results", len(r2.Results))
	}
}

func TestOnResultStreamsEveryDevice(t *testing.T) {
	const n = 50
	devs := makeFleet(n, 1, 2)
	var streamed atomic.Int64
	c, err := New(2, Policy{
		Parallelism: 4,
		MaxResults:  -1, // sink replaces the in-memory slice
		OnResult:    func(r Result) { streamed.Add(1) },
	}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if streamed.Load() != n {
		t.Fatalf("sink saw %d results, want %d", streamed.Load(), n)
	}
}

// --- scheduler: goroutine count bounded by the worker pool ---

func TestGoroutineCountBoundedByParallelism(t *testing.T) {
	const n = 5000
	const parallelism = 8
	const shards = 16
	devs := makeFleet(n, 1, 2)
	base := runtime.NumGoroutine()
	var maxG atomic.Int64
	var seen atomic.Int64
	c, err := New(2, Policy{
		Parallelism: parallelism,
		Shards:      shards,
		MaxResults:  -1,
		OnResult: func(Result) {
			if seen.Add(1)%32 == 0 {
				g := int64(runtime.NumGoroutine())
				for {
					cur := maxG.Load()
					if g <= cur || maxG.CompareAndSwap(cur, g) {
						break
					}
				}
			}
		},
	}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, report, n, 0, 0, 0)
	// The old scheduler spawned one goroutine per device (n before the
	// first semaphore acquire). The pool must stay at Parallelism plus
	// scheduling overhead, independent of fleet size.
	limit := int64(base + parallelism + shards + 10)
	if got := maxG.Load(); got > limit {
		t.Fatalf("goroutines peaked at %d, want <= %d (base %d + parallelism %d + O(shards))",
			got, limit, base, parallelism)
	}
}
