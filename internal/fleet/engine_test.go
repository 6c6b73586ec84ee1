package fleet

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// --- exactly-once dispatch under a concurrent halt ---

// cancelAt cancels a campaign's context from inside the at-th
// TryUpdate across the fleet. Calls are numbered under mu, so every
// call numbered past at starts after the cancel has happened.
type cancelAt struct {
	mu     sync.Mutex
	calls  int
	at     int
	cancel context.CancelFunc
}

// cancelAtDevice is a fakeDevice whose attempts report to a shared
// cancelAt.
type cancelAtDevice struct {
	*fakeDevice
	hub *cancelAt
}

func (d *cancelAtDevice) TryUpdate() (uint16, error) {
	d.hub.mu.Lock()
	d.hub.calls++
	if d.hub.calls == d.hub.at {
		d.hub.cancel()
	}
	d.hub.mu.Unlock()
	return d.fakeDevice.TryUpdate()
}

func TestConcurrentCancelSettlesEachDeviceOnce(t *testing.T) {
	const n, parallelism = 200, 4
	// A cancel at the 20th, 50th or 150th attempt lands mid-run, where
	// every worker races the halt for its next claim.
	for _, at := range []int{20, 50, 150} {
		devs := makeFleet(n, 1, 2)
		ctx, cancel := context.WithCancel(context.Background())
		hub := &cancelAt{at: at, cancel: cancel}
		ups := make([]Updater, n)
		for i, d := range devs {
			ups[i] = &cancelAtDevice{fakeDevice: d, hub: hub}
		}
		c, err := New(2, Policy{
			Parallelism: parallelism,
			MaxResults:  n, // keep every result
		}, ups)
		if err != nil {
			t.Fatal(err)
		}
		report, err := c.RunContext(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at %d: error = %v, want context.Canceled", at, err)
		}
		if got := report.Updated + report.Failed + report.Skipped; got != n {
			t.Fatalf("cancel at %d: %d+%d+%d outcomes, want %d", at,
				report.Updated, report.Failed, report.Skipped, n)
		}
		status := make(map[uint32]Status, n)
		for _, res := range report.Results {
			if _, dup := status[res.DeviceID]; dup {
				t.Fatalf("cancel at %d: device %#x settled twice", at, res.DeviceID)
			}
			status[res.DeviceID] = res.Status
		}
		calls := 0
		for _, d := range devs {
			st, ok := status[d.id]
			if !ok {
				t.Fatalf("cancel at %d: device %#x has no result", at, d.id)
			}
			a := int(d.attempts.Load())
			switch {
			case a > 1:
				t.Fatalf("cancel at %d: device %#x attempted %d times", at, d.id, a)
			case st == StatusSkipped && a != 0:
				t.Fatalf("cancel at %d: skipped device %#x was attempted", at, d.id)
			case st != StatusSkipped && a != 1:
				t.Fatalf("cancel at %d: device %#x is %v without an attempt", at, d.id, st)
			}
			calls += a
		}
		// The halt stops the pool: past the cancelling attempt, each
		// other worker starts at most the device it had already claimed
		// and re-checked.
		if calls < at || calls > at+parallelism-1 {
			t.Fatalf("cancel at %d: %d attempts, want %d..%d", at, calls, at, at+parallelism-1)
		}
	}
}

// gateDevice blocks each TryUpdate until released, so a test can hold
// a campaign mid-flight deterministically.
type gateDevice struct {
	*fakeDevice
	started chan struct{} // receives one token per attempt start
	release chan struct{} // one token releases one attempt
}

func (d *gateDevice) TryUpdate() (uint16, error) {
	d.started <- struct{}{}
	<-d.release
	return d.fakeDevice.TryUpdate()
}

func TestConcurrentRunRefused(t *testing.T) {
	const n = 4
	devs := makeFleet(n, 1, 2)
	started := make(chan struct{}, n)
	release := make(chan struct{}, n)
	ups := make([]Updater, n)
	for i, d := range devs {
		ups[i] = &gateDevice{fakeDevice: d, started: started, release: release}
	}
	c, err := New(2, Policy{Parallelism: 1}, ups)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.RunContext(context.Background())
	}()
	<-started
	if _, err := c.RunContext(context.Background()); !errors.Is(err, ErrAlreadyRunning) {
		t.Fatalf("second run = %v, want ErrAlreadyRunning", err)
	}
	for range n {
		release <- struct{}{}
	}
	go func() {
		for range started {
		}
	}()
	<-done
	close(started)
}

// --- cancellation between attempts ---

// cancelingDevice cancels the campaign context from inside its first
// (failing) attempt, so the cancellation lands before the retry that
// would follow.
type cancelingDevice struct {
	*fakeDevice
	cancel context.CancelFunc
}

func (d *cancelingDevice) TryUpdate() (uint16, error) {
	v, err := d.fakeDevice.TryUpdate()
	d.cancel()
	return v, err
}

func TestCancelBetweenAttemptsKeepsLastError(t *testing.T) {
	base := newFake(0x77, 1, 1000) // fails every attempt with "radio glitch"
	base.target = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dev := &cancelingDevice{fakeDevice: base, cancel: cancel}
	c, err := New(2, Policy{MaxRetries: 5}, []Updater{dev})
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.RunContext(ctx)
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
		t.Fatalf("attempts = %d, want exactly 1 (no retry after the cancel)", res.Attempts)
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
	c, err := New(2, Policy{MaxResults: 10, Parallelism: 8}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, report, 0, n, 0)
	if len(report.Results) != 10 || report.ResultsTruncated != n-10 {
		t.Fatalf("results = %d (+%d truncated), want 10 (+%d)", len(report.Results), report.ResultsTruncated, n-10)
	}
	if len(report.Errors) != maxErrors {
		t.Fatalf("errors = %d, want %d", len(report.Errors), maxErrors)
	}
	if report.Errors[0].Err == nil {
		t.Fatal("error sample lost the device error")
	}
	// Negative bounds disable the samples entirely.
	c2, _ := New(2, Policy{MaxResults: -1}, updaters(makeFleet(4, 1, 2)))
	r2, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Results) != 0 || r2.ResultsTruncated != 4 {
		t.Fatalf("MaxResults -1 kept %d results", len(r2.Results))
	}
}

// --- scheduler: goroutine count bounded by the worker pool ---

func TestGoroutineCountBoundedByParallelism(t *testing.T) {
	const n = 5000
	const parallelism = 8
	base := runtime.NumGoroutine()
	peak := &goroutinePeak{}
	c, err := New(2, Policy{
		Parallelism: parallelism,
		MaxResults:  -1,
	}, simFleet(n, peak))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, report, n, 0, 0)
	// The old scheduler spawned one goroutine per device (n before the
	// first semaphore acquire). The pool must stay at Parallelism plus
	// scheduling overhead, independent of fleet size.
	limit := int64(base + parallelism + 10)
	if got := peak.max.Load(); got == 0 || got > limit {
		t.Fatalf("goroutines peaked at %d, want in (0, %d] (base %d + parallelism %d)",
			got, limit, base, parallelism)
	}
}
