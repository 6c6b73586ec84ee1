// Package fleet runs one firmware version across many devices.
//
// In the paper's pull model (§III-B) the server never dispatches an
// update: each device asks for one. A campaign is therefore the loop
// that makes every device of a simulated fleet ask, device-agnostically:
// anything satisfying Updater can be campaigned.
//
// The engine is a worker pool sized for million-device fleets:
//
//   - Scheduling is a fixed pool of Policy.Parallelism goroutines
//     claiming device indices from one atomic counter, not a goroutine
//     per device. A worker re-checks cancellation after each claim, so
//     within one run every device is either started once or recorded
//     as skipped, never both.
//   - Reporting is streaming: per-status counters, a bounded per-device
//     sample and a bounded error sample are updated as devices
//     complete. Report memory is O(1) in fleet size.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Updater is one device's update entry point.
type Updater interface {
	// ID identifies the device.
	ID() uint32
	// Version reports the currently running firmware version.
	Version() uint16
	// TryUpdate performs one update attempt (poll, transfer, verify,
	// reboot) and returns the version running afterwards.
	TryUpdate() (uint16, error)
}

// Status is a device's campaign outcome.
type Status int

// Campaign outcomes.
const (
	// StatusUpdated: running the target version.
	StatusUpdated Status = iota + 1
	// StatusFailed: all attempts exhausted.
	StatusFailed
	// StatusSkipped: campaign canceled before this device was attempted.
	StatusSkipped
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusUpdated:
		return "updated"
	case StatusFailed:
		return "failed"
	case StatusSkipped:
		return "skipped"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Engine defaults.
const (
	// DefaultParallelism is the worker count when Policy.Parallelism is
	// zero.
	DefaultParallelism = 4
	// DefaultMaxResults bounds per-device Result records in a report
	// when Policy.MaxResults is zero.
	DefaultMaxResults = 1024
)

// maxErrors bounds Report.Errors.
const maxErrors = 16

// Policy tunes a campaign.
type Policy struct {
	// Parallelism bounds concurrent device updates; 0 means
	// DefaultParallelism. This is the exact worker-goroutine count: the
	// engine never holds more than Parallelism device updates in
	// flight, regardless of fleet size.
	Parallelism int
	// MaxRetries is the number of extra attempts per device after the
	// first failure. Retries follow immediately.
	MaxRetries int
	// MaxResults bounds the per-device Result records retained in the
	// report: 0 means DefaultMaxResults, negative retains none. Outcome
	// counters are always exact regardless.
	MaxResults int
}

func (p Policy) parallelism() int {
	if p.Parallelism <= 0 {
		return DefaultParallelism
	}
	return p.Parallelism
}

func (p Policy) maxResults() int {
	switch {
	case p.MaxResults == 0:
		return DefaultMaxResults
	case p.MaxResults < 0:
		return 0
	}
	return p.MaxResults
}

// ErrAlreadyRunning is returned by RunContext when another run of the
// same campaign is still in flight.
var ErrAlreadyRunning = errors.New("fleet: campaign run already in flight")

// Result is one device's final state.
type Result struct {
	DeviceID uint32
	Status   Status
	Version  uint16
	Attempts int
	// Err is the last error for failed devices.
	Err error
}

// Report summarises a campaign. Aggregation is streaming: outcome
// counters are exact for any fleet size, while Results and Errors are
// bounded samples, so the report stays O(1) in fleet size.
type Report struct {
	Target  uint16
	Devices int
	// Every device lands in exactly one outcome bucket, so
	// Updated+Failed+Skipped == Devices.
	Updated int
	Failed  int
	Skipped int
	// Aborted is set when the run's context was canceled.
	Aborted bool
	// Results is a bounded sample of per-device outcomes in completion
	// order (Policy.MaxResults); ResultsTruncated counts devices beyond
	// the bound.
	Results          []Result
	ResultsTruncated int
	// Errors holds the first 16 failed devices' results, in completion
	// order.
	Errors []Result
}

// Campaign rolls one target version across a fleet.
type Campaign struct {
	target  uint16
	policy  Policy
	devices []Updater
	// running refuses a second RunContext while one is in flight.
	running atomic.Bool
}

// New creates a campaign for target across devices.
func New(target uint16, policy Policy, devices []Updater) (*Campaign, error) {
	if len(devices) == 0 {
		return nil, errors.New("fleet: empty fleet")
	}
	if target == 0 {
		return nil, errors.New("fleet: target version must be >= 1")
	}
	return &Campaign{target: target, policy: policy, devices: devices}, nil
}

// Run executes the campaign. It is RunContext with
// context.Background().
func (c *Campaign) Run() (*Report, error) {
	return c.RunContext(context.Background())
}

// RunContext executes the campaign under ctx. Cancellation is honored
// between device attempts: in-flight attempts finish, not yet started
// devices are marked StatusSkipped, and the returned error wraps
// ctx.Err(). The report still covers every device. At most one
// RunContext may be in flight per campaign; a second concurrent call
// fails with ErrAlreadyRunning.
func (c *Campaign) RunContext(ctx context.Context) (*Report, error) {
	if !c.running.CompareAndSwap(false, true) {
		return nil, ErrAlreadyRunning
	}
	defer c.running.Store(false)

	agg := &aggregator{maxResults: c.policy.maxResults()}
	// next is the next unclaimed device index. Workers advance it past
	// the fleet's end once it drains, so a claim at or beyond
	// len(devices) means there is nothing left to claim.
	var next atomic.Int64
	workers := c.policy.parallelism()
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			c.work(ctx, &next, agg)
		}()
	}
	wg.Wait()

	report := &Report{Target: c.target, Devices: len(c.devices)}
	err := ctx.Err()
	if err != nil {
		// The pool has stopped: every index below the counter was
		// claimed and settled once, and every index from it on was
		// never claimed.
		for idx := min(int(next.Load()), len(c.devices)); idx < len(c.devices); idx++ {
			agg.record(skipped(c.devices[idx]))
		}
		report.Aborted = true
		err = fmt.Errorf("fleet: campaign canceled: %w", err)
	}
	agg.fill(report)
	return report, err
}

// work claims devices until the fleet drains or the context is
// canceled. A device the cancellation reaches after its claim is
// recorded as skipped, not started.
func (c *Campaign) work(ctx context.Context, next *atomic.Int64, agg *aggregator) {
	for {
		idx := int(next.Add(1) - 1)
		if idx >= len(c.devices) {
			return
		}
		d := c.devices[idx]
		if ctx.Err() != nil {
			agg.record(skipped(d))
			return
		}
		agg.record(c.updateOne(ctx, d))
	}
}

// skipped is the terminal result of a device the campaign never
// attempted.
func skipped(d Updater) Result {
	return Result{DeviceID: d.ID(), Status: StatusSkipped, Version: d.Version()}
}

// updateOne drives a single device with immediate retries.
// Cancellation stops further retries but never interrupts an attempt
// halfway: the device always lands in a terminal status, with the last
// real attempt error preserved.
func (c *Campaign) updateOne(ctx context.Context, d Updater) Result {
	res := Result{DeviceID: d.ID(), Version: d.Version()}
	if res.Version >= c.target {
		res.Status = StatusUpdated // already there (or newer)
		return res
	}
	var lastErr error
	for attempt := 0; attempt <= c.policy.MaxRetries; attempt++ {
		if attempt > 0 && ctx.Err() != nil {
			break
		}
		res.Attempts++
		v, err := d.TryUpdate()
		if err == nil && v >= c.target {
			res.Status = StatusUpdated
			res.Version = v
			return res
		}
		if err == nil {
			lastErr = fmt.Errorf("fleet: device %#x ended on v%d, want v%d", d.ID(), v, c.target)
		} else {
			lastErr = err
		}
	}
	res.Status = StatusFailed
	res.Version = d.Version()
	res.Err = lastErr
	return res
}

// aggregator is the streaming report sink: outcome counters plus
// bounded result and error samples under one mutex.
type aggregator struct {
	mu                       sync.Mutex
	updated, failed, skipped int
	results                  []Result
	resultsTruncated         int
	errs                     []Result
	maxResults               int
}

// record stores one device's terminal outcome.
func (a *aggregator) record(res Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch res.Status {
	case StatusUpdated:
		a.updated++
	case StatusFailed:
		a.failed++
		if res.Err != nil && len(a.errs) < maxErrors {
			a.errs = append(a.errs, res)
		}
	case StatusSkipped:
		a.skipped++
	}
	if len(a.results) < a.maxResults {
		a.results = append(a.results, res)
	} else {
		a.resultsTruncated++
	}
}

// fill finalises the report from the aggregated state. It runs after
// the worker pool has stopped.
func (a *aggregator) fill(r *Report) {
	r.Updated, r.Failed, r.Skipped = a.updated, a.failed, a.skipped
	r.Results = a.results
	r.ResultsTruncated = a.resultsTruncated
	r.Errors = a.errs
}

// Render returns a sorted, human-readable campaign summary.
func (r *Report) Render() string {
	out := fmt.Sprintf("campaign to v%d: %d updated, %d failed, %d skipped",
		r.Target, r.Updated, r.Failed, r.Skipped)
	if r.Aborted {
		out += " (canceled)"
	}
	sorted := make([]Result, len(r.Results))
	copy(sorted, r.Results)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].DeviceID < sorted[j].DeviceID })
	for _, res := range sorted {
		out += fmt.Sprintf("\n  device %#08x: %-7s v%d (%d attempts)",
			res.DeviceID, res.Status, res.Version, res.Attempts)
	}
	if r.ResultsTruncated > 0 {
		out += fmt.Sprintf("\n  (+%d more devices not individually recorded)", r.ResultsTruncated)
	}
	return out
}
