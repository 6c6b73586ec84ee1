// Package fleet orchestrates update campaigns across many devices —
// the operational layer on top of UpKit's per-device update flow.
//
// The paper's architecture ends at "the update server propagates the
// image to the IoT device(s)"; a real deployment rolls a release out in
// staged waves: a canary fraction first, failure-rate gates between
// stages, a mid-wave circuit breaker, then the general population, with
// bounded retries per device. This package implements exactly that,
// device-agnostically: anything satisfying Updater can be campaigned —
// simulated testbeds here, real device connections in a production
// port.
//
// The engine is built to scale to million-device fleets:
//
//   - Scheduling is a fixed worker pool (Policy.Parallelism goroutines)
//     claiming device indices from one atomic counter per stage, not a
//     goroutine per device. A worker re-checks the halt conditions after
//     each claim, so within one run every device is either started once
//     or recorded as skipped, never both.
//   - Reporting is streaming: per-status counters, per-stage tallies, a
//     bounded per-device sample and a bounded error sample are updated
//     as devices complete. Report memory is O(1) in fleet size.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"upkit/internal/telemetry"
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
	// StatusSkipped: campaign aborted before this device was attempted.
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
	// DefaultMaxRetryBackoff caps the exponential retry backoff when
	// Policy.MaxRetryBackoff is zero.
	DefaultMaxRetryBackoff = 5 * time.Minute
	// DefaultMaxResults bounds per-device Result records in a report
	// when Policy.MaxResults is zero.
	DefaultMaxResults = 1024
	// DefaultMaxErrors bounds the report's error sample when
	// Policy.MaxErrors is zero.
	DefaultMaxErrors = 16
	// DefaultBreakerMinSample is the minimum completed-device sample
	// before the circuit breaker may trip.
	DefaultBreakerMinSample = 20
)

// Policy tunes a campaign.
type Policy struct {
	// CanaryFraction is the share of the fleet updated first
	// (rounded up, at least one device). Zero disables canarying.
	// Ignored when Stages is set.
	CanaryFraction float64
	// MaxCanaryFailureRate gates stage promotion: when a finished
	// stage's failure rate exceeds it, the campaign aborts before the
	// next stage starts (e.g. 0 = abort on any failure).
	MaxCanaryFailureRate float64
	// Stages lists cumulative fleet fractions for a staged rollout,
	// e.g. {0.01, 0.1, 1} updates 1% of the fleet, then up to 10%, then
	// everyone, with the MaxCanaryFailureRate gate applied between
	// stages. Fractions must be ascending in (0, 1]; a final 1 is
	// implied. When empty, CanaryFraction derives a two-stage rollout
	// (or a single full-fleet wave when that too is zero).
	Stages []float64
	// BreakerFailureRate, when > 0, arms a mid-wave circuit breaker:
	// once at least BreakerMinSample devices of the current stage have
	// completed and the stage's failure rate exceeds this threshold,
	// the campaign halts immediately — without waiting for the stage
	// boundary gate. Remaining devices are skipped and the run's error
	// wraps ErrBreakerTripped.
	BreakerFailureRate float64
	// BreakerMinSample is the completed-device sample required before
	// the breaker may trip; 0 means DefaultBreakerMinSample.
	BreakerMinSample int
	// MaxRetries is the number of extra attempts per device after the
	// first failure.
	MaxRetries int
	// Parallelism bounds concurrent device updates; 0 means
	// DefaultParallelism. This is the exact worker-goroutine count: the
	// engine never holds more than Parallelism device updates in
	// flight, regardless of fleet size.
	Parallelism int
	// RetryBackoff is the base wait before retry n, growing as
	// RetryBackoff << (n-1) up to MaxRetryBackoff. Zero retries
	// immediately. The wait is interrupted by context cancellation.
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the exponential growth; 0 means
	// DefaultMaxRetryBackoff. The shift is clamped so large attempt
	// counts saturate at the cap instead of overflowing to a negative
	// (i.e. zero) wait.
	MaxRetryBackoff time.Duration
	// RetryJitter widens each backoff by a uniform factor in
	// [1, 1+RetryJitter), decorrelating retries across the fleet so a
	// wave of failures does not hammer the server in lockstep.
	RetryJitter float64
	// Rand supplies the jitter randomness in [0, 1); nil selects the
	// global math/rand.Float64. Inject a deterministic source to make
	// backoff schedules reproducible in tests. The source does not need
	// to be safe for concurrent use: the campaign serializes calls to it
	// even when Parallelism > 1.
	Rand func() float64
	// MaxResults bounds the per-device Result records retained in the
	// report: 0 means DefaultMaxResults, negative retains none. Outcome
	// counters are always exact regardless.
	MaxResults int
	// MaxErrors bounds the report's failed-device error sample: 0 means
	// DefaultMaxErrors, negative retains none. Errors beyond the bound
	// are counted in Report.ErrorsTruncated.
	MaxErrors int
}

func (p Policy) parallelism() int {
	if p.Parallelism <= 0 {
		return DefaultParallelism
	}
	return p.Parallelism
}

func (p Policy) breakerMinSample() int {
	if p.BreakerMinSample <= 0 {
		return DefaultBreakerMinSample
	}
	return p.BreakerMinSample
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

func (p Policy) maxErrors() int {
	switch {
	case p.MaxErrors == 0:
		return DefaultMaxErrors
	case p.MaxErrors < 0:
		return 0
	}
	return p.MaxErrors
}

// newRand01 builds the campaign-wide jitter source from a policy.
// Retry waits run on worker goroutines, so an injected Policy.Rand —
// typically a plain *rand.Rand closure with no internal locking — must
// be serialized here; the math/rand.Float64 default is already safe.
func newRand01(p Policy) func() float64 {
	if p.Rand == nil {
		return rand.Float64
	}
	var mu sync.Mutex
	src := p.Rand
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return src()
	}
}

// ErrCampaignAborted is wrapped into Run's error when a stage gate
// trips.
var ErrCampaignAborted = errors.New("fleet: campaign aborted by failure gate")

// ErrBreakerTripped is wrapped into Run's error when the mid-wave
// circuit breaker halts the campaign. It wraps ErrCampaignAborted, so
// errors.Is(err, ErrCampaignAborted) also holds.
var ErrBreakerTripped = fmt.Errorf("%w: circuit breaker tripped", ErrCampaignAborted)

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

// CampaignError is one failed device's last error, as sampled into the
// report.
type CampaignError struct {
	DeviceID uint32
	Attempts int
	Err      error
}

// StageSummary tallies one rollout stage.
type StageSummary struct {
	// Devices is the stage's size (device count).
	Devices int
	Updated int
	Failed  int
	Skipped int
}

// Report summarises a campaign. Aggregation is streaming: outcome
// counters and per-stage tallies are exact for any fleet size, while
// Results and Errors are bounded samples (Policy.MaxResults /
// Policy.MaxErrors) so the report stays O(1) in fleet size.
type Report struct {
	Target  uint16
	Devices int
	// Every device lands in exactly one outcome bucket, so
	// Updated+Failed+Skipped == Devices.
	Updated int
	Failed  int
	Skipped int
	Aborted bool
	// AbortReason says what halted an aborted campaign (stage gate,
	// circuit breaker, cancellation).
	AbortReason string
	// Stages tallies each rollout stage, in order.
	Stages []StageSummary
	// Results is a bounded sample of per-device outcomes in completion
	// order; ResultsTruncated counts devices beyond the bound.
	Results          []Result
	ResultsTruncated int
	// Errors is a bounded sample of failed-device errors;
	// ErrorsTruncated counts failures beyond the bound.
	Errors          []CampaignError
	ErrorsTruncated int
	// SpanSummary, when the campaign carries a telemetry registry, is
	// the phase-span digest at the end of the run (per-phase totals over
	// completed update spans).
	SpanSummary string
}

// Campaign rolls one target version across a fleet.
type Campaign struct {
	target  uint16
	policy  Policy
	devices []Updater
	tel     *telemetry.Registry
	// rand01 is the serialized jitter source shared by all workers; see
	// newRand01.
	rand01 func() float64
	// bounds are the cumulative stage boundaries in device counts,
	// ending at len(devices).
	bounds []int
	// running refuses a second RunContext while one is in flight.
	running atomic.Bool
}

// SetTelemetry attaches a metrics registry. Waves, per-device outcomes
// and attempts are counted on it, and the report carries the registry's
// phase-span summary. A nil registry leaves the campaign silent.
func (c *Campaign) SetTelemetry(reg *telemetry.Registry) { c.tel = reg }

// ceilFrac is ⌈n·frac⌉ with a one-part-per-billion snap. The old
// additive hack `int(n*frac + 0.999999)` overcounted at fleet scale:
// float64(0.001) is slightly above 1/1000, so 1e6 × 0.001 evaluates to
// 1000.0000000000001 and bought an extra canary (1001). Products within
// a relative billionth of an integer are treated as that integer before
// the ceiling, so nine-significant-digit fractions are honored exactly
// while genuine remainders (6 × 0.34 = 2.04) still round up.
func ceilFrac(n int, frac float64) int {
	if n <= 0 || frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return n
	}
	p := float64(n) * frac
	k := int(math.Ceil(p - p*1e-9 - 1e-9))
	return min(max(k, 0), n)
}

// stageBounds derives the cumulative stage boundaries for a fleet of n
// devices. Empty stages are dropped; the last boundary is always n.
func stageBounds(n int, p Policy) []int {
	fracs := p.Stages
	if len(fracs) == 0 {
		if p.CanaryFraction > 0 {
			fracs = []float64{p.CanaryFraction, 1}
		} else {
			fracs = []float64{1}
		}
	}
	bounds := make([]int, 0, len(fracs)+1)
	prev := 0
	for i, f := range fracs {
		b := ceilFrac(n, f)
		if i == 0 && len(fracs) > 1 {
			b = max(1, b) // a staged rollout always canaries at least one device
		}
		b = min(max(b, prev), n)
		if b > prev {
			bounds = append(bounds, b)
			prev = b
		}
	}
	if prev < n {
		bounds = append(bounds, n)
	}
	return bounds
}

// New creates a campaign for target across devices.
func New(target uint16, policy Policy, devices []Updater) (*Campaign, error) {
	if len(devices) == 0 {
		return nil, errors.New("fleet: empty fleet")
	}
	if target == 0 {
		return nil, errors.New("fleet: target version must be >= 1")
	}
	if policy.CanaryFraction < 0 || policy.CanaryFraction > 1 {
		return nil, fmt.Errorf("fleet: canary fraction %f out of [0,1]", policy.CanaryFraction)
	}
	prev := 0.0
	for _, f := range policy.Stages {
		if f <= prev || f > 1 {
			return nil, fmt.Errorf("fleet: stages must be ascending fractions in (0,1], got %v", policy.Stages)
		}
		prev = f
	}
	if policy.BreakerFailureRate < 0 || policy.BreakerFailureRate > 1 {
		return nil, fmt.Errorf("fleet: breaker failure rate %f out of [0,1]", policy.BreakerFailureRate)
	}
	return &Campaign{
		target:  target,
		policy:  policy,
		devices: devices,
		rand01:  newRand01(policy),
		bounds:  stageBounds(len(devices), policy),
	}, nil
}

// Run executes the campaign: staged waves with gates between them. The
// returned report always covers every device; err wraps
// ErrCampaignAborted when a gate or the breaker tripped. It is
// RunContext with context.Background().
func (c *Campaign) Run() (*Report, error) {
	return c.RunContext(context.Background())
}

// RunContext executes the campaign under ctx. Cancellation is honored
// mid-wave: in-flight device updates finish their current attempt, not
// yet started devices are marked StatusSkipped, and the returned error
// wraps ctx.Err(). The report still covers every device. At most one
// RunContext may be in flight per campaign; a second concurrent call
// fails with ErrAlreadyRunning.
func (c *Campaign) RunContext(ctx context.Context) (*Report, error) {
	if !c.running.CompareAndSwap(false, true) {
		return nil, ErrAlreadyRunning
	}
	defer c.running.Store(false)

	agg := newAggregator(c)
	report := &Report{Target: c.target, Devices: len(c.devices)}
	defer func() {
		agg.fill(report)
		if c.tel != nil {
			report.SpanSummary = c.tel.Spans().Summary()
		}
	}()

	lo := 0
	for si, hi := range c.bounds {
		st := &stageState{index: si, hi: hi}
		st.next.Store(int64(lo))
		lo = hi
		c.met("upkit_campaign_waves_total", "Campaign waves started.",
			telemetry.L("stage", strconv.Itoa(si))).Inc()
		c.runStage(ctx, st, agg)

		stageDone := int(st.done.Load())
		stageFailed := int(st.failed.Load())
		if err := ctx.Err(); err != nil {
			c.skipRemaining(st, agg)
			report.Aborted = true
			report.AbortReason = fmt.Sprintf("canceled in stage %d: %v", si, err)
			return report, fmt.Errorf("fleet: campaign canceled: %w", err)
		}
		if st.tripped.Load() {
			c.met("upkit_campaign_breaker_trips_total", "Circuit-breaker trips.",
				telemetry.L("stage", strconv.Itoa(si))).Inc()
			c.skipRemaining(st, agg)
			report.Aborted = true
			report.AbortReason = fmt.Sprintf("circuit breaker: %d of %d devices failed in stage %d",
				stageFailed, stageDone, si)
			return report, fmt.Errorf("%w: %d of %d devices failed in stage %d",
				ErrBreakerTripped, stageFailed, stageDone, si)
		}
		if si < len(c.bounds)-1 && stageDone > 0 {
			rate := float64(stageFailed) / float64(stageDone)
			if rate > c.policy.MaxCanaryFailureRate {
				c.skipRemaining(st, agg)
				report.Aborted = true
				report.AbortReason = fmt.Sprintf("stage %d gate: %d of %d canaries failed",
					si, stageFailed, stageDone)
				return report, fmt.Errorf("%w: %d of %d canaries failed",
					ErrCampaignAborted, stageFailed, stageDone)
			}
		}
	}
	return report, nil
}

// met resolves a counter on the campaign's registry (nil-safe).
func (c *Campaign) met(name, help string, labels ...telemetry.Label) *telemetry.Counter {
	return c.tel.Counter(name, help, labels...)
}

// stageState is the scheduling state of one rollout stage: devices
// [lo, hi) of the fleet, claimed in index order through next.
type stageState struct {
	index int
	hi    int
	// next is the next unclaimed device index. Workers advance it past
	// hi once the stage drains, so a claim at or beyond hi means there
	// is nothing left to claim.
	next         atomic.Int64
	done, failed atomic.Int64
	tripped      atomic.Bool
	cancel       context.CancelFunc
}

// runStage drives the stage with a fixed worker pool. Goroutine count
// during a campaign is exactly Policy.Parallelism plus the caller.
func (c *Campaign) runStage(parent context.Context, st *stageState, agg *aggregator) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	st.cancel = cancel
	workers := c.policy.parallelism()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			c.stageWorker(ctx, st, agg)
		}()
	}
	wg.Wait()
}

// stageWorker claims devices until the stage drains, the context is
// canceled, or the breaker trips. Every claimed device is either
// started or recorded as skipped, so once the pool has stopped the
// devices from next to the stage's end are exactly the unattempted
// ones.
func (c *Campaign) stageWorker(ctx context.Context, st *stageState, agg *aggregator) {
	for {
		idx := int(st.next.Add(1) - 1)
		if idx >= st.hi {
			return
		}
		d := c.devices[idx]
		// Re-check halt conditions after the claim: a device the halt
		// reaches before it starts is skipped, not updated.
		if ctx.Err() != nil || st.tripped.Load() {
			agg.record(skipped(d), st.index)
			return
		}
		res := c.updateOne(ctx, d)
		agg.record(res, st.index)
		c.noteStageResult(st, res.Status == StatusFailed)
	}
}

// noteStageResult updates stage tallies and evaluates the circuit
// breaker on the stage's completions.
func (c *Campaign) noteStageResult(st *stageState, failed bool) {
	done := st.done.Add(1)
	var nfailed int64
	if failed {
		nfailed = st.failed.Add(1)
	} else {
		nfailed = st.failed.Load()
	}
	if c.policy.BreakerFailureRate <= 0 || int(done) < c.policy.breakerMinSample() {
		return
	}
	if float64(nfailed)/float64(done) > c.policy.BreakerFailureRate {
		if st.tripped.CompareAndSwap(false, true) {
			// Cut in-flight retry backoffs short; the devices finish their
			// current attempt and land StatusFailed with their real error.
			st.cancel()
		}
	}
}

// skipped is the terminal result of a device the campaign never
// attempted.
func skipped(d Updater) Result {
	return Result{DeviceID: d.ID(), Status: StatusSkipped, Version: d.Version()}
}

// skipRemaining records StatusSkipped for every unclaimed device: the
// tail of st from its claim counter, then all later stages. It runs
// after st's worker pool has stopped.
func (c *Campaign) skipRemaining(st *stageState, agg *aggregator) {
	for idx := int(min(st.next.Load(), int64(st.hi))); idx < st.hi; idx++ {
		agg.record(skipped(c.devices[idx]), st.index)
	}
	for sj := st.index + 1; sj < len(c.bounds); sj++ {
		for idx := c.bounds[sj-1]; idx < c.bounds[sj]; idx++ {
			agg.record(skipped(c.devices[idx]), sj)
		}
	}
}

// retryDelay computes the wait before retry attempt n ≥ 1: exponential
// in the base backoff, saturating at the cap, widened by the jitter
// factor. The shift is clamped so huge attempt counts cannot overflow
// into a negative (and therefore zero) wait — the failure mode that
// used to let exhausted devices hammer the server with no backoff.
func retryDelay(p Policy, attempt int, rand01 func() float64) time.Duration {
	if p.RetryBackoff <= 0 || attempt <= 0 {
		return 0
	}
	ceil := p.MaxRetryBackoff
	if ceil <= 0 {
		ceil = DefaultMaxRetryBackoff
	}
	if ceil < p.RetryBackoff {
		ceil = p.RetryBackoff
	}
	d := ceil
	// RetryBackoff << shift stays representable iff it cannot exceed the
	// cap; comparing against ceil>>shift avoids computing the overflow.
	if shift := uint(attempt - 1); shift < 63 && p.RetryBackoff <= ceil>>shift {
		d = p.RetryBackoff << shift
	}
	if p.RetryJitter > 0 && rand01 != nil {
		j := time.Duration(rand01() * p.RetryJitter * float64(d))
		if j > 0 && d <= math.MaxInt64-j {
			d += j
		}
	}
	return d
}

// sleepCtx waits for d, returning early with ctx's error on
// cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// updateOne drives a single device with retries. Cancellation stops
// further retries (including mid-backoff) but never interrupts an
// attempt halfway: the device always lands in a deterministic terminal
// status, with the last real attempt error preserved.
func (c *Campaign) updateOne(ctx context.Context, d Updater) Result {
	res := Result{DeviceID: d.ID(), Version: d.Version()}
	if res.Version >= c.target {
		res.Status = StatusUpdated // already there (or newer)
		return res
	}
	var lastErr error
	for attempt := 0; attempt <= c.policy.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, retryDelay(c.policy, attempt, c.rand01)); err != nil {
				break
			}
		}
		res.Attempts++
		c.met("upkit_campaign_attempts_total", "Per-device update attempts.").Inc()
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

// aggregator is the streaming report sink: per-stage tallies plus
// bounded result/error samples under one mutex.
type aggregator struct {
	c *Campaign

	mu               sync.Mutex
	stages           []StageSummary // one per stage bound
	results          []Result
	resultsTruncated int
	errs             []CampaignError
	errsTruncated    int
	maxResults       int
	maxErrors        int
}

func newAggregator(c *Campaign) *aggregator {
	stages := make([]StageSummary, len(c.bounds))
	lo := 0
	for si, hi := range c.bounds {
		stages[si].Devices = hi - lo
		lo = hi
	}
	return &aggregator{
		c:          c,
		stages:     stages,
		maxResults: c.policy.maxResults(),
		maxErrors:  c.policy.maxErrors(),
	}
}

// record stores one device's terminal outcome: stage tally, bounded
// samples and telemetry.
func (a *aggregator) record(res Result, stage int) {
	if a.c.tel != nil {
		a.c.met("upkit_campaign_devices_total", "Campaign device outcomes.",
			telemetry.L("status", res.Status.String())).Inc()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ss := &a.stages[stage]
	switch res.Status {
	case StatusUpdated:
		ss.Updated++
	case StatusFailed:
		ss.Failed++
	case StatusSkipped:
		ss.Skipped++
	}
	if res.Status == StatusFailed && res.Err != nil {
		if len(a.errs) < a.maxErrors {
			a.errs = append(a.errs, CampaignError{DeviceID: res.DeviceID, Attempts: res.Attempts, Err: res.Err})
		} else {
			a.errsTruncated++
		}
	}
	if len(a.results) < a.maxResults {
		a.results = append(a.results, res)
	} else {
		a.resultsTruncated++
	}
}

// fill finalises the report from the aggregated state.
func (a *aggregator) fill(r *Report) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, ss := range a.stages {
		r.Updated += ss.Updated
		r.Failed += ss.Failed
		r.Skipped += ss.Skipped
	}
	r.Stages = a.stages
	r.Results = a.results
	r.ResultsTruncated = a.resultsTruncated
	r.Errors = a.errs
	r.ErrorsTruncated = a.errsTruncated
}

// Render returns a sorted, human-readable campaign summary.
func (r *Report) Render() string {
	out := fmt.Sprintf("campaign to v%d: %d updated, %d failed, %d skipped",
		r.Target, r.Updated, r.Failed, r.Skipped)
	if r.Aborted {
		out += fmt.Sprintf(" (ABORTED: %s)", r.AbortReason)
	}
	for i, ss := range r.Stages {
		out += fmt.Sprintf("\n  stage %d: %d devices, %d updated, %d failed, %d skipped",
			i, ss.Devices, ss.Updated, ss.Failed, ss.Skipped)
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
	if r.SpanSummary != "" {
		out += "\n  spans: " + r.SpanSummary
	}
	return out
}
