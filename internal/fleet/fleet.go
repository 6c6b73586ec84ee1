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
//     pulling device indices from sharded queues, not a goroutine per
//     device. Each shard is a sequential lane — at most one of its
//     devices is in flight at a time — so a shard cursor is always an
//     exact completed prefix, which is what makes campaign state
//     checkpointable.
//   - Reporting is streaming: per-status counters, per-stage tallies, a
//     bounded per-device sample and a bounded error sample are updated
//     as devices complete. Report memory is O(1) in fleet size.
//   - Campaign state (stage index, per-shard cursors, outcome counters)
//     serializes to JSON via Checkpoint/Restore, so an interrupted
//     campaign resumes where it stopped without re-updating devices.
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
	// StatusPending: not yet attempted.
	StatusPending Status = iota + 1
	// StatusUpdated: running the target version.
	StatusUpdated
	// StatusFailed: all attempts exhausted.
	StatusFailed
	// StatusSkipped: campaign aborted before this device was attempted.
	StatusSkipped
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
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

// Policy tunes a campaign. The struct round-trips through JSON (the
// wire form of the control plane's POST /api/v1/campaigns body):
// durations are nanosecond integers, and the two function fields —
// Rand and OnResult — are process-local wiring that is deliberately
// excluded from the encoding.
type Policy struct {
	// CanaryFraction is the share of the fleet updated first
	// (rounded up, at least one device). Zero disables canarying.
	// Ignored when Stages is set.
	CanaryFraction float64 `json:"canary_fraction,omitempty"`
	// MaxCanaryFailureRate gates stage promotion: when a finished
	// stage's failure rate exceeds it, the campaign aborts before the
	// next stage starts (e.g. 0 = abort on any failure).
	MaxCanaryFailureRate float64 `json:"max_canary_failure_rate,omitempty"`
	// Stages lists cumulative fleet fractions for a staged rollout,
	// e.g. {0.01, 0.1, 1} updates 1% of the fleet, then up to 10%, then
	// everyone, with the MaxCanaryFailureRate gate applied between
	// stages. Fractions must be ascending in (0, 1]; a final 1 is
	// implied. When empty, CanaryFraction derives a two-stage rollout
	// (or a single full-fleet wave when that too is zero).
	Stages []float64 `json:"stages,omitempty"`
	// BreakerFailureRate, when > 0, arms a mid-wave circuit breaker:
	// once at least BreakerMinSample devices of the current stage have
	// completed and the stage's failure rate exceeds this threshold,
	// the campaign halts immediately — without waiting for the stage
	// boundary gate. Remaining devices are skipped and the run's error
	// wraps ErrBreakerTripped.
	BreakerFailureRate float64 `json:"breaker_failure_rate,omitempty"`
	// BreakerMinSample is the completed-device sample required before
	// the breaker may trip; 0 means DefaultBreakerMinSample.
	BreakerMinSample int `json:"breaker_min_sample,omitempty"`
	// MaxRetries is the number of extra attempts per device after the
	// first failure.
	MaxRetries int `json:"max_retries,omitempty"`
	// Parallelism bounds concurrent device updates; 0 means
	// DefaultParallelism. This is the exact worker-goroutine count: the
	// engine never holds more than Parallelism device updates in
	// flight, regardless of fleet size.
	Parallelism int `json:"parallelism,omitempty"`
	// Shards is the number of scheduling lanes devices are striped
	// across; 0 derives max(8, 2×Parallelism). More shards than
	// workers keeps the pool busy while long retry backoffs pin
	// individual lanes. The shard count is part of the checkpoint
	// format: a resumed campaign must use the same value.
	Shards int `json:"shards,omitempty"`
	// RetryBackoff is the base wait before retry n, growing as
	// RetryBackoff << (n-1) up to MaxRetryBackoff. Zero retries
	// immediately. The wait is interrupted by context cancellation.
	// Encoded in JSON as nanoseconds.
	RetryBackoff time.Duration `json:"retry_backoff_ns,omitempty"`
	// MaxRetryBackoff caps the exponential growth; 0 means
	// DefaultMaxRetryBackoff. The shift is clamped so large attempt
	// counts saturate at the cap instead of overflowing to a negative
	// (i.e. zero) wait. Encoded in JSON as nanoseconds.
	MaxRetryBackoff time.Duration `json:"max_retry_backoff_ns,omitempty"`
	// RetryJitter widens each backoff by a uniform factor in
	// [1, 1+RetryJitter), decorrelating retries across the fleet so a
	// wave of failures does not hammer the server in lockstep.
	RetryJitter float64 `json:"retry_jitter,omitempty"`
	// Rand supplies the jitter randomness in [0, 1); nil selects the
	// global math/rand.Float64. Inject a deterministic source to make
	// backoff schedules reproducible in tests. The source does not need
	// to be safe for concurrent use: the campaign serializes calls to it
	// even when Parallelism > 1. Not serialized.
	Rand func() float64 `json:"-"`
	// MaxResults bounds the per-device Result records retained in the
	// report: 0 means DefaultMaxResults, negative retains none. Outcome
	// counters are always exact regardless.
	MaxResults int `json:"max_results,omitempty"`
	// MaxErrors bounds the report's failed-device error sample: 0 means
	// DefaultMaxErrors, negative retains none. Errors beyond the bound
	// are counted in Report.ErrorsTruncated.
	MaxErrors int `json:"max_errors,omitempty"`
	// OnResult, when set, streams every device's terminal Result
	// (including skips) as it is recorded. Calls are serialized in
	// completion order. The callback runs on campaign worker
	// goroutines and must not block or call back into the campaign.
	// Not serialized.
	OnResult func(Result) `json:"-"`
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

// ErrCampaignPaused is the error RunContext returns after Pause halts
// the run. Unlike an abort, a pause leaves unattempted devices pending
// (not skipped): Checkpoint() captures an exact resume point and a
// later Restore + RunContext re-dispatches exactly the devices that
// never reached a terminal state.
var ErrCampaignPaused = errors.New("fleet: campaign paused")

// ErrNotRunning is returned by Pause when no RunContext is in flight.
var ErrNotRunning = errors.New("fleet: campaign is not running")

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

// StageSummary tallies one rollout stage. For a resumed campaign the
// summaries cover only the work performed by that run; cumulative
// outcome counts live in the Report totals.
type StageSummary struct {
	// Devices is the stage's size (device count), including devices
	// completed before a resume.
	Devices int `json:"devices"`
	Updated int `json:"updated"`
	Failed  int `json:"failed"`
	Skipped int `json:"skipped"`
}

// Report summarises a campaign. Aggregation is streaming: outcome
// counters and per-stage tallies are exact for any fleet size, while
// Results and Errors are bounded samples (Policy.MaxResults /
// Policy.MaxErrors) so the report stays O(1) in fleet size.
type Report struct {
	Target  uint16
	Devices int
	// Every device lands in exactly one outcome bucket, so
	// Updated+Failed+Skipped+Pending == Devices; Pending is only
	// non-zero when a resumed checkpoint was inconsistent.
	Updated int
	Failed  int
	Skipped int
	Pending int
	Aborted bool
	// Paused marks a run halted by Pause: unattempted devices stay
	// Pending and the campaign's Checkpoint resumes them.
	Paused bool
	// AbortReason says what halted an aborted campaign (stage gate,
	// circuit breaker, cancellation).
	AbortReason string
	// Stages tallies each rollout stage this run touched.
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
	shards int

	mu     sync.Mutex
	resume *Checkpoint // state to resume from, set by Restore
	last   *Checkpoint // state after the most recent run
	cur    *liveRun    // in-flight run, nil between runs
}

// liveRun is the concurrency-safe view of an in-flight RunContext —
// what Progress reads and Pause cancels. Everything here is either
// immutable after creation or atomic, so observers never contend with
// the worker pool.
type liveRun struct {
	agg     *aggregator
	started time.Time
	// baseDone is the completed-device count preloaded from a resume
	// checkpoint; throughput and ETA are computed on this run's work
	// only.
	baseDone int64
	stage    atomic.Int64
	st       atomic.Pointer[stageState]
	cancel   context.CancelFunc
	paused   atomic.Bool
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
	shards := policy.Shards
	if shards <= 0 {
		shards = max(8, 2*policy.parallelism())
	}
	shards = min(shards, len(devices))
	return &Campaign{
		target:  target,
		policy:  policy,
		devices: devices,
		rand01:  newRand01(policy),
		bounds:  stageBounds(len(devices), policy),
		shards:  shards,
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
// wraps ctx.Err(). The report still covers every device, and
// Checkpoint() afterwards captures where to resume.
//
// Pause (from another goroutine) halts the run the same way but leaves
// unattempted devices pending instead of skipped; the error is then
// ErrCampaignPaused. At most one RunContext may be in flight per
// campaign; a second concurrent call fails with ErrAlreadyRunning.
func (c *Campaign) RunContext(ctx context.Context) (*Report, error) {
	agg := newAggregator(c)
	rctx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	lr := &liveRun{agg: agg, started: time.Now(), cancel: cancelRun}
	c.mu.Lock()
	if c.cur != nil {
		c.mu.Unlock()
		return nil, ErrAlreadyRunning
	}
	c.cur = lr
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.cur = nil
		c.mu.Unlock()
	}()

	report := &Report{Target: c.target, Devices: len(c.devices)}
	defer func() {
		agg.fill(report)
		if c.tel != nil {
			report.SpanSummary = c.tel.Spans().Summary()
		}
	}()

	startStage := 0
	var preCursors []int
	preDone, preFailed := 0, 0
	if cp := c.resume; cp != nil {
		startStage = cp.Stage
		preCursors = append([]int(nil), cp.Cursors...)
		preDone, preFailed = cp.StageDone, cp.StageFailed
		agg.updated.Store(int64(cp.Updated))
		agg.failed.Store(int64(cp.Failed))
		lr.baseDone = int64(cp.Updated + cp.Failed)
	}

	for si := startStage; si < len(c.bounds); si++ {
		lo := 0
		if si > 0 {
			lo = c.bounds[si-1]
		}
		hi := c.bounds[si]
		st := newStageState(si, lo, hi, c.shards)
		if si == startStage && preCursors != nil {
			if err := st.preload(preCursors, preDone, preFailed); err != nil {
				return report, err
			}
		}
		lr.stage.Store(int64(si))
		lr.st.Store(st)
		c.met("upkit_campaign_waves_total", "Campaign waves started.",
			telemetry.L("stage", strconv.Itoa(si))).Inc()
		c.runStage(rctx, st, agg)

		stageDone := int(st.done.Load())
		stageFailed := int(st.failed.Load())
		if lr.paused.Load() {
			// A pause is not an abort: unattempted devices stay pending so
			// the checkpoint re-dispatches exactly them and nothing else.
			c.saveState(si, st, agg, false)
			report.Paused = true
			return report, ErrCampaignPaused
		}
		if err := ctx.Err(); err != nil {
			c.skipRemaining(st, si, agg)
			c.saveState(si, st, agg, false)
			report.Aborted = true
			report.AbortReason = fmt.Sprintf("canceled in stage %d: %v", si, err)
			return report, fmt.Errorf("fleet: campaign canceled: %w", err)
		}
		if st.tripped.Load() {
			c.met("upkit_campaign_breaker_trips_total", "Circuit-breaker trips.",
				telemetry.L("stage", strconv.Itoa(si))).Inc()
			c.skipRemaining(st, si, agg)
			c.saveState(si, st, agg, false)
			report.Aborted = true
			report.AbortReason = fmt.Sprintf("circuit breaker: %d of %d devices failed in stage %d",
				stageFailed, stageDone, si)
			return report, fmt.Errorf("%w: %d of %d devices failed in stage %d",
				ErrBreakerTripped, stageFailed, stageDone, si)
		}
		if si < len(c.bounds)-1 && stageDone > 0 {
			rate := float64(stageFailed) / float64(stageDone)
			if rate > c.policy.MaxCanaryFailureRate {
				c.skipRemaining(nil, si, agg)
				c.saveState(si+1, nil, agg, false)
				report.Aborted = true
				report.AbortReason = fmt.Sprintf("stage %d gate: %d of %d canaries failed",
					si, stageFailed, stageDone)
				return report, fmt.Errorf("%w: %d of %d canaries failed",
					ErrCampaignAborted, stageFailed, stageDone)
			}
		}
	}
	c.saveState(len(c.bounds), nil, agg, true)
	return report, nil
}

// Pause asks the in-flight RunContext to halt at the next safe point:
// workers stop claiming devices, in-flight attempts finish (retry
// backoffs are cut short), and RunContext returns ErrCampaignPaused
// with unattempted devices left pending. Safe to call from any
// goroutine; returns ErrNotRunning when no run is in flight. Note a
// device paused mid-retry-backoff lands StatusFailed with its last
// real error — the same terminal-attempt discipline cancellation uses.
func (c *Campaign) Pause() error {
	c.mu.Lock()
	lr := c.cur
	c.mu.Unlock()
	if lr == nil {
		return ErrNotRunning
	}
	lr.paused.Store(true)
	lr.cancel()
	return nil
}

// StageProgress is one stage's live tally within a Progress snapshot.
type StageProgress struct {
	// Devices is the stage's total size; Done counts terminal outcomes
	// the current run recorded in it (a resumed stage's earlier work is
	// in the campaign totals, not re-attributed to the stage).
	Devices int `json:"devices"`
	Done    int `json:"done"`
	Updated int `json:"updated"`
	Failed  int `json:"failed"`
	Skipped int `json:"skipped"`
}

// Progress is a concurrency-safe snapshot of a campaign — live while a
// run is in flight, final afterwards. All counters are exact; the
// throughput and ETA figures cover only the current run's work (a
// resumed campaign starts a fresh clock).
type Progress struct {
	Target  uint16 `json:"target"`
	Devices int    `json:"devices"`
	Updated int    `json:"updated"`
	Failed  int    `json:"failed"`
	Skipped int    `json:"skipped"`
	Pending int    `json:"pending"`
	// Running reports whether a RunContext is in flight; Paused whether
	// the in-flight run has been asked to pause (or, between runs,
	// nothing — a manager tracks lifecycle state above this).
	Running bool `json:"running"`
	Paused  bool `json:"paused"`
	// Stage is the index of the stage in progress (or the next to run);
	// Stages tallies every stage touched so far.
	Stage  int             `json:"stage"`
	Stages []StageProgress `json:"stages,omitempty"`
	// BreakerTripped reports the current stage's circuit breaker.
	BreakerTripped bool `json:"breaker_tripped,omitempty"`
	// ElapsedSeconds is the current run's age; zero between runs.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	// DevicesPerSecond is this run's terminal-outcome rate, and
	// ETASeconds extrapolates it over the pending devices; both zero
	// when idle or no device has completed yet.
	DevicesPerSecond float64 `json:"devices_per_second,omitempty"`
	ETASeconds       float64 `json:"eta_seconds,omitempty"`
}

// Progress snapshots the campaign without disturbing it: atomic
// counter reads plus one short lock on the report aggregator. Before
// any run it reports the armed resume checkpoint (if any); after a run
// it reports the final state.
func (c *Campaign) Progress() Progress {
	p := Progress{Target: c.target, Devices: len(c.devices)}
	c.mu.Lock()
	lr := c.cur
	last := c.last
	resume := c.resume
	c.mu.Unlock()

	switch {
	case lr != nil:
		p.Running = true
		p.Paused = lr.paused.Load()
		p.Updated = int(lr.agg.updated.Load())
		p.Failed = int(lr.agg.failed.Load())
		p.Skipped = int(lr.agg.skipped.Load())
		p.Stage = int(lr.stage.Load())
		if st := lr.st.Load(); st != nil {
			p.BreakerTripped = st.tripped.Load()
		}
		p.Stages = lr.agg.stageProgress()
		elapsed := time.Since(lr.started).Seconds()
		p.ElapsedSeconds = elapsed
		if runDone := int64(p.Updated+p.Failed) - lr.baseDone; runDone > 0 && elapsed > 0 {
			p.DevicesPerSecond = float64(runDone) / elapsed
		}
	case last != nil:
		p.Updated = last.Updated
		p.Failed = last.Failed
		p.Stage = last.Stage
	case resume != nil:
		p.Updated = resume.Updated
		p.Failed = resume.Failed
		p.Stage = resume.Stage
	}
	p.Pending = max(0, p.Devices-p.Updated-p.Failed-p.Skipped)
	if p.DevicesPerSecond > 0 {
		p.ETASeconds = float64(p.Pending) / p.DevicesPerSecond
	}
	return p
}

// met resolves a counter on the campaign's registry (nil-safe).
func (c *Campaign) met(name, help string, labels ...telemetry.Label) *telemetry.Counter {
	return c.tel.Counter(name, help, labels...)
}

// shardLane is one sequential scheduling lane: positions
// lo+s, lo+s+S, lo+s+2S, … of the current stage. busy enforces at most
// one in-flight device per lane, which keeps next an exact completed
// prefix — the property the checkpoint format relies on.
type shardLane struct {
	busy atomic.Bool
	next int // completed positions (only touched while busy is held)
	size int
}

// stageState is the scheduling state of one rollout stage.
type stageState struct {
	index     int
	lo, hi    int
	lanes     []shardLane
	remaining atomic.Int64
	// done/failed include work preloaded from a checkpoint; runDone/
	// runFailed count only this run, which is what the breaker
	// evaluates (a resumed campaign gets a fresh breaker window).
	done, failed       atomic.Int64
	runDone, runFailed atomic.Int64
	tripped            atomic.Bool
	rr                 atomic.Uint64
	cancel             context.CancelFunc
}

func newStageState(index, lo, hi, shards int) *stageState {
	st := &stageState{index: index, lo: lo, hi: hi, lanes: make([]shardLane, shards)}
	size := hi - lo
	for s := range st.lanes {
		if s < size {
			st.lanes[s].size = (size - s + shards - 1) / shards
		}
	}
	st.remaining.Store(int64(size))
	return st
}

// preload seeds the stage from checkpoint cursors: cursor positions are
// already complete and are not re-scheduled.
func (st *stageState) preload(cursors []int, done, failed int) error {
	if len(cursors) != len(st.lanes) {
		return fmt.Errorf("fleet: checkpoint has %d shard cursors, campaign has %d shards",
			len(cursors), len(st.lanes))
	}
	completed := 0
	for s := range st.lanes {
		if cursors[s] < 0 || cursors[s] > st.lanes[s].size {
			return fmt.Errorf("fleet: checkpoint cursor %d out of range for shard %d (size %d)",
				cursors[s], s, st.lanes[s].size)
		}
		st.lanes[s].next = cursors[s]
		completed += cursors[s]
	}
	st.remaining.Add(int64(-completed))
	st.done.Store(int64(done))
	st.failed.Store(int64(failed))
	return nil
}

// runStage drives the stage with a fixed worker pool. Goroutine count
// during a campaign is exactly Policy.Parallelism plus the caller.
func (c *Campaign) runStage(parent context.Context, st *stageState, agg *aggregator) {
	if st.remaining.Load() == 0 {
		return
	}
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

// stageWorker claims devices from shard lanes until the stage drains,
// the context is canceled, or the breaker trips. A lane is held for the
// whole device update so its cursor stays a completed prefix.
func (c *Campaign) stageWorker(ctx context.Context, st *stageState, agg *aggregator) {
	n := uint64(len(st.lanes))
	for {
		if ctx.Err() != nil || st.tripped.Load() || st.remaining.Load() <= 0 {
			return
		}
		claimed := false
		start := st.rr.Add(1)
		for i := uint64(0); i < n; i++ {
			s := int((start + i) % n)
			sh := &st.lanes[s]
			if !sh.busy.CompareAndSwap(false, true) {
				continue
			}
			if sh.next >= sh.size {
				sh.busy.Store(false)
				continue
			}
			// Re-check halt conditions after the claim: a device not yet
			// started when the campaign halts must stay unclaimed so the
			// checkpoint re-schedules it.
			if ctx.Err() != nil || st.tripped.Load() {
				sh.busy.Store(false)
				return
			}
			idx := st.lo + s + sh.next*len(st.lanes)
			res := c.updateOne(ctx, c.devices[idx])
			agg.record(res, st.index)
			sh.next++
			st.remaining.Add(-1)
			c.noteStageResult(st, res.Status == StatusFailed)
			sh.busy.Store(false)
			claimed = true
			break
		}
		if !claimed {
			// Every lane with work is held by another worker; wait for an
			// in-flight update to release one.
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// noteStageResult updates stage tallies and evaluates the circuit
// breaker on this run's completions.
func (c *Campaign) noteStageResult(st *stageState, failed bool) {
	st.done.Add(1)
	runDone := st.runDone.Add(1)
	var runFailed int64
	if failed {
		st.failed.Add(1)
		runFailed = st.runFailed.Add(1)
	} else {
		runFailed = st.runFailed.Load()
	}
	if c.policy.BreakerFailureRate <= 0 || int(runDone) < c.policy.breakerMinSample() {
		return
	}
	if float64(runFailed)/float64(runDone) > c.policy.BreakerFailureRate {
		if st.tripped.CompareAndSwap(false, true) && st.cancel != nil {
			// Cut in-flight retry backoffs short; the devices finish their
			// current attempt and land StatusFailed with their real error.
			st.cancel()
		}
	}
}

// skipRemaining records StatusSkipped for every unattempted device: the
// tail of the current stage (when st is non-nil) and all later stages.
func (c *Campaign) skipRemaining(st *stageState, si int, agg *aggregator) {
	skip := func(idx, stage int) {
		d := c.devices[idx]
		agg.record(Result{DeviceID: d.ID(), Status: StatusSkipped, Version: d.Version()}, stage)
	}
	if st != nil {
		for s := range st.lanes {
			sh := &st.lanes[s]
			for k := sh.next; k < sh.size; k++ {
				skip(st.lo+s+k*len(st.lanes), si)
			}
		}
	}
	for sj := si + 1; sj < len(c.bounds); sj++ {
		for idx := c.bounds[sj-1]; idx < c.bounds[sj]; idx++ {
			skip(idx, sj)
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

// aggregator is the streaming report sink: exact atomic counters plus
// bounded result/error samples under one mutex.
type aggregator struct {
	c       *Campaign
	updated atomic.Int64
	failed  atomic.Int64
	skipped atomic.Int64

	mu               sync.Mutex
	stages           map[int]*StageSummary
	results          []Result
	resultsTruncated int
	errs             []CampaignError
	errsTruncated    int
	maxResults       int
	maxErrors        int
}

func newAggregator(c *Campaign) *aggregator {
	return &aggregator{
		c:          c,
		stages:     make(map[int]*StageSummary),
		maxResults: c.policy.maxResults(),
		maxErrors:  c.policy.maxErrors(),
	}
}

// record stores one device's terminal outcome: counters, stage tally,
// bounded samples, telemetry, and the streaming sink.
func (a *aggregator) record(res Result, stage int) {
	switch res.Status {
	case StatusUpdated:
		a.updated.Add(1)
	case StatusFailed:
		a.failed.Add(1)
	case StatusSkipped:
		a.skipped.Add(1)
	}
	if a.c.tel != nil {
		a.c.met("upkit_campaign_devices_total", "Campaign device outcomes.",
			telemetry.L("status", res.Status.String())).Inc()
	}
	a.mu.Lock()
	ss := a.stages[stage]
	if ss == nil {
		ss = &StageSummary{}
		a.stages[stage] = ss
	}
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
	sink := a.c.policy.OnResult
	if sink != nil {
		sink(res)
	}
	a.mu.Unlock()
}

// stageProgress snapshots the per-stage tallies for Progress, sized
// from the campaign's stage bounds.
func (a *aggregator) stageProgress() []StageProgress {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []StageProgress
	for si := range a.c.bounds {
		ss, ok := a.stages[si]
		if !ok {
			continue
		}
		lo := 0
		if si > 0 {
			lo = a.c.bounds[si-1]
		}
		out = append(out, StageProgress{
			Devices: a.c.bounds[si] - lo,
			Done:    ss.Updated + ss.Failed + ss.Skipped,
			Updated: ss.Updated,
			Failed:  ss.Failed,
			Skipped: ss.Skipped,
		})
	}
	return out
}

// fill finalises the report from the aggregated state.
func (a *aggregator) fill(r *Report) {
	r.Updated = int(a.updated.Load())
	r.Failed = int(a.failed.Load())
	r.Skipped = int(a.skipped.Load())
	if p := r.Devices - r.Updated - r.Failed - r.Skipped; p > 0 {
		r.Pending = p
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	r.Results = a.results
	r.ResultsTruncated = a.resultsTruncated
	r.Errors = a.errs
	r.ErrorsTruncated = a.errsTruncated
	r.Stages = nil
	for si := range a.c.bounds {
		ss, ok := a.stages[si]
		if !ok {
			continue
		}
		lo := 0
		if si > 0 {
			lo = a.c.bounds[si-1]
		}
		out := *ss
		out.Devices = a.c.bounds[si] - lo
		r.Stages = append(r.Stages, out)
	}
}

// Render returns a sorted, human-readable campaign summary.
func (r *Report) Render() string {
	out := fmt.Sprintf("campaign to v%d: %d updated, %d failed, %d skipped, %d pending",
		r.Target, r.Updated, r.Failed, r.Skipped, r.Pending)
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
