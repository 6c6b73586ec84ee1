package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"upkit/internal/telemetry"
)

// fakeDevice is a scriptable Updater.
type fakeDevice struct {
	id       uint32
	version  atomic.Uint32
	failures atomic.Int32 // TryUpdate fails while > 0
	attempts atomic.Int32
	target   uint16
}

func newFake(id uint32, version uint16, failures int) *fakeDevice {
	d := &fakeDevice{id: id, target: 0}
	d.version.Store(uint32(version))
	d.failures.Store(int32(failures))
	return d
}

func (d *fakeDevice) ID() uint32      { return d.id }
func (d *fakeDevice) Version() uint16 { return uint16(d.version.Load()) }
func (d *fakeDevice) TryUpdate() (uint16, error) {
	d.attempts.Add(1)
	if d.failures.Add(-1) >= 0 {
		return d.Version(), errors.New("radio glitch")
	}
	d.version.Store(uint32(d.target))
	return d.target, nil
}

func makeFleet(n int, version uint16, target uint16) []*fakeDevice {
	out := make([]*fakeDevice, n)
	for i := range out {
		out[i] = newFake(uint32(0x100+i), version, 0)
		out[i].target = target
	}
	return out
}

func updaters(devs []*fakeDevice) []Updater {
	out := make([]Updater, len(devs))
	for i, d := range devs {
		out[i] = d
	}
	return out
}

// checkCounts asserts the report's outcome tallies and the bucket
// invariant: every device lands in exactly one of the three states, so
// the counts always sum to the fleet size.
func checkCounts(t *testing.T, report *Report, updated, failed, skipped int) {
	t.Helper()
	u, f, s := report.Updated, report.Failed, report.Skipped
	if u != updated || f != failed || s != skipped {
		t.Fatalf("counts = %d/%d/%d, want %d/%d/%d\n%s",
			u, f, s, updated, failed, skipped, report.Render())
	}
	if u+f+s != report.Devices {
		t.Fatalf("counts %d+%d+%d != %d devices", u, f, s, report.Devices)
	}
}

func TestCampaignAllSucceed(t *testing.T) {
	devs := makeFleet(10, 1, 2)
	c, err := New(2, Policy{CanaryFraction: 0.2, MaxRetries: 1}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkCounts(t, report, 10, 0, 0)
	for _, d := range devs {
		if d.Version() != 2 {
			t.Fatalf("device %#x on v%d", d.id, d.Version())
		}
	}
}

func TestCanaryGateAbortsCampaign(t *testing.T) {
	devs := makeFleet(10, 1, 2)
	// The first two devices (the canaries) never succeed.
	devs[0].failures.Store(1000)
	devs[1].failures.Store(1000)
	c, err := New(2, Policy{CanaryFraction: 0.2, MaxCanaryFailureRate: 0.4, MaxRetries: 1}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if !errors.Is(err, ErrCampaignAborted) {
		t.Fatalf("error = %v, want ErrCampaignAborted", err)
	}
	if !report.Aborted {
		t.Fatal("report not marked aborted")
	}
	checkCounts(t, report, 0, 2, 8)
	// The general population must never have been touched.
	for _, d := range devs[2:] {
		if d.attempts.Load() != 0 {
			t.Fatalf("non-canary device %#x was attempted during an aborted campaign", d.id)
		}
	}
}

func TestCanaryGateTolerance(t *testing.T) {
	devs := makeFleet(10, 1, 2)
	devs[0].failures.Store(1000) // 1 of 5 canaries fails = 20%
	c, err := New(2, Policy{CanaryFraction: 0.5, MaxCanaryFailureRate: 0.25, MaxRetries: 0}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v (20%% failure is under the 25%% gate)", err)
	}
	checkCounts(t, report, 9, 1, 0)
}

func TestRetriesRecoverTransientFailures(t *testing.T) {
	devs := makeFleet(4, 1, 2)
	devs[2].failures.Store(2) // fails twice, then succeeds
	c, err := New(2, Policy{MaxRetries: 2}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, report, 4, 0, 0)
	for _, res := range report.Results {
		if res.DeviceID == devs[2].id && res.Attempts != 3 {
			t.Fatalf("flaky device attempts = %d, want 3", res.Attempts)
		}
	}
}

func TestAlreadyCurrentDevicesSkipAttempts(t *testing.T) {
	devs := makeFleet(3, 2, 2) // already on the target
	c, err := New(2, Policy{}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, report, 3, 0, 0)
	for _, d := range devs {
		if d.attempts.Load() != 0 {
			t.Fatal("already-current device was attempted")
		}
	}
}

func TestDeviceEndingOnWrongVersionFails(t *testing.T) {
	d := newFake(0x1, 1, 0)
	d.target = 2 // updates, but the campaign wants v3
	c, err := New(3, Policy{MaxRetries: 0}, []Updater{d})
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Results[0].Status != StatusFailed {
		t.Fatalf("status = %v, want failed", report.Results[0].Status)
	}
	if report.Results[0].Err == nil {
		t.Fatal("failed result missing error")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, Policy{}, nil); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := New(0, Policy{}, []Updater{newFake(1, 1, 0)}); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := New(1, Policy{CanaryFraction: 1.5}, []Updater{newFake(1, 1, 0)}); err == nil {
		t.Error("canary fraction 1.5 accepted")
	}
}

func TestParallelWaves(t *testing.T) {
	devs := makeFleet(64, 1, 2)
	c, err := New(2, Policy{Parallelism: 16}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, report, 64, 0, 0)
}

func TestReportRender(t *testing.T) {
	devs := makeFleet(2, 1, 2)
	c, err := New(2, Policy{}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := report.Render()
	for _, want := range []string{"campaign to v2", "2 updated", "updated"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ABORTED") {
		t.Error("non-aborted campaign rendered as aborted")
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{StatusUpdated, StatusFailed, StatusSkipped, Status(9)} {
		if s.String() == "" {
			t.Errorf("Status(%d).String() empty", int(s))
		}
	}
	_ = fmt.Sprint(StatusUpdated)
}

// cancelAfterUpdate cancels the campaign context once its own update
// finishes, simulating an operator pulling the plug mid-rollout.
type cancelAfterUpdate struct {
	*fakeDevice
	cancel context.CancelFunc
}

func (d *cancelAfterUpdate) TryUpdate() (uint16, error) {
	v, err := d.fakeDevice.TryUpdate()
	d.cancel()
	return v, err
}

func TestRunContextPreCanceled(t *testing.T) {
	devs := makeFleet(6, 1, 2)
	c, err := New(2, Policy{CanaryFraction: 0.34, Parallelism: 2}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := c.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if !report.Aborted {
		t.Fatal("report not marked aborted")
	}
	checkCounts(t, report, 0, 0, 6)
	for _, d := range devs {
		if d.attempts.Load() != 0 {
			t.Fatalf("device %#x attempted under a canceled context", d.id)
		}
	}
}

func TestRunContextCanceledBetweenWaves(t *testing.T) {
	devs := makeFleet(5, 1, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The single canary cancels the context on success; the general
	// population must then be skipped, not attempted.
	ups := updaters(devs)
	ups[0] = &cancelAfterUpdate{fakeDevice: devs[0], cancel: cancel}
	reg := telemetry.NewRegistry()
	c, err := New(2, Policy{CanaryFraction: 0.2, MaxRetries: 2}, ups)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTelemetry(reg)
	report, err := c.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	checkCounts(t, report, 1, 0, 4)
	for _, d := range devs[1:] {
		if d.attempts.Load() != 0 {
			t.Fatalf("device %#x attempted after cancellation", d.id)
		}
	}
	if got := reg.Counter("upkit_campaign_devices_total", "", telemetry.L("status", "skipped")).Value(); got != 4 {
		t.Errorf("upkit_campaign_devices_total{status=skipped} = %d, want 4", got)
	}
	if got := reg.Counter("upkit_campaign_devices_total", "", telemetry.L("status", "updated")).Value(); got != 1 {
		t.Errorf("upkit_campaign_devices_total{status=updated} = %d, want 1", got)
	}
}

// TestRetryJitterInjectableRand pins the backoff schedule with an
// injected randomness source: the jitter math becomes exact, and the
// campaign consults Policy.Rand (not the global math/rand) once per
// retry wait.
func TestRetryJitterInjectableRand(t *testing.T) {
	p := Policy{RetryBackoff: 100 * time.Millisecond, RetryJitter: 0.5}
	half := func() float64 { return 0.5 }
	if got := retryDelay(p, 1, half); got != 125*time.Millisecond {
		t.Errorf("retry 1 delay = %v, want 125ms", got)
	}
	if got := retryDelay(p, 2, half); got != 250*time.Millisecond {
		t.Errorf("retry 2 delay = %v, want 250ms", got)
	}
	zero := func() float64 { return 0 }
	if got := retryDelay(p, 1, zero); got != 100*time.Millisecond {
		t.Errorf("retry 1 delay with zero jitter draw = %v, want 100ms", got)
	}

	var calls atomic.Int32
	dev := newFake(0x42, 1, 2) // two failures, then success
	dev.target = 2
	c, err := New(2, Policy{
		MaxRetries:   2,
		RetryBackoff: time.Nanosecond,
		RetryJitter:  1,
		Rand:         func() float64 { calls.Add(1); return 0 },
	}, updaters([]*fakeDevice{dev}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, rep, 1, 0, 0)
	// Three attempts means two retry waits, each drawing exactly once.
	if got := calls.Load(); got != 2 {
		t.Fatalf("Policy.Rand consulted %d times, want 2", got)
	}
}

// TestInjectedRandSerializedAcrossWaveGoroutines drives jittered
// retries across a parallel wave with an injected *rand.Rand closure —
// a source with no internal locking. The campaign must serialize the
// draws; under -race this test fails if wave goroutines reach the
// source concurrently.
func TestInjectedRandSerializedAcrossWaveGoroutines(t *testing.T) {
	devs := makeFleet(16, 1, 2)
	for _, d := range devs {
		d.failures.Store(2) // every device retries twice, drawing jitter
	}
	rng := rand.New(rand.NewSource(7))
	c, err := New(2, Policy{
		Parallelism:  8,
		MaxRetries:   3,
		RetryBackoff: time.Nanosecond,
		RetryJitter:  1,
		Rand:         rng.Float64,
	}, updaters(devs))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, report, 16, 0, 0)
}
