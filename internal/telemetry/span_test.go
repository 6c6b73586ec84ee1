package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestSpanLifecycle(t *testing.T) {
	tr := newTracer(0)
	key := SpanKey{DeviceID: 0xD0D0CAFE, AppID: 0x2A, From: 1, To: 2}

	tr.Record(key, PhaseGeneration, 10*time.Millisecond)
	tr.Record(key, PhasePropagation, 40*time.Second)
	tr.Record(key, PhaseVerification, time.Second)
	tr.Record(key, PhaseVerification, time.Second) // accumulates
	tr.Record(key, PhaseLoading, 12*time.Second)

	if len(tr.active) != 1 {
		t.Fatalf("active = %d spans, want 1", len(tr.active))
	}
	if got := len(tr.active[key].Phases); got != len(AllPhases) {
		t.Fatalf("span %v has %d phases, want all %d", tr.active[key], got, len(AllPhases))
	}
	if got := tr.active[key].Phases[PhaseVerification]; got != 2*time.Second {
		t.Fatalf("verification = %v, want 2s", got)
	}

	tr.End(key, "installed")
	if len(tr.active) != 0 {
		t.Fatal("span still active after End")
	}
	done := tr.Completed()
	if len(done) != 1 {
		t.Fatalf("completed = %d spans, want 1", len(done))
	}
	if done[0].Outcome != "installed" {
		t.Fatalf("outcome = %q", done[0].Outcome)
	}
	want := 10*time.Millisecond + 40*time.Second + 2*time.Second + 12*time.Second
	if got := done[0].Total(); got != want {
		t.Fatalf("total = %v, want %v", got, want)
	}
	if s := done[0].String(); !strings.Contains(s, "v1→v2") || !strings.Contains(s, "installed") {
		t.Fatalf("render = %q", s)
	}
}

func TestSpanRingBound(t *testing.T) {
	tr := newTracer(2)
	for i := range 5 {
		key := SpanKey{DeviceID: uint32(i)}
		tr.Record(key, PhaseGeneration, time.Millisecond)
		tr.End(key, "done")
	}
	done := tr.Completed()
	if len(done) != 2 {
		t.Fatalf("ring holds %d, want 2", len(done))
	}
	if done[0].Key.DeviceID != 3 || done[1].Key.DeviceID != 4 {
		t.Fatalf("ring kept %v, %v; want devices 3, 4", done[0].Key, done[1].Key)
	}
}

func TestEndUnknownKey(t *testing.T) {
	tr := newTracer(0)
	tr.End(SpanKey{DeviceID: 1}, "rejected-manifest")
	done := tr.Completed()
	if len(done) != 1 || done[0].Outcome != "rejected-manifest" {
		t.Fatalf("completed = %+v", done)
	}
	if len(done[0].Phases) != 0 {
		t.Fatalf("empty span has phases %v", done[0].Phases)
	}
}

func TestSummary(t *testing.T) {
	tr := newTracer(0)
	if got := tr.Summary(); got != "no spans recorded" {
		t.Fatalf("empty summary = %q", got)
	}
	key := SpanKey{DeviceID: 1, AppID: 2, From: 1, To: 2}
	tr.Record(key, PhaseGeneration, time.Second)
	tr.End(key, "installed")
	tr.Record(SpanKey{DeviceID: 9}, PhasePropagation, time.Second)
	sum := tr.Summary()
	if !strings.Contains(sum, "1 completed") || !strings.Contains(sum, "1 active") {
		t.Fatalf("summary = %q", sum)
	}
}

func TestSnapshotsDoNotAlias(t *testing.T) {
	tr := newTracer(0)
	key := SpanKey{DeviceID: 1}
	tr.Record(key, PhaseGeneration, time.Second)
	tr.End(key, "installed")
	snap := tr.Completed()
	snap[0].Phases[PhaseGeneration] = 99 * time.Hour
	if got := tr.Completed()[0].Phases[PhaseGeneration]; got != time.Second {
		t.Fatalf("tracer state mutated through snapshot: %v", got)
	}
}
