package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Phase spans trace one update end-to-end across the paper's four
// phases (§VI, Fig. 8a): generation on the servers, propagation over
// the proxy and radio, verification on the device, loading in the
// bootloader. A span is keyed by (device ID, app ID, from→to version) —
// the same tuple the double signature binds — so every component that
// touches the update can contribute its phase without any of them
// owning the span's lifecycle.
//
// Durations are whatever clock the contributing component runs on:
// server phases are host time (the servers are real hardware in this
// reproduction, as in the paper), device phases are virtual time from
// the device's simclock. Both are time.Duration and land in the same
// span; §VI of the paper mixes its clock domains the same way.

// Phase names one of the paper's four update phases.
type Phase string

// The four phases of Fig. 8a, in pipeline order.
const (
	PhaseGeneration   Phase = "generation"
	PhasePropagation  Phase = "propagation"
	PhaseVerification Phase = "verification"
	PhaseLoading      Phase = "loading"
)

// AllPhases lists the phases in pipeline order.
var AllPhases = []Phase{PhaseGeneration, PhasePropagation, PhaseVerification, PhaseLoading}

// SpanKey identifies one update flow.
type SpanKey struct {
	DeviceID uint32
	AppID    uint32
	From     uint16
	To       uint16
}

// String renders "device 0xd0d0cafe app 0x2a v1→v2".
func (k SpanKey) String() string {
	return fmt.Sprintf("device %#x app %#x v%d→v%d", k.DeviceID, k.AppID, k.From, k.To)
}

// Span is one update's accumulated phase breakdown.
type Span struct {
	Key SpanKey
	// Phases maps each contributed phase to its accumulated duration.
	Phases map[Phase]time.Duration
	// Outcome is set when the span ends ("installed", "rolled-back",
	// "rejected-manifest", ...). Empty while the span is active.
	Outcome string
}

// Total sums all phase durations.
func (s Span) Total() time.Duration {
	var sum time.Duration
	for _, d := range s.Phases {
		sum += d
	}
	return sum
}

// String renders a one-line summary suitable for operator logs.
func (s Span) String() string {
	parts := make([]string, 0, len(AllPhases)+1)
	for _, p := range AllPhases {
		if d, ok := s.Phases[p]; ok {
			parts = append(parts, fmt.Sprintf("%s %.3fs", p, d.Seconds()))
		}
	}
	out := fmt.Sprintf("%s: %s (total %.3fs)", s.Key, strings.Join(parts, ", "), s.Total().Seconds())
	if s.Outcome != "" {
		out += " — " + s.Outcome
	}
	return out
}

// clone deep-copies the span so snapshots never alias tracer state.
func (s Span) clone() Span {
	phases := make(map[Phase]time.Duration, len(s.Phases))
	for p, d := range s.Phases {
		phases[p] = d
	}
	return Span{Key: s.Key, Phases: phases, Outcome: s.Outcome}
}

// DefaultSpanCapacity bounds the completed-span ring of a new tracer.
const DefaultSpanCapacity = 256

// Tracer collects phase spans. Safe for concurrent use; a nil *Tracer
// drops everything, so contributors never need nil checks.
type Tracer struct {
	mu        sync.Mutex
	capacity  int
	active    map[SpanKey]*Span
	completed []Span // ring, oldest first up to capacity
}

func newTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Tracer{capacity: capacity, active: make(map[SpanKey]*Span)}
}

// Record charges d to the given phase of the span identified by key,
// creating the span on first contribution. Negative durations are
// clamped to zero (a phase happened, even if it was unmeasurably fast).
func (t *Tracer) Record(key SpanKey, phase Phase, d time.Duration) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.active[key]
	if !ok {
		s = &Span{Key: key, Phases: make(map[Phase]time.Duration)}
		t.active[key] = s
	}
	s.Phases[phase] += d
}

// End completes the span for key with the given outcome and moves it to
// the completed ring. Ending an unknown key records an empty completed
// span (the outcome is still operationally interesting — e.g. a
// rejection before any phase was measured).
func (t *Tracer) End(key SpanKey, outcome string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.active[key]
	if !ok {
		s = &Span{Key: key, Phases: make(map[Phase]time.Duration)}
	} else {
		delete(t.active, key)
	}
	s.Outcome = outcome
	if len(t.completed) >= t.capacity {
		t.completed = append(t.completed[1:], *s)
	} else {
		t.completed = append(t.completed, *s)
	}
}

// Completed snapshots the retained completed spans, oldest first.
func (t *Tracer) Completed() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.completed))
	for i, s := range t.completed {
		out[i] = s.clone()
	}
	return out
}

// Summary renders an operator-facing digest: per-phase totals over the
// retained completed spans plus the count of active ones.
func (t *Tracer) Summary() string {
	if t == nil {
		return "no tracer"
	}
	completed := t.Completed()
	t.mu.Lock()
	activeN := len(t.active)
	t.mu.Unlock()
	if len(completed) == 0 && activeN == 0 {
		return "no spans recorded"
	}
	totals := make(map[Phase]time.Duration)
	for _, s := range completed {
		for p, d := range s.Phases {
			totals[p] += d
		}
	}
	parts := make([]string, 0, len(AllPhases))
	for _, p := range AllPhases {
		if d, ok := totals[p]; ok {
			parts = append(parts, fmt.Sprintf("%s %.3fs", p, d.Seconds()))
		}
	}
	return fmt.Sprintf("%d completed spans (%s), %d active", len(completed), strings.Join(parts, ", "), activeN)
}
