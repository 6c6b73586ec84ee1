package events

import (
	"strings"
	"sync"
	"testing"
	"time"

	"upkit/internal/simclock"
)

func TestEmitAndEvents(t *testing.T) {
	clock := simclock.New()
	l := NewLog(clock, 8)
	l.Emit(KindTokenIssued, 1, "nonce 0x1")
	clock.Advance(2 * time.Second)
	l.Emit(KindManifestAccepted, 2, "")

	events := l.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].Kind != KindTokenIssued || events[0].At != 0 {
		t.Fatalf("first = %+v", events[0])
	}
	if events[1].Kind != KindManifestAccepted || events[1].At != 2*time.Second {
		t.Fatalf("second = %+v", events[1])
	}
}

func TestRingEviction(t *testing.T) {
	l := NewLog(nil, 3)
	for v := uint16(1); v <= 5; v++ {
		l.Emit(KindRebooted, v, "")
	}
	events := l.Events()
	if len(events) != 3 {
		t.Fatalf("retained = %d, want 3", len(events))
	}
	// Oldest first: versions 3, 4, 5.
	for i, want := range []uint16{3, 4, 5} {
		if events[i].Version != want {
			t.Fatalf("events[%d].Version = %d, want %d", i, events[i].Version, want)
		}
	}
}

func TestCount(t *testing.T) {
	l := NewLog(nil, 8)
	l.Emit(KindManifestRejected, 2, "nonce mismatch")
	l.Emit(KindManifestAccepted, 3, "")
	l.Emit(KindManifestRejected, 4, "downgrade")

	if got := l.Count(KindRolledBack); got != 0 {
		t.Fatalf("Count of a kind never emitted = %d, want 0", got)
	}
	if got := l.Count(KindManifestRejected); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Emit(KindRebooted, 1, "") // must not panic
	if l.Events() != nil {
		t.Fatal("nil log should return nil events")
	}
}

func TestConcurrentEmit(t *testing.T) {
	l := NewLog(nil, 128)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				l.Emit(KindRebooted, 1, "")
			}
		}()
	}
	wg.Wait()
	if got := l.Count(KindRebooted); got != 128 {
		t.Fatalf("retained = %d, want full ring (128)", got)
	}
}

func TestRendering(t *testing.T) {
	clock := simclock.New()
	clock.Advance(12340 * time.Millisecond)
	l := NewLog(clock, 4)
	l.Emit(KindManifestRejected, 2, "nonce mismatch")
	out := l.String()
	for _, want := range []string{"12.34s", "manifest-rejected", "v2", "nonce mismatch"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{
		KindTokenIssued, KindManifestAccepted, KindManifestRejected,
		KindFirmwareVerified, KindFirmwareRejected, KindUpdateStaged,
		KindRebooted, KindBootVerified, KindInstalled, KindRolledBack,
		KindSwapResumed, KindBootFailed, Kind(99),
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" {
			t.Errorf("Kind(%d).String() empty", int(k))
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}
