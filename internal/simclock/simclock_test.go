package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAdvanceAccumulates(t *testing.T) {
	c := New()
	c.Advance(3 * time.Second)
	c.Advance(2 * time.Second)
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", got)
	}
}

func TestAdvanceIgnoresNegative(t *testing.T) {
	c := New()
	c.Advance(time.Second)
	c.Advance(-time.Hour)
	if got := c.Now(); got != time.Second {
		t.Fatalf("Now() = %v, want 1s (negative advance must be ignored)", got)
	}
}

func TestAdvanceZeroIsNoop(t *testing.T) {
	c := New()
	c.Advance(0)
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAdvanceConcurrent(t *testing.T) {
	c := New()
	const (
		goroutines = 16
		perG       = 1000
	)
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perG {
				c.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	want := time.Duration(goroutines*perG) * time.Millisecond
	if got := c.Now(); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestTimerPhases(t *testing.T) {
	c := New()
	tm := NewTimer(c)
	err := tm.Measure("propagation", func() error {
		c.Advance(4 * time.Second)
		return nil
	})
	if err != nil {
		t.Fatalf("Measure returned error: %v", err)
	}
	tm.Add("loading", 2*time.Second)
	tm.Add("loading", time.Second)

	if got := tm.Phase("propagation"); got != 4*time.Second {
		t.Errorf("Phase(propagation) = %v, want 4s", got)
	}
	if got := tm.Phase("loading"); got != 3*time.Second {
		t.Errorf("Phase(loading) = %v, want 3s", got)
	}
}

func TestTimerSnapshotIsCopy(t *testing.T) {
	c := New()
	tm := NewTimer(c)
	tm.Add("a", time.Second)
	snap := tm.Snapshot()
	snap["a"] = time.Hour
	if got := tm.Phase("a"); got != time.Second {
		t.Fatalf("mutating snapshot leaked into timer: Phase(a) = %v", got)
	}
}

func TestTimerMeasurePropagatesError(t *testing.T) {
	c := New()
	tm := NewTimer(c)
	sentinel := errSentinel{}
	if err := tm.Measure("p", func() error { return sentinel }); err != sentinel {
		t.Fatalf("Measure error = %v, want sentinel", err)
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }
