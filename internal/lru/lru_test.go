package lru

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func byLen(s string) int { return len(s) }

// keys walks c, least recently used first.
func keys(c *Cache[int, string]) []int {
	var out []int
	c.Walk(func(k int, _ string) { out = append(out, k) })
	return out
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEvictsLeastRecentlyUsedButKeepsNewest(t *testing.T) {
	c := New[int, string](10, byLen)
	c.Add(1, "aaaa")
	c.Add(2, "bbbb")
	c.Get(1) // 2 is now the cold end
	c.Add(3, "cccc")
	if got := keys(c); !equal(got, []int{1, 3}) {
		t.Fatalf("walk = %v, want [1 3]", got)
	}
	// Replacing a key re-charges it and makes it the newest.
	c.Add(1, "a")
	if got := keys(c); !equal(got, []int{3, 1}) {
		t.Fatalf("walk after replace = %v, want [3 1]", got)
	}
	// An entry bigger than the whole bound evicts everything else and
	// is still kept.
	c.Add(4, "an entry far over the bound")
	st := c.Stats()
	if got := keys(c); !equal(got, []int{4}) || st.Bytes != 27 || st.Entries != 1 || st.Evictions != 3 {
		t.Fatalf("walk = %v, stats = %+v", got, st)
	}
	if !c.Remove(4) || c.Remove(4) {
		t.Fatal("Remove must report exactly one removal")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after Remove: %+v", st)
	}
}

func TestZeroBoundStoresNothing(t *testing.T) {
	c := New[int, string](0, byLen)
	c.Add(1, "x")
	if _, ok := c.Get(1); ok {
		t.Fatal("a zero bound stored an entry")
	}
	fills := 0
	for range 3 {
		v, err := c.Do(2, func() (string, error) { fills++; return "y", nil })
		if v != "y" || err != nil {
			t.Fatalf("Do = %q, %v", v, err)
		}
	}
	if st := c.Stats(); fills != 3 || st.Entries != 0 || st.Hits != 0 || st.Misses != 4 {
		t.Fatalf("fills = %d, stats = %+v", fills, st)
	}
}

func TestDoStoresOnlySuccessfulFills(t *testing.T) {
	c := New[int, string](100, byLen)
	boom := errors.New("upstream down")
	if _, err := c.Do(1, func() (string, error) { return "", boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fill's", err)
	}
	v, err := c.Do(1, func() (string, error) { return "ok", nil })
	if st := c.Stats(); v != "ok" || err != nil || st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("retry after a failed fill: %q, %v, stats %+v", v, err, st)
	}
	v, _ = c.Do(1, func() (string, error) { t.Fatal("filled a stored key"); return "", nil })
	if st := c.Stats(); v != "ok" || st.Hits != 1 {
		t.Fatalf("stored value: %q, stats %+v", v, st)
	}
}

// TestDoSingleflight holds the leader's fill until every other caller
// has joined it, so the herd is a herd however goroutines are
// scheduled (also under -cpu 1).
func TestDoSingleflight(t *testing.T) {
	for _, bound := range []int{100, 0} {
		c := New[int, string](bound, byLen)
		const callers = 16
		fills := 0
		fill := func() (string, error) {
			fills++
			deadline := time.Now().Add(10 * time.Second)
			for c.Stats().Waits < callers-1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			return "shared", nil
		}
		var wg sync.WaitGroup
		for range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v, err := c.Do(7, fill); v != "shared" || err != nil {
					t.Errorf("Do = %q, %v", v, err)
				}
			}()
		}
		wg.Wait()
		if st := c.Stats(); fills != 1 || st.Misses != 1 || st.Waits != callers-1 {
			t.Fatalf("bound %d: %d fills, stats %+v; want one fill for %d callers", bound, fills, st, callers)
		}
	}
}

// TestRemoveLeavesFillInFlight: a Remove racing a fill does not cancel
// it; the fill's result is stored when it lands.
func TestRemoveLeavesFillInFlight(t *testing.T) {
	c := New[int, string](100, byLen)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(1, func() (string, error) { <-release; return "late", nil })
	}()
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	if c.Remove(1) {
		t.Fatal("Remove found an entry that is still being filled")
	}
	close(release)
	<-done
	if v, ok := c.Get(1); !ok || v != "late" {
		t.Fatalf("Get after the fill landed = %q, %v", v, ok)
	}
}

func TestTouchRefreshesWithoutCounting(t *testing.T) {
	c := New[int, string](8, byLen)
	c.Add(1, "aaaa")
	c.Add(2, "bbbb")
	if v, ok := c.Touch(1); !ok || v != "aaaa" {
		t.Fatalf("Touch = %q, %v", v, ok)
	}
	if _, ok := c.Touch(3); ok {
		t.Fatal("Touch found an absent key")
	}
	c.Add(3, "cccc") // 2 is the cold end now
	if got := keys(c); !equal(got, []int{1, 3}) {
		t.Fatalf("walk = %v, want [1 3]", got)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Touch counted lookups: %+v", st)
	}
}
