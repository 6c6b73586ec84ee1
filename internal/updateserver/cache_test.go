package updateserver

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"upkit/internal/manifest"
	"upkit/internal/security"
)

// firmwarePair returns two related images so a differential payload is
// viable (the interesting cache case).
func firmwarePair(size int) (v1, v2 []byte) {
	v1 = bytes.Repeat([]byte("cache-stable-section-"), size/21+1)[:size]
	v2 = bytes.Clone(v1)
	copy(v2[size/3:], []byte("a localized edit of the new release"))
	return v1, v2
}

func TestCacheServesRepeatedPairsFromMemory(t *testing.T) {
	s := newServers(t)
	v1, v2 := firmwarePair(40 * 1024)
	s.publish(t, 1, 1, v1)
	s.publish(t, 1, 2, v2)

	var first *Update
	for i := range 5 {
		tok := manifest.DeviceToken{DeviceID: uint32(i + 1), Nonce: uint32(i + 100), CurrentVersion: 1}
		u, err := s.update.PrepareUpdate(1, tok)
		if err != nil {
			t.Fatal(err)
		}
		if !u.Differential {
			t.Fatal("expected a differential update")
		}
		if first == nil {
			first = u
		} else if !bytes.Equal(first.Payload, u.Payload) {
			t.Fatal("cached patch differs from the computed one")
		}
	}
	st := s.update.Stats()
	if st.Computations != 1 {
		t.Fatalf("computations = %d, want 1 (one per distinct pair)", st.Computations)
	}
	if st.Hits != 4 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 4/1", st.Hits, st.Misses)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("entries/bytes = %d/%d", st.Entries, st.Bytes)
	}
}

func TestCacheRemembersNonViablePatches(t *testing.T) {
	s := newServers(t)
	// Unrelated, incompressible images: no patch can beat the full
	// image, and that verdict must be cached too, not rediscovered per
	// request.
	v1 := make([]byte, 2000)
	v2 := make([]byte, 2000)
	if _, err := io.ReadFull(security.NewDeterministicReader("cache-nonviable-v1"), v1); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(security.NewDeterministicReader("cache-nonviable-v2"), v2); err != nil {
		t.Fatal(err)
	}
	s.publish(t, 1, 1, v1)
	s.publish(t, 1, 2, v2)
	for i := range 3 {
		tok := manifest.DeviceToken{DeviceID: uint32(i + 1), Nonce: uint32(i + 1), CurrentVersion: 1}
		u, err := s.update.PrepareUpdate(1, tok)
		if err != nil {
			t.Fatal(err)
		}
		if u.Differential {
			t.Fatal("non-viable patch served as differential")
		}
	}
	if st := s.update.Stats(); st.Computations != 1 {
		t.Fatalf("computations = %d, want 1", st.Computations)
	}
}

func TestPublishInvalidatesCachedPatches(t *testing.T) {
	s := newServers(t)
	v1, v2 := firmwarePair(20 * 1024)
	s.publish(t, 1, 1, v1)
	s.publish(t, 1, 2, v2)
	tok := manifest.DeviceToken{DeviceID: 1, Nonce: 1, CurrentVersion: 1}
	if _, err := s.update.PrepareUpdate(1, tok); err != nil {
		t.Fatal(err)
	}
	if st := s.update.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}

	v3 := bytes.Clone(v2)
	copy(v3[100:], []byte("v3 edit"))
	s.publish(t, 1, 3, v3)
	st := s.update.Stats()
	if st.Entries != 0 {
		t.Fatalf("entries = %d after publish, want 0", st.Entries)
	}
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestCacheRespectsSizeBound(t *testing.T) {
	// Fit roughly one patch: every further pair evicts the previous one.
	s := newServers(t, WithPatchCacheSize(1024))
	base := bytes.Repeat([]byte("bound-test-firmware-"), 1200)
	s.publish(t, 1, 1, base)
	for v := uint16(2); v <= 4; v++ {
		fw := bytes.Clone(base)
		copy(fw[10:], fmt.Sprintf("version-%d-edit", v))
		s.publish(t, 1, v, fw)
	}
	// Version pairs (1→4), (2→4), (3→4): three distinct keys.
	for from := uint16(1); from <= 3; from++ {
		tok := manifest.DeviceToken{DeviceID: uint32(from), Nonce: uint32(from), CurrentVersion: from}
		if _, err := s.update.PrepareUpdate(1, tok); err != nil {
			t.Fatal(err)
		}
	}
	st := s.update.Stats()
	if st.Bytes > 1024 {
		t.Fatalf("cache grew to %d bytes past its 1024-byte bound", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite a bound smaller than the working set")
	}
}

func TestPatchCacheSizeZeroDisablesCaching(t *testing.T) {
	s := newServers(t, WithPatchCacheSize(0))
	v1, v2 := firmwarePair(8 * 1024)
	s.publish(t, 1, 1, v1)
	s.publish(t, 1, 2, v2)
	for i := range 3 {
		tok := manifest.DeviceToken{DeviceID: uint32(i + 1), Nonce: uint32(i + 1), CurrentVersion: 1}
		if _, err := s.update.PrepareUpdate(1, tok); err != nil {
			t.Fatal(err)
		}
	}
	st := s.update.Stats()
	if st.Computations != 3 {
		t.Fatalf("computations = %d with cache disabled, want 3", st.Computations)
	}
	if st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("disabled cache still memoises: %+v", st)
	}
}

func TestPreparedPayloadIsACopy(t *testing.T) {
	// Regression: mutating a returned payload must never corrupt the
	// stored release (full images) or the cached patch (differential).
	s := newServers(t)
	v1, v2 := firmwarePair(16 * 1024)
	s.publish(t, 1, 1, v1)
	s.publish(t, 1, 2, v2)

	for name, tok := range map[string]manifest.DeviceToken{
		"full image":   {DeviceID: 1, Nonce: 1, CurrentVersion: 0},
		"differential": {DeviceID: 2, Nonce: 2, CurrentVersion: 1},
	} {
		u1, err := s.update.PrepareUpdate(1, tok)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pristine := bytes.Clone(u1.Payload)
		for i := range u1.Payload {
			u1.Payload[i] ^= 0xFF
		}
		tok.Nonce++
		u2, err := s.update.PrepareUpdate(1, tok)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(u2.Payload, pristine) {
			t.Fatalf("%s: mutation of a returned payload leaked into later requests", name)
		}
	}
}

func TestRetentionPublishPrunesCachedBase(t *testing.T) {
	s := newServers(t, WithRetention(2))
	base := bytes.Repeat([]byte("retention-now-"), 1000)
	publish := func(v uint16) {
		fw := bytes.Clone(base)
		fw[0] = byte(v)
		s.publish(t, 1, v, fw)
	}
	publish(3)
	publish(4)
	// Warm the cache with a patch whose base the next publish prunes.
	tok := manifest.DeviceToken{DeviceID: 1, Nonce: 1, CurrentVersion: 3}
	u, err := s.update.PrepareUpdate(1, tok)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Differential {
		t.Fatal("expected a differential update before pruning")
	}

	// Publishing v5 must prune v3 and drop the cached patches for it.
	publish(5)
	if _, ok := s.update.ImageByVersion(1, 3); ok {
		t.Fatal("release v3 still stored under WithRetention(2)")
	}
	if _, ok := s.update.ImageByVersion(1, 4); !ok {
		t.Fatal("release v4 missing under WithRetention(2)")
	}
	if st := s.update.Stats(); st.Entries != 0 {
		t.Fatalf("cache entries = %d after pruning, want 0", st.Entries)
	}
	// The device on the pruned base now gets a full image.
	tok.Nonce++
	u, err = s.update.PrepareUpdate(1, tok)
	if err != nil {
		t.Fatal(err)
	}
	if u.Differential {
		t.Fatal("differential update served against a pruned base")
	}
}

func TestUnsubscribeStopsDeliveryAndReleasesChannel(t *testing.T) {
	s := newServers(t)
	ch1 := s.update.Subscribe()
	ch2 := s.update.Subscribe()
	if n := s.update.SubscriberCount(); n != 2 {
		t.Fatalf("subscribers = %d, want 2", n)
	}
	s.update.Unsubscribe(ch1)
	if n := s.update.SubscriberCount(); n != 1 {
		t.Fatalf("subscribers = %d after Unsubscribe, want 1", n)
	}
	s.publish(t, 1, 1, []byte("v1"))
	select {
	case ann := <-ch1:
		t.Fatalf("unsubscribed channel received %+v", ann)
	default:
	}
	select {
	case ann := <-ch2:
		if ann.Version != 1 {
			t.Fatalf("announcement = %+v", ann)
		}
	default:
		t.Fatal("live subscriber received nothing")
	}
	// Unknown channels are ignored, including double unsubscribes.
	s.update.Unsubscribe(ch1)
	s.update.Unsubscribe(make(chan Announcement))
	if n := s.update.SubscriberCount(); n != 1 {
		t.Fatalf("subscribers = %d, want 1", n)
	}
}

// benchPrepareServers publishes a 64 KiB pair suited for differential
// updates and returns the wired servers.
func benchPrepareServers(b *testing.B, opts ...Option) *servers {
	b.Helper()
	s := newServers(b, opts...)
	v1, v2 := firmwarePair(64 * 1024)
	s.publish(b, 1, 1, v1)
	s.publish(b, 1, 2, v2)
	return s
}

// BenchmarkPrepareUpdateWarmCache measures repeated PrepareUpdate calls
// on one warm (app, from, to) pair — the campaign steady state. Compare
// against BenchmarkPrepareUpdateUncached: the acceptance bar is a ≥5×
// throughput improvement.
func BenchmarkPrepareUpdateWarmCache(b *testing.B) {
	s := benchPrepareServers(b)
	benchLoop(b, s)
	b.ReportMetric(float64(s.update.Stats().Computations), "diffs")
}

// BenchmarkPrepareUpdateUncached is the same workload with the cache
// disabled: every request pays the full bsdiff+LZSS cost.
func BenchmarkPrepareUpdateUncached(b *testing.B) {
	s := benchPrepareServers(b, WithPatchCacheSize(0))
	benchLoop(b, s)
	b.ReportMetric(float64(s.update.Stats().Computations), "diffs")
}

func benchLoop(b *testing.B, s *servers) {
	b.Helper()
	b.ResetTimer()
	for i := range b.N {
		tok := manifest.DeviceToken{DeviceID: uint32(i), Nonce: uint32(i), CurrentVersion: 1}
		u, err := s.update.PrepareUpdate(1, tok)
		if err != nil {
			b.Fatal(err)
		}
		if !u.Differential {
			b.Fatal("expected a differential update")
		}
	}
}
