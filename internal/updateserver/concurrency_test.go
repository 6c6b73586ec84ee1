package updateserver

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"upkit/internal/manifest"
	"upkit/internal/vendorserver"
)

// The update server is the one shared component in a fleet: many
// devices request tokens and images concurrently while new releases are
// published. These tests hammer it from many goroutines (run with
// -race, as `go test ./...` does in CI).

func TestConcurrentPrepareUpdate(t *testing.T) {
	s := newServers(t)
	v1 := bytes.Repeat([]byte("one"), 4000)
	v2 := bytes.Repeat([]byte("two"), 4000)
	s.publish(t, 1, 1, v1)
	s.publish(t, 1, 2, v2)

	const devices = 32
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for i := range devices {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tok := manifest.DeviceToken{
				DeviceID:       uint32(0x1000 + id),
				Nonce:          uint32(0xBEEF + id),
				CurrentVersion: uint16(1 + id%2), // half differential-capable
			}
			if tok.CurrentVersion == 2 {
				tok.CurrentVersion = 0 // those devices want full images
			}
			u, err := s.update.PrepareUpdate(1, tok)
			if err != nil {
				errs <- fmt.Errorf("device %d: %w", id, err)
				return
			}
			if u.Manifest.DeviceID != tok.DeviceID || u.Manifest.Nonce != tok.Nonce {
				errs <- fmt.Errorf("device %d: token not bound", id)
				return
			}
			if !u.Manifest.VerifyServerSig(s.suite, s.update.PublicKey()) {
				errs <- fmt.Errorf("device %d: bad server signature", id)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestConcurrentPublishAndLatest(t *testing.T) {
	s := newServers(t)
	s.publish(t, 7, 1, []byte("seed"))
	var wg sync.WaitGroup
	// One publisher races many readers and subscribers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint16(2); v <= 20; v++ {
			img, err := s.vendor.BuildImage(buildRelease(7, v))
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.update.Publish(img); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				if v, ok := s.update.Latest(7); ok && (v < 1 || v > 20) {
					t.Errorf("Latest = %d out of range", v)
					return
				}
				if img, ok := s.update.LatestImage(7); ok && img == nil {
					t.Error("LatestImage returned nil with ok=true")
					return
				}
			}
		}()
	}
	ch := s.update.Subscribe()
	wg.Wait()
	// Drain announcements: all within range, strictly increasing is not
	// guaranteed for a dropped-message channel, but values must be sane.
	for {
		select {
		case ann := <-ch:
			if ann.Version < 2 || ann.Version > 20 {
				t.Fatalf("announcement %+v out of range", ann)
			}
		default:
			return
		}
	}
}

// TestSingleflightOneDiffPerPair hammers the patch cache from many
// goroutines across mixed version pairs and asserts the singleflight
// invariant: the number of diff computations equals the number of
// distinct (app, from, to) pairs, no matter how many devices raced.
func TestSingleflightOneDiffPerPair(t *testing.T) {
	s := newServers(t)
	base := bytes.Repeat([]byte("singleflight-firmware-section-"), 2048)
	const versions = 4 // v1..v4 stored, v5 is the target
	for v := uint16(1); v <= versions+1; v++ {
		fw := bytes.Clone(base)
		copy(fw[64:], fmt.Sprintf("release-%d-local-edit", v))
		s.publish(t, 1, v, fw)
	}

	const devices = 96 // 24 goroutines per distinct pair
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	var start sync.WaitGroup
	start.Add(1)
	for i := range devices {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			start.Wait() // line everyone up on a cold cache
			tok := manifest.DeviceToken{
				DeviceID:       uint32(0x4000 + id),
				Nonce:          uint32(0xACE + id),
				CurrentVersion: uint16(1 + id%versions), // pairs (1→5)…(4→5)
			}
			u, err := s.update.PrepareUpdate(1, tok)
			if err != nil {
				errs <- fmt.Errorf("device %d: %w", id, err)
				return
			}
			if !u.Differential {
				errs <- fmt.Errorf("device %d: expected a differential update", id)
				return
			}
			if u.Manifest.OldVersion != tok.CurrentVersion {
				errs <- fmt.Errorf("device %d: OldVersion = %d, want %d", id, u.Manifest.OldVersion, tok.CurrentVersion)
			}
		}(i)
	}
	start.Done()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.update.Stats()
	if st.Computations != versions {
		t.Fatalf("computations = %d, want %d (one per distinct pair)", st.Computations, versions)
	}
	if st.Misses != versions {
		t.Fatalf("misses = %d, want %d", st.Misses, versions)
	}
	if st.Hits+st.Waits != devices-versions {
		t.Fatalf("hits+waits = %d+%d, want %d", st.Hits, st.Waits, devices-versions)
	}
}

// TestConcurrentSubscribeUnsubscribe races subscriptions against
// publishing; no announcement may reach a channel after its
// Unsubscribe returned.
func TestConcurrentSubscribeUnsubscribe(t *testing.T) {
	s := newServers(t)
	s.publish(t, 7, 1, []byte("seed"))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint16(2); v <= 30; v++ {
			img, err := s.vendor.BuildImage(buildRelease(7, v))
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.update.Publish(img); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				ch := s.update.Subscribe()
				s.update.Unsubscribe(ch)
				// After Unsubscribe at most one announcement snapshotted
				// before removal may straggle in; drain and move on.
				for len(ch) > 0 {
					<-ch
				}
			}
		}()
	}
	wg.Wait()
	if n := s.update.SubscriberCount(); n != 0 {
		t.Fatalf("%d subscribers leaked", n)
	}
}

func buildRelease(appID uint32, v uint16) vendorserver.Release {
	return vendorserver.Release{
		AppID:      appID,
		Version:    v,
		LinkOffset: 0xFFFFFFFF,
		Firmware:   bytes.Repeat([]byte{byte(v)}, 256),
	}
}

// TestStressStoreUnderFullConcurrency is the whole-server stress test:
// publishers (pruning to a retention bound on every publish),
// preparing devices, and subscriber churn all run at once against the sharded store (run with -race, as
// CI does). Afterwards: no published release may be lost (up to
// retention), every reader must have observed a monotonically
// non-decreasing Latest, and no subscriber may leak.
func TestStressStoreUnderFullConcurrency(t *testing.T) {
	s := newServers(t, WithRetention(5))
	const (
		apps        = 4
		versionsPer = 25
		readers     = 8
		churners    = 4
	)
	// Seed every app so readers and devices never hit ErrUnknownApp.
	for app := uint32(1); app <= apps; app++ {
		s.publish(t, app, 1, bytes.Repeat([]byte{byte(app)}, 512))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Publishers: one per app, strictly increasing versions.
	for app := uint32(1); app <= apps; app++ {
		wg.Add(1)
		go func(app uint32) {
			defer wg.Done()
			for v := uint16(2); v <= versionsPer; v++ {
				img, err := s.vendor.BuildImage(buildRelease(app, v))
				if err != nil {
					fail("build %d/%d: %v", app, v, err)
					return
				}
				if err := s.update.Publish(img); err != nil {
					fail("publish %d/%d: %v", app, v, err)
					return
				}
			}
		}(app)
	}

	// Readers: Latest must never go backwards per app, and PrepareUpdate
	// must always hand back a version ahead of the token.
	for r := range readers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := make(map[uint32]uint16)
			for i := range 150 {
				app := uint32(1 + (r+i)%apps)
				v, ok := s.update.Latest(app)
				if !ok {
					fail("reader %d: app %d vanished", r, app)
					return
				}
				if v < last[app] {
					fail("reader %d: Latest(%d) went backwards %d -> %d", r, app, last[app], v)
					return
				}
				last[app] = v
				tok := manifest.DeviceToken{
					DeviceID:       uint32(0x7000 + r*1000 + i),
					Nonce:          uint32(i + 1),
					CurrentVersion: 0,
				}
				u, err := s.update.PrepareUpdate(app, tok)
				if err != nil {
					fail("reader %d: prepare app %d: %v", r, app, err)
					return
				}
				if u.Manifest.Version < last[app] {
					fail("reader %d: served v%d below observed latest v%d", r, u.Manifest.Version, last[app])
					return
				}
			}
		}(r)
	}

	// Subscriber churn.
	for range churners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				ch := s.update.Subscribe()
				s.update.Unsubscribe(ch)
				for len(ch) > 0 {
					<-ch
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// No lost releases: every app ends on its final version, and the
	// newest releases survive retention.
	for app := uint32(1); app <= apps; app++ {
		if v, ok := s.update.Latest(app); !ok || v != versionsPer {
			t.Errorf("app %d: Latest = (%d,%v), want (%d,true)", app, v, ok, versionsPer)
		}
		if _, ok := s.update.ImageByVersion(app, versionsPer); !ok {
			t.Errorf("app %d: final release lost", app)
		}
	}
	if n := s.update.SubscriberCount(); n != 0 {
		t.Fatalf("%d subscribers leaked", n)
	}
	st := s.update.Store().Stats()
	if st.Apps != apps {
		t.Fatalf("store apps = %d, want %d", st.Apps, apps)
	}
}
