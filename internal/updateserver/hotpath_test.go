package updateserver

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"upkit/internal/dist"
	"upkit/internal/manifest"
	"upkit/internal/security"
	"upkit/internal/vendorserver"
)

// Regression tests for the PrepareUpdate hot-path sweep: encrypted
// payloads must not pollute the fleet-shared block registry, the
// singleflight dedup must survive a disabled cache, key rotation must
// never produce a manifest whose ServerKeyID disagrees with the key
// that signed it, and warm patches must survive a server restart.

// TestEncryptedStormKeepsSharedBlocks pins the block-registry fix:
// per-device encrypted payloads are unique bytes (random IV), so
// registering them in the fleet-shared registry evicted the shared
// patch blocks a whole unencrypted fleet (and the proxy tier) was
// pulling. They must land in the private registry instead.
func TestEncryptedStormKeepsSharedBlocks(t *testing.T) {
	suite := security.NewTinyCrypt()
	vendor := vendorserver.New(suite, security.MustGenerateKey("storm-vendor"))
	// A shared registry small enough that the storm's ciphertext would
	// flush it if it (wrongly) landed there.
	update := New(suite, security.MustGenerateKey("storm-server"),
		WithBlockStoreSize(256<<10))
	defer update.Close()
	publish := func(v uint16, fw []byte) {
		img, err := vendor.BuildImage(vendorserver.Release{AppID: 1, Version: v, Firmware: fw})
		if err != nil {
			t.Fatal(err)
		}
		if err := update.Publish(img); err != nil {
			t.Fatal(err)
		}
	}
	v1 := bytes.Repeat([]byte("shared-block-firmware-"), 1024)
	v2 := bytes.Clone(v1)
	copy(v2[50:], []byte("small-edit"))
	publish(1, v1)
	publish(2, v2)

	// An unencrypted fleet registers its shared blocks first.
	shared, err := update.PrepareUpdate(1, manifest.DeviceToken{
		DeviceID: 1, Nonce: 1, CurrentVersion: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := update.Blocks().Payload(shared.PayloadName); !ok {
		t.Fatal("shared payload not registered")
	}

	// Then an encrypted fleet storms: 64 devices, each payload unique.
	if err := update.SetPayloadEncryption(bytes.Repeat([]byte{7}, 16), nil); err != nil {
		t.Fatal(err)
	}
	const devices = 64
	names := make([]dist.Name, devices)
	var wg sync.WaitGroup
	for i := range devices {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u, err := update.PrepareUpdate(1, manifest.DeviceToken{
				DeviceID: uint32(0x5000 + i), Nonce: uint32(i + 1), CurrentVersion: 1,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if !u.Encrypted {
				t.Error("payload not encrypted")
				return
			}
			names[i] = u.PayloadName
		}(i)
	}
	wg.Wait()

	// The shared blocks survived the storm untouched...
	if _, ok := update.Blocks().Payload(shared.PayloadName); !ok {
		t.Fatal("encrypted storm evicted the fleet-shared payload")
	}
	if st := update.Blocks().Stats(); st.Evictions != 0 {
		t.Fatalf("shared registry evicted %d entries during an encrypted storm", st.Evictions)
	}
	// ...the ciphertext went to the private registry, and the combined
	// block source still serves it to the pulling device.
	if st := update.PrivateBlocks().Stats(); st.Puts != devices {
		t.Fatalf("private registry saw %d puts, want %d", st.Puts, devices)
	}
	src := update.BlockSource()
	for i, name := range names {
		if name == (dist.Name{}) {
			continue // that goroutine already failed the test
		}
		if _, _, err := src.Block(name, 0, 512); err != nil {
			t.Fatalf("device %d: combined source cannot serve its payload: %v", i, err)
		}
	}
	// Shared payloads are served by the combined source too.
	if _, _, err := src.Block(shared.PayloadName, 0, 512); err != nil {
		t.Fatalf("combined source lost the shared payload: %v", err)
	}
}

// TestDisabledCacheKeepsSingleflight pins the dedup fix: disabling
// patch *retention* (cache size 0) must not disable concurrent-request
// *dedup* — a thundering herd on one cold pair costs one diff, not N.
func TestDisabledCacheKeepsSingleflight(t *testing.T) {
	s := newServers(t, WithPatchCacheSize(0))
	base := bytes.Repeat([]byte("no-cache-singleflight-section-"), 2048)
	edit := bytes.Clone(base)
	copy(edit[128:], []byte("the-only-change"))
	s.publish(t, 1, 1, base)
	s.publish(t, 1, 2, edit)

	const devices = 32
	// The leader's diff stays in flight until every other device has
	// joined it, so the herd is a herd however the goroutines are
	// scheduled.
	cache := s.update.cache
	cache.compute = func(base, target []byte) patchResult {
		deadline := time.Now().Add(10 * time.Second)
		for cache.stats().Waits < devices-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return computePatch(base, target)
	}
	var start, wg sync.WaitGroup
	start.Add(1)
	errs := make(chan error, devices)
	for i := range devices {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			u, err := s.update.PrepareUpdate(1, manifest.DeviceToken{
				DeviceID: uint32(0x6000 + i), Nonce: uint32(i + 1), CurrentVersion: 1,
			})
			if err != nil {
				errs <- fmt.Errorf("device %d: %w", i, err)
				return
			}
			if !u.Differential {
				errs <- fmt.Errorf("device %d: wanted a differential", i)
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
	if st.Computations != 1 {
		t.Fatalf("computations = %d with cache disabled, want 1 (singleflight)", st.Computations)
	}
	if st.Waits != devices-1 {
		t.Fatalf("waits = %d, want %d", st.Waits, devices-1)
	}
	if st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("disabled cache retained state: %+v", st)
	}
}

// TestRotateKeyDuringPrepareStorm races key rotation against a prepare
// storm: every manifest handed out must verify against the public key
// matching its own ServerKeyID — a manifest signed by the old key but
// stamped with the new ID (or vice versa) bricks the device's
// verification for no reason.
func TestRotateKeyDuringPrepareStorm(t *testing.T) {
	s := newServers(t)
	base := bytes.Repeat([]byte("rotate-storm-firmware-section-"), 1024)
	edit := bytes.Clone(base)
	copy(edit[64:], []byte("rotated"))
	s.publish(t, 1, 1, base)
	s.publish(t, 1, 2, edit)

	const rotations = 8
	pubs := map[uint32]*security.PublicKey{0: s.update.PublicKey()}
	keys := make([]*security.PrivateKey, rotations)
	for i := range rotations {
		keys[i] = security.MustGenerateKey(fmt.Sprintf("rotate-%d", i))
		pubs[uint32(i+1)] = keys[i].Public()
	}

	const devices = 16
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range rotations {
			s.update.RotateKey(keys[i], uint32(i+1))
		}
	}()
	for i := range devices {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := range 40 {
				u, err := s.update.PrepareUpdate(1, manifest.DeviceToken{
					DeviceID:       uint32(0x7000 + i),
					Nonce:          uint32(i*1000 + n + 1),
					CurrentVersion: uint16(n % 2), // mix full and differential
				})
				if err != nil {
					errs <- fmt.Errorf("device %d: %w", i, err)
					return
				}
				pub, ok := pubs[u.Manifest.ServerKeyID]
				if !ok {
					errs <- fmt.Errorf("device %d: unknown ServerKeyID %d", i, u.Manifest.ServerKeyID)
					return
				}
				if !u.Manifest.VerifyServerSig(s.suite, pub) {
					errs <- fmt.Errorf("device %d: signature does not verify under key %d",
						i, u.Manifest.ServerKeyID)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWarmPatchesSurviveRestart pins the durable tier end to end: a
// patch computed before a crash is served after restart without a
// single recomputation.
func TestWarmPatchesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	suite := security.NewTinyCrypt()
	vendor := vendorserver.New(suite, security.MustGenerateKey("restart-vendor"))
	v1 := bytes.Repeat([]byte("restart-firmware-section-"), 2048)
	v2 := bytes.Clone(v1)
	copy(v2[256:], []byte("post-restart-edit"))
	images := make([]*vendorserver.Image, 0, 2)
	for v, fw := range map[uint16][]byte{1: v1, 2: v2} {
		img, err := vendor.BuildImage(vendorserver.Release{AppID: 1, Version: v, Firmware: fw})
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	if images[0].Manifest.Version > images[1].Manifest.Version {
		images[0], images[1] = images[1], images[0]
	}
	boot := func() (*Server, *PatchStore) {
		ps, err := OpenPatchStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(suite, security.MustGenerateKey("restart-server"), WithPatchStore(ps))
		for _, img := range images {
			if err := srv.Publish(img); err != nil {
				t.Fatal(err)
			}
		}
		return srv, ps
	}
	tok := manifest.DeviceToken{DeviceID: 9, Nonce: 1, CurrentVersion: 1}

	srv1, ps1 := boot()
	first, err := srv1.PrepareUpdate(1, tok)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Differential {
		t.Fatal("expected a differential before restart")
	}
	if st := srv1.Stats(); st.Computations != 1 || st.DiskMisses != 1 {
		t.Fatalf("cold stats: %+v", st)
	}
	srv1.Close()
	ps1.Close()

	// "Crash", restart: same releases republished, fresh empty memory
	// tier, same state directory.
	srv2, ps2 := boot()
	defer srv2.Close()
	defer ps2.Close()
	tok.Nonce = 2
	second, err := srv2.PrepareUpdate(1, tok)
	if err != nil {
		t.Fatal(err)
	}
	st := srv2.Stats()
	if st.Computations != 0 {
		t.Fatalf("restart recomputed the patch: %+v", st)
	}
	if st.DiskHits != 1 {
		t.Fatalf("restart did not hit the durable tier: %+v", st)
	}
	if !second.Differential || !bytes.Equal(second.Payload, first.Payload) {
		t.Fatal("restarted server served a different payload")
	}
}

// TestSignerPoolEquivalence pins the parallel signing pool: signatures
// from the pool are indistinguishable from inline ones, and a closed
// pool degrades to inline signing instead of stranding requests.
func TestSignerPoolEquivalence(t *testing.T) {
	suite := security.NewTinyCrypt()
	vendor := vendorserver.New(suite, security.MustGenerateKey("pool-vendor"))
	update := New(suite, security.MustGenerateKey("pool-server"), WithSigners(2))
	img, err := vendor.BuildImage(vendorserver.Release{
		AppID: 1, Version: 1, Firmware: bytes.Repeat([]byte("pool"), 2000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := update.Publish(img); err != nil {
		t.Fatal(err)
	}

	const devices = 32
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for i := range devices {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u, err := update.PrepareUpdate(1, manifest.DeviceToken{
				DeviceID: uint32(i + 1), Nonce: uint32(i + 1),
			})
			if err != nil {
				errs <- err
				return
			}
			if !u.Manifest.VerifyServerSig(suite, update.PublicKey()) {
				errs <- fmt.Errorf("device %d: pooled signature does not verify", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After Close the pool is gone but the server still signs.
	if err := update.Close(); err != nil {
		t.Fatal(err)
	}
	u, err := update.PrepareUpdate(1, manifest.DeviceToken{DeviceID: 99, Nonce: 99})
	if err != nil {
		t.Fatal(err)
	}
	if !u.Manifest.VerifyServerSig(suite, update.PublicKey()) {
		t.Fatal("post-Close signature does not verify")
	}
}
