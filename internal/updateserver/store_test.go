package updateserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"upkit/internal/security"
	"upkit/internal/vendorserver"
)

// buildImage signs one release for store-level tests.
func buildImage(t testing.TB, vendor *vendorserver.Server, appID uint32, version uint16, fw []byte) *vendorserver.Image {
	t.Helper()
	img, err := vendor.BuildImage(vendorserver.Release{
		AppID: appID, Version: version, LinkOffset: 0xFFFFFFFF, Firmware: fw,
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func newVendor(t testing.TB) *vendorserver.Server {
	t.Helper()
	return vendorserver.New(security.NewTinyCrypt(), security.MustGenerateKey("store-vendor"))
}

func TestMemStorePublishLatestByVersion(t *testing.T) {
	vendor := newVendor(t)
	st := NewMemStore()
	if _, ok := st.Latest(1); ok {
		t.Fatal("Latest on empty store must report !ok")
	}
	for v := uint16(1); v <= 3; v++ {
		if err := st.Publish(buildImage(t, vendor, 1, v, []byte{byte(v)})); err != nil {
			t.Fatal(err)
		}
	}
	img, ok := st.Latest(1)
	if !ok || img.Manifest.Version != 3 {
		t.Fatalf("Latest = (%v,%v), want v3", img, ok)
	}
	img, ok = st.ByVersion(1, 2)
	if !ok || !bytes.Equal(img.Firmware, []byte{2}) {
		t.Fatal("ByVersion(1,2) wrong")
	}
	if _, ok := st.ByVersion(1, 9); ok {
		t.Fatal("ByVersion found a version never published")
	}
	if _, ok := st.ByVersion(7, 1); ok {
		t.Fatal("ByVersion found an app never published")
	}
}

func TestMemStoreRejectsStaleAndNil(t *testing.T) {
	vendor := newVendor(t)
	st := NewMemStore()
	if err := st.Publish(nil); err == nil {
		t.Fatal("nil image accepted")
	}
	if err := st.Publish(buildImage(t, vendor, 1, 2, []byte("v2"))); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{2, 1} {
		err := st.Publish(buildImage(t, vendor, 1, v, []byte("old")))
		if !errors.Is(err, ErrStaleVersion) {
			t.Fatalf("publish v%d after v2: err = %v, want ErrStaleVersion", v, err)
		}
	}
	// Other apps are unaffected by app 1's history.
	if err := st.Publish(buildImage(t, vendor, 2, 1, []byte("v1"))); err != nil {
		t.Fatal(err)
	}
}

func TestMemStorePrune(t *testing.T) {
	vendor := newVendor(t)
	st := NewMemStore()
	for v := uint16(1); v <= 5; v++ {
		if err := st.Publish(buildImage(t, vendor, 1, v, []byte{byte(v)})); err != nil {
			t.Fatal(err)
		}
	}
	if pruned := st.Prune(0); pruned != nil {
		t.Fatalf("Prune(0) pruned %v, want nothing", pruned)
	}
	if pruned := st.Prune(10); pruned != nil {
		t.Fatalf("Prune over capacity pruned %v, want nothing", pruned)
	}
	pruned := st.Prune(2)
	if len(pruned) != 1 || pruned[0] != 1 {
		t.Fatalf("Prune(2) = %v, want [1]", pruned)
	}
	snap := st.Snapshot(1)
	if len(snap) != 2 || snap[0].Manifest.Version != 4 || snap[1].Manifest.Version != 5 {
		t.Fatalf("after prune snapshot = %v", snap)
	}
	if _, ok := st.ByVersion(1, 3); ok {
		t.Fatal("pruned version still visible")
	}
	// Pruning is idempotent once within bounds.
	if pruned := st.Prune(2); pruned != nil {
		t.Fatalf("second Prune(2) = %v, want nothing", pruned)
	}
}

func TestMemStoreAppsSnapshotStats(t *testing.T) {
	vendor := newVendor(t)
	st := NewMemStore()
	apps := []uint32{7, 3, 0x2A}
	for _, app := range apps {
		for v := uint16(1); v <= 2; v++ {
			if err := st.Publish(buildImage(t, vendor, app, v, bytes.Repeat([]byte{byte(app)}, 10))); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := st.Apps()
	if len(got) != 3 || got[0] != 3 || got[1] != 7 || got[2] != 0x2A {
		t.Fatalf("Apps = %v, want ascending [3 7 42]", got)
	}
	snap := st.Snapshot(7)
	if len(snap) != 2 || snap[0].Manifest.Version != 1 {
		t.Fatalf("Snapshot = %v", snap)
	}
	// The returned slice is the caller's: mutating it must not affect
	// the store.
	snap[0] = nil
	if again := st.Snapshot(7); again[0] == nil {
		t.Fatal("Snapshot returned the store's internal slice")
	}
	stats := st.Stats()
	if stats.Apps != 3 || stats.Releases != 6 || stats.Bytes != 60 {
		t.Fatalf("Stats = %+v, want 3 apps, 6 releases, 60 bytes", stats)
	}
	if stats.LoadSeconds != 0 || stats.TornTails != 0 {
		t.Fatalf("in-memory store reported durable-load stats: %+v", stats)
	}
}

func TestMemStoreShardDistribution(t *testing.T) {
	vendor := newVendor(t)
	st := NewMemStore()
	// The store is one map behind one lock; what the former shard
	// mapping had to guarantee still holds: many sequential app IDs
	// stay reachable and counted.
	for app := uint32(1); app <= 32; app++ {
		if err := st.Publish(buildImage(t, vendor, app, 1, []byte("fw"))); err != nil {
			t.Fatal(err)
		}
	}
	for app := uint32(1); app <= 32; app++ {
		if _, ok := st.Latest(app); !ok {
			t.Fatalf("app %d lost after publish", app)
		}
	}
	if got := st.Stats().Apps; got != 32 {
		t.Fatalf("Stats.Apps = %d, want 32", got)
	}
}

func TestServerWithShardsOption(t *testing.T) {
	// The shard option is gone: with no store option the server builds
	// one unsharded *MemStore and publishes into it.
	suite := security.NewTinyCrypt()
	s := New(suite, security.MustGenerateKey("shard-opt"))
	ms, ok := s.Store().(*MemStore)
	if !ok {
		t.Fatalf("default store = %T, want *MemStore", s.Store())
	}
	if err := s.Publish(buildImage(t, newVendor(t), 1, 1, []byte("fw"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := ms.Latest(1); !ok {
		t.Fatal("publish did not reach the default store")
	}
}

func TestServerWithStoreOption(t *testing.T) {
	suite := security.NewTinyCrypt()
	st := NewMemStore()
	s := New(suite, security.MustGenerateKey("store-opt"), WithStore(st))
	if s.Store() != ReleaseStore(st) {
		t.Fatal("WithStore ignored")
	}
	vendor := newVendor(t)
	if err := s.Publish(buildImage(t, vendor, 1, 1, []byte("fw"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Latest(1); !ok {
		t.Fatal("publish did not reach the injected store")
	}
}

func TestStoreStatsJSONShape(t *testing.T) {
	// The stats struct is served over HTTP; pin the field names.
	st := StoreStats{Apps: 1, Releases: 2, Bytes: 3, LoadSeconds: 0.5, TornTails: 1}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"apps":1`, `"releases":2`, `"bytes":3`, `"loadSeconds":0.5`, `"tornTails":1`} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("stats JSON %s missing %s", b, want)
		}
	}
}
