package patchfarm

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"upkit/internal/manifest"
	"upkit/internal/security"
	"upkit/internal/testbed"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
)

const testApp = uint32(0xFA12)

// newTestServer builds an update server with versions 1..n published
// for testApp, each a small edit of the previous (so differentials are
// viable).
func newTestServer(t *testing.T, n int, opts ...updateserver.Option) *updateserver.Server {
	t.Helper()
	suite, err := security.SuiteByName("tinycrypt", nil)
	if err != nil {
		t.Fatal(err)
	}
	vendor := vendorserver.New(suite, security.MustGenerateKey("farm-vendor"))
	srv := updateserver.New(suite, security.MustGenerateKey("farm-server"), opts...)
	t.Cleanup(func() { srv.Close() })
	fw := testbed.MakeFirmware("farm-fw", 16*1024)
	for v := 1; v <= n; v++ {
		img, err := vendor.BuildImage(vendorserver.Release{
			AppID: testApp, Version: uint16(v), Firmware: fw,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Publish(img); err != nil {
			t.Fatal(err)
		}
		fw = testbed.DeriveAppChangeN(fw, 64, v)
	}
	return srv
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFarmWarmsEnqueuedPairs(t *testing.T) {
	srv := newTestServer(t, 4)
	farm := New(srv, Config{Workers: 2})
	defer farm.Close()

	// Census-style pairs: To zero resolves to the latest (v4).
	n := farm.Enqueue(
		updateserver.VersionPair{AppID: testApp, From: 1, Requests: 100},
		updateserver.VersionPair{AppID: testApp, From: 2, Requests: 50},
		updateserver.VersionPair{AppID: testApp, From: 3, Requests: 10},
	)
	if n != 3 {
		t.Fatalf("Enqueue accepted %d pairs, want 3", n)
	}
	waitFor(t, "3 warmed pairs", func() bool { return farm.Stats().Warmed == 3 })

	// Every fleet request on a warmed pair is now a pure cache hit.
	before := srv.Stats()
	for from := uint16(1); from <= 3; from++ {
		u, err := srv.PrepareUpdate(testApp, manifest.DeviceToken{
			DeviceID: 1, Nonce: uint32(from), CurrentVersion: from,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !u.Differential {
			t.Fatalf("v%d→latest not served differentially", from)
		}
	}
	after := srv.Stats()
	if after.Computations != before.Computations {
		t.Fatalf("warmed pairs recomputed on the request path: %d → %d",
			before.Computations, after.Computations)
	}
	if after.Hits != before.Hits+3 {
		t.Fatalf("hits %d → %d, want +3", before.Hits, after.Hits)
	}
}

func TestFarmAutoWarmAfterPublish(t *testing.T) {
	srv := newTestServer(t, 2)
	farm := New(srv, Config{Workers: 1, AutoWarm: true})
	defer farm.Close()

	// A device on v1 asks: the pair (v1→v2) is now observed hot.
	if _, err := srv.PrepareUpdate(testApp, manifest.DeviceToken{
		DeviceID: 1, Nonce: 1, CurrentVersion: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// Publish v3. The announcement must drive the farm to re-warm
	// v1→v3 before any device asks for it.
	suite, _ := security.SuiteByName("tinycrypt", nil)
	vendor := vendorserver.New(suite, security.MustGenerateKey("farm-vendor"))
	img, ok := srv.LatestImage(testApp)
	if !ok {
		t.Fatal("latest image vanished")
	}
	v3, err := vendor.BuildImage(vendorserver.Release{
		AppID: testApp, Version: 3, Firmware: testbed.DeriveAppChangeN(img.Firmware, 64, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Publish(v3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "auto-warmed pair", func() bool { return farm.Stats().Warmed >= 1 })

	before := srv.Stats()
	u, err := srv.PrepareUpdate(testApp, manifest.DeviceToken{
		DeviceID: 2, Nonce: 2, CurrentVersion: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !u.Differential || u.Manifest.Version != 3 {
		t.Fatalf("got version %d differential=%v", u.Manifest.Version, u.Differential)
	}
	if after := srv.Stats(); after.Computations != before.Computations {
		t.Fatal("auto-warmed pair recomputed on the request path")
	}
}

func TestFarmDeduplicatesAndBounds(t *testing.T) {
	srv := newTestServer(t, 2)
	// One worker, tiny queue, and a first pair to occupy the worker is
	// not needed: dedup is checked against the queued set directly.
	farm := New(srv, Config{Workers: 1, QueueDepth: 1})
	defer farm.Close()

	p := updateserver.VersionPair{AppID: testApp, From: 1}
	farm.Enqueue(p, p, p)
	waitFor(t, "queue drained", func() bool {
		st := farm.Stats()
		return st.Warmed+st.AlreadyResident+st.Errors == st.Enqueued && st.Queued == 0
	})
	st := farm.Stats()
	if st.Enqueued > 2 {
		t.Fatalf("duplicate pair enqueued %d times: %+v", st.Enqueued, st)
	}
	if st.Errors != 0 {
		t.Fatalf("warm errors: %+v", st)
	}

	// Unknown app → counted error, not a wedge.
	farm.Enqueue(updateserver.VersionPair{AppID: 0xDEAD, From: 1})
	waitFor(t, "error counted", func() bool { return farm.Stats().Errors == 1 })

	farm.Close()
	farm.Close() // idempotent
	if n := farm.Enqueue(p); n != 0 {
		t.Fatalf("Enqueue after Close accepted %d pairs", n)
	}
}

func TestFarmHTTPEndpoints(t *testing.T) {
	dir := t.TempDir()
	ps, err := updateserver.OpenPatchStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	srv := newTestServer(t, 3, updateserver.WithPatchStore(ps))
	farm := New(srv, Config{Workers: 2})
	defer farm.Close()
	srv.Mount(farm.Register)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Census warm: two populations, both destined for the latest.
	body := `{"census":[{"app":64018,"from":1,"devices":1000},{"app":64018,"from":2,"devices":50}]}`
	resp, err := http.Post(ts.URL+"/api/v1/patchfarm/warm", "application/json",
		bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var warm struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || warm.Accepted != 2 {
		t.Fatalf("warm: HTTP %d accepted=%d", resp.StatusCode, warm.Accepted)
	}
	waitFor(t, "census pairs warmed", func() bool { return farm.Stats().Warmed == 2 })

	resp, err = http.Get(ts.URL + "/api/v1/patchfarm/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d", resp.StatusCode)
	}
	var st statsJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Farm.Warmed != 2 {
		t.Fatalf("stats farm.warmed = %d, want 2", st.Farm.Warmed)
	}
	if st.Store == nil || st.Store.Puts != 2 {
		t.Fatalf("stats store = %+v, want 2 puts", st.Store)
	}

	// Malformed body → the table's JSON error envelope, not a panic.
	resp, err = http.Post(ts.URL+"/api/v1/patchfarm/warm", "application/json",
		bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed warm body: HTTP %d", resp.StatusCode)
	}
}
