package lwm2m

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"upkit/internal/baseline/mcumgr"
	"upkit/internal/flash"
	"upkit/internal/manifest"
	"upkit/internal/security"
	"upkit/internal/slot"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
)

const appID = uint32(0x42)

type rig struct {
	staging *slot.Slot
	vendor  *vendorserver.Server
	update  *updateserver.Server
	client  *Client
}

func newRig(t *testing.T) *rig {
	t.Helper()
	geo := flash.Geometry{
		Name: "lwm2m-rig", Size: 128 * 1024, SectorSize: 4096, PageSize: 256,
		EraseSector: time.Millisecond, ProgramPage: 10 * time.Microsecond,
	}
	mem, err := flash.New(geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	region, _ := flash.NewRegion(mem, 0, 64*1024)
	staging, err := slot.New("staging", region, slot.NonBootable, slot.AnyLink)
	if err != nil {
		t.Fatal(err)
	}
	suite := security.NewTinyCrypt()
	vendor := vendorserver.New(suite, security.MustGenerateKey("lwm2m-vendor"))
	update := updateserver.New(suite, security.MustGenerateKey("lwm2m-server"))
	r := &rig{staging: staging, vendor: vendor, update: update}
	r.client = &Client{
		Server:         update,
		Store:          &mcumgr.Agent{Target: staging},
		AppID:          appID,
		CurrentVersion: 1,
		SecureChannel:  true,
	}
	return r
}

func (r *rig) publish(t *testing.T, version uint16, fw []byte) *vendorserver.Image {
	t.Helper()
	img, err := r.vendor.BuildImage(vendorserver.Release{
		AppID: appID, Version: version, LinkOffset: 0xFFFFFFFF, Firmware: fw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.update.Publish(img); err != nil {
		t.Fatal(err)
	}
	return img
}

func TestDownloadLatest(t *testing.T) {
	r := newRig(t)
	fw := bytes.Repeat([]byte("v2"), 2000)
	r.publish(t, 2, fw)
	v, err := r.client.Download()
	if err != nil {
		t.Fatalf("Download: %v", err)
	}
	if v != 2 {
		t.Fatalf("downloaded v%d, want v2", v)
	}
	st, _ := r.staging.State()
	if st != slot.StateComplete {
		t.Fatalf("staging = %v, want complete", st)
	}
}

func TestNoUpdateWhenCurrent(t *testing.T) {
	r := newRig(t)
	r.publish(t, 1, []byte("v1"))
	if _, err := r.client.Download(); !errors.Is(err, ErrNoUpdate) {
		t.Fatalf("error = %v, want ErrNoUpdate", err)
	}
}

func TestNoImagePublished(t *testing.T) {
	r := newRig(t)
	if _, err := r.client.Download(); !errors.Is(err, ErrNoImage) {
		t.Fatalf("error = %v, want ErrNoImage", err)
	}
}

// With a direct secure channel the gateway cannot interfere: transport
// security is LwM2M's whole freshness story (§II).
func TestSecureChannelIgnoresGateway(t *testing.T) {
	r := newRig(t)
	old := r.publish(t, 2, bytes.Repeat([]byte("v2"), 1000))
	_ = old
	r.publish(t, 3, bytes.Repeat([]byte("v3"), 1000))
	intercepted := false
	r.client.Gateway = &Gateway{Intercept: func(g *vendorserver.Image) *vendorserver.Image {
		intercepted = true
		return nil
	}}
	r.client.SecureChannel = true
	v, err := r.client.Download()
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 || intercepted {
		t.Fatalf("v = %d, intercepted = %v; secure channel must bypass the gateway", v, intercepted)
	}
}

// Without the end-to-end channel — the common deployment with a
// gateway or smartphone hop — a compromised hop can replay an old,
// validly signed image, and the client stores it. This is the exact
// failure UpKit's double signature closes.
func TestCompromisedGatewayDowngrades(t *testing.T) {
	r := newRig(t)
	oldImg := r.publish(t, 2, bytes.Repeat([]byte("v2-with-cve"), 300))
	r.publish(t, 3, bytes.Repeat([]byte("v3-fixed"), 300))
	r.client.SecureChannel = false
	r.client.Gateway = &Gateway{Intercept: func(*vendorserver.Image) *vendorserver.Image {
		return oldImg // replay the vulnerable version
	}}
	v, err := r.client.Download()
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("downloaded v%d; the baseline should have accepted the replayed v2", v)
	}
	st, _ := r.staging.State()
	if st != slot.StateComplete {
		t.Fatalf("staging = %v, want complete (stored unverified)", st)
	}
}

func TestWireSize(t *testing.T) {
	r := newRig(t)
	img := r.publish(t, 2, make([]byte, 1000))
	wire, err := wireImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(wire); got != 1000+manifest.EncodedSize {
		t.Fatalf("wire image = %d bytes, want %d", got, 1000+manifest.EncodedSize)
	}
}
