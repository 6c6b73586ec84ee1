package proxy_test

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"testing"

	"upkit/internal/ble"
	"upkit/internal/platform"
	"upkit/internal/proxy"
	"upkit/internal/testbed"
	"upkit/internal/updateserver"
)

const fwSize = 24 * 1024

func newPushBed(t *testing.T) *testbed.Bed {
	t.Helper()
	b, err := testbed.New(testbed.Options{Approach: platform.Push},
		testbed.MakeFirmware("proxy-v1", fwSize))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PublishVersion(2, testbed.MakeFirmware("proxy-v2", fwSize)); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHonestProxyDelivers(t *testing.T) {
	b := newPushBed(t)
	phone := b.Smartphone()
	if err := phone.PushUpdate(); err != nil {
		t.Fatalf("PushUpdate: %v", err)
	}
	if !b.Device.ReadyToReboot() {
		t.Fatal("update not staged")
	}
	if phone.Captured == nil {
		t.Fatal("proxy should capture the update it forwarded")
	}
}

func TestProxyCannotForgeContent(t *testing.T) {
	// The core claim of §III: a compromised proxy can deny service but
	// cannot alter an update. Any modification is rejected.
	mutations := []struct {
		name  string
		apply func(*proxy.Smartphone)
	}{
		{"manifest bit", func(p *proxy.Smartphone) {
			p.TamperManifest = func(m []byte) []byte { m[7] ^= 1; return m }
		}},
		{"manifest version", func(p *proxy.Smartphone) {
			p.TamperManifest = func(m []byte) []byte { m[10]++; return m }
		}},
		{"payload bit", func(p *proxy.Smartphone) {
			p.TamperPayload = func(b []byte) []byte { b[100] ^= 0x80; return b }
		}},
		{"payload truncation then padding", func(p *proxy.Smartphone) {
			p.TamperPayload = func(b []byte) []byte {
				copy(b[len(b)-50:], bytes.Repeat([]byte{0xAA}, 50))
				return b
			}
		}},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			b := newPushBed(t)
			phone := b.Smartphone()
			tc.apply(phone)
			if err := phone.PushUpdate(); err == nil {
				t.Fatal("tampered update accepted")
			}
			if b.Device.ReadyToReboot() {
				t.Fatal("tampered update staged")
			}
		})
	}
}

func TestTamperFunctionsGetCopies(t *testing.T) {
	b := newPushBed(t)
	phone := b.Smartphone()
	var seen []byte
	phone.TamperPayload = func(p []byte) []byte {
		seen = p
		p[0] ^= 0xFF
		return p
	}
	_ = phone.PushUpdate() // rejection expected; irrelevant here
	if phone.Captured == nil {
		t.Fatal("no captured update")
	}
	// The stored update must be pristine despite the in-place mutation.
	if seen != nil && bytes.Equal(phone.Captured.Payload[:1], seen[:1]) {
		t.Fatal("tamper function mutated the captured update")
	}
}

func TestReplayWithoutCapture(t *testing.T) {
	b := newPushBed(t)
	phone := b.Smartphone()
	if err := phone.ReplayCaptured(); !errors.Is(err, proxy.ErrNothingCaptured) {
		t.Fatalf("error = %v, want ErrNothingCaptured", err)
	}
}

func TestReplayRestoresNormalOperation(t *testing.T) {
	b := newPushBed(t)
	phone := b.Smartphone()
	if err := phone.PushUpdate(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Device.ApplyStagedUpdate(); err != nil {
		t.Fatal(err)
	}
	// Replay must fail and must reset the Replay field afterwards.
	phone.Central = ble.Connect(b.Link, ble.NewPeripheral(b.Device.Agent))
	if err := phone.ReplayCaptured(); err == nil {
		t.Fatal("replay accepted")
	}
	if phone.Replay != nil {
		t.Fatal("Replay field not restored")
	}
}

func TestProxyReportsServerErrors(t *testing.T) {
	b := newPushBed(t)
	phone := b.Smartphone()
	phone.Server = updateserver.New(b.Suite, nil) // empty server, no releases
	if err := phone.PushUpdate(); err == nil {
		t.Fatal("push with no published release must fail")
	}
}

func TestProxyFetchesOverHTTP(t *testing.T) {
	// The full Internet hop: the smartphone fetches the double-signed
	// image from the update server's HTTP API, then pushes it over BLE.
	b := newPushBed(t)
	ts := httptest.NewServer(b.Update.Handler())
	defer ts.Close()

	phone := b.Smartphone()
	phone.Server = nil
	phone.HTTP = &updateserver.HTTPClient{BaseURL: ts.URL}
	if err := phone.PushUpdate(); err != nil {
		t.Fatalf("PushUpdate over HTTP: %v", err)
	}
	res, err := b.Device.ApplyStagedUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 {
		t.Fatalf("booted v%d, want v2", res.Version)
	}
}

func TestProxyPollingUpToDateDeviceOverHTTP(t *testing.T) {
	// A proxy polling on behalf of a device that already runs the
	// latest version must see "nothing to do" (ErrNoNewUpdate, from the
	// HTTP 204), not an error indistinguishable from "unknown app".
	// Differential support puts the running version into the device
	// token, which is how the server learns the device is current.
	b, err := testbed.New(
		testbed.Options{Approach: platform.Push, Differential: true, Seed: "uptodate"},
		testbed.MakeFirmware("uptodate-v1", fwSize))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PublishVersion(2, testbed.MakeFirmware("uptodate-v2", fwSize)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(b.Update.Handler())
	defer ts.Close()
	if _, err := b.PushUpdate(); err != nil {
		t.Fatal(err)
	}

	phone := b.Smartphone()
	phone.Server = nil
	phone.HTTP = &updateserver.HTTPClient{BaseURL: ts.URL}
	if err := phone.PushUpdate(); !errors.Is(err, updateserver.ErrNoNewUpdate) {
		t.Fatalf("error = %v, want ErrNoNewUpdate", err)
	}

	// An unknown app stays a hard error, not ErrNoNewUpdate.
	phone.AppID = 0x99
	if err := phone.PushUpdate(); err == nil || errors.Is(err, updateserver.ErrNoNewUpdate) {
		t.Fatalf("unknown app error = %v, want a non-ErrNoNewUpdate failure", err)
	}
}
