package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"upkit/internal/bootloader"
	"upkit/internal/security"
	"upkit/internal/vendorserver"
)

func TestLoadKeys(t *testing.T) {
	dir := t.TempDir()
	vendor := security.MustGenerateKey("dev-tool-vendor")
	server := security.MustGenerateKey("dev-tool-server")
	vPath := filepath.Join(dir, "vendor.pub")
	sPath := filepath.Join(dir, "server.pub")
	if err := os.WriteFile(vPath, security.EncodePublicKey(vendor.Public()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sPath, security.EncodePublicKey(server.Public()), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := loadKeys(vPath, sPath)
	if err != nil {
		t.Fatalf("loadKeys: %v", err)
	}
	if !keys.Vendor.Equal(vendor.Public()) || !keys.Server.Equal(server.Public()) {
		t.Fatal("loaded keys mismatch")
	}
}

func TestLoadKeysErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.pub")
	key := security.MustGenerateKey("dev-tool-x")
	if err := os.WriteFile(good, security.EncodePublicKey(key.Public()), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.pub")
	if err := os.WriteFile(bad, []byte("not a key"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadKeys(filepath.Join(dir, "missing"), good); err == nil {
		t.Error("missing vendor key accepted")
	}
	if _, err := loadKeys(good, bad); err == nil {
		t.Error("malformed server key accepted")
	}
}

// TestCryptoAuthLibDeviceBootsFactoryImage sets up a device with the
// HSM-backed suite from key files, the way run does, and boots a
// factory image signed for it. The suite verifies only against keys
// sealed in the HSM, so a device whose HSM holds no keys rejects even
// its factory image.
func TestCryptoAuthLibDeviceBootsFactoryImage(t *testing.T) {
	dir := t.TempDir()
	vendorKey := security.MustGenerateKey("dev-hsm-vendor")
	serverKey := security.MustGenerateKey("dev-hsm-server")
	vPath := filepath.Join(dir, "vendor.pub")
	sPath := filepath.Join(dir, "server.pub")
	if err := os.WriteFile(vPath, security.EncodePublicKey(vendorKey.Public()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sPath, security.EncodePublicKey(serverKey.Public()), 0o644); err != nil {
		t.Fatal(err)
	}

	// The factory image, as upkit-sign release + provision write it.
	const deviceID, appID = 0xD0D0CAFE, 0x2A
	signing := security.NewTinyCrypt()
	img, err := vendorserver.New(signing, vendorKey).BuildImage(vendorserver.Release{
		AppID: appID, Version: 1, LinkOffset: 0xFFFFFFFF,
		Firmware: bytes.Repeat([]byte("hsm-factory-fw"), 1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := img.Manifest
	m.DeviceID = deviceID
	m.Nonce = 0xFAC70000
	if err := m.SignServer(signing, serverKey); err != nil {
		t.Fatal(err)
	}
	enc, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	factory := filepath.Join(dir, "v1.factory.upk")
	if err := os.WriteFile(factory, append(enc, img.Firmware...), 0o644); err != nil {
		t.Fatal(err)
	}

	keys, err := loadKeys(vPath, sPath)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := newDevice("cryptoauthlib", keys, bootloader.ModeStatic, deviceID, appID, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := provision(dev, factory); err != nil {
		t.Fatalf("boot factory image: %v", err)
	}
	if v := dev.RunningVersion(); v != 1 {
		t.Fatalf("running v%d, want v1", v)
	}
}
