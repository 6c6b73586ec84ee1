package main

import (
	"os"
	"path/filepath"
	"testing"

	"upkit/internal/manifest"
	"upkit/internal/security"
	"upkit/internal/suit"
	"upkit/internal/vendorserver"
)

// runIn executes the tool's run() with the working directory set to dir.
func runIn(t *testing.T, dir string, args ...string) error {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	}()
	return run(args)
}

func TestFullSigningWorkflow(t *testing.T) {
	dir := t.TempDir()
	fw := make([]byte, 4096)
	for i := range fw {
		fw[i] = byte(i)
	}
	if err := os.WriteFile(filepath.Join(dir, "fw.bin"), fw, 0o644); err != nil {
		t.Fatal(err)
	}

	steps := [][]string{
		{"keygen", "-seed", "cli-vendor", "-out", "vendor"},
		{"keygen", "-seed", "cli-server", "-out", "server"},
		{"release", "-key", "vendor.key", "-app", "0x2A", "-version", "3",
			"-fw", "fw.bin", "-out", "v3.upk"},
		{"provision", "-in", "v3.upk", "-server-key", "server.key",
			"-device", "0xD1", "-out", "v3.factory.upk"},
		{"export-suit", "-in", "v3.upk", "-key", "vendor.key", "-out", "v3.suit"},
		{"inspect", "-in", "v3.upk", "-vendor-pub", "vendor.pub"},
		{"inspect", "-in", "v3.factory.upk", "-vendor-pub", "vendor.pub",
			"-server-pub", "server.pub"},
	}
	for _, args := range steps {
		if err := runIn(t, dir, args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}

	// The released image must parse and verify.
	data, err := os.ReadFile(filepath.Join(dir, "v3.upk"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Unmarshal(data[:manifest.EncodedSize])
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 3 || m.AppID != 0x2A || int(m.Size) != len(fw) {
		t.Fatalf("manifest = %+v", m)
	}
	suite := security.NewTinyCrypt()
	vendorPub, err := security.DecodePublicKey(mustRead(t, dir, "vendor.pub"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.VerifyVendorSig(suite, vendorPub) {
		t.Fatal("vendor signature invalid on released image")
	}

	// The provisioned image carries a valid server signature and the
	// device binding.
	pdata := mustRead(t, dir, "v3.factory.upk")
	pm, err := manifest.Unmarshal(pdata[:manifest.EncodedSize])
	if err != nil {
		t.Fatal(err)
	}
	if pm.DeviceID != 0xD1 {
		t.Fatalf("device id = %#x, want 0xD1", pm.DeviceID)
	}
	serverPub, err := security.DecodePublicKey(mustRead(t, dir, "server.pub"))
	if err != nil {
		t.Fatal(err)
	}
	if !pm.VerifyServerSig(suite, serverPub) {
		t.Fatal("server signature invalid on provisioned image")
	}

	// The SUIT envelope must parse, verify, and describe the image.
	env := mustRead(t, dir, "v3.suit")
	sm, err := suit.Parse(env, suite, vendorPub)
	if err != nil {
		t.Fatalf("SUIT parse: %v", err)
	}
	if !sm.MatchesUpKit(m) {
		t.Fatal("SUIT envelope does not match the image manifest")
	}
}

func mustRead(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{},                         // no subcommand
		{"unknown"},                // bad subcommand
		{"release"},                // missing flags
		{"provision"},              // missing flags
		{"export-suit"},            // missing flags
		{"inspect"},                // missing -in
		{"inspect", "-in", "nope"}, // missing file
		{"release", "-key", "nope", "-fw", "nope", "-out", "x"}, // bad key file
	}
	for _, args := range cases {
		if err := runIn(t, dir, args...); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestKeygenRandom(t *testing.T) {
	dir := t.TempDir()
	if err := runIn(t, dir, "keygen", "-out", "rnd"); err != nil {
		t.Fatal(err)
	}
	if _, err := security.DecodePrivateKey(mustRead(t, dir, "rnd.key")); err != nil {
		t.Fatal(err)
	}
	if _, err := security.DecodePublicKey(mustRead(t, dir, "rnd.pub")); err != nil {
		t.Fatal(err)
	}
}

// TestRotationWorkflow drives the key-lifecycle subcommands end to end:
// generate a root and two server keys, issue a signed record for key 2,
// revoke key 1, pack both into a bundle, and verify a device-side
// keystore that trusts only the root accepts the result.
func TestRotationWorkflow(t *testing.T) {
	dir := t.TempDir()
	steps := [][]string{
		{"keygen", "-seed", "cli-root", "-out", "root"},
		{"keygen", "-seed", "cli-server2", "-out", "server2"},
		{"rotate", "-root", "root.key", "-role", "server", "-id", "2",
			"-pub", "server2.pub", "-not-after", "4102444800", "-out", "server2.ukr"},
		{"revoke", "-root", "root.key", "-seq", "1", "-keys", "server:1",
			"-out", "revocations.url"},
		{"bundle", "-records", "server2.ukr", "-revocation", "revocations.url",
			"-out", "keys.ukb"},
	}
	for _, s := range steps {
		if err := runIn(t, dir, s...); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}

	// Round-trip the record file through the parser.
	recData, err := os.ReadFile(filepath.Join(dir, "server2.ukr"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := security.ParseKeyRecord(recData)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Role != security.RoleServer || rec.KeyID != 2 || rec.NotAfter != 4102444800 {
		t.Fatalf("record round-trip mismatch: %+v", rec)
	}

	// A keystore provisioned with only the root public key must accept
	// the bundle: record signature valid, revocation applied.
	root := security.MustGenerateKey("cli-root")
	suite, err := security.SuiteByName("tinycrypt", nil)
	if err != nil {
		t.Fatal(err)
	}
	ks := security.NewKeystore(suite, root.Public(), nil)
	bundleData, err := os.ReadFile(filepath.Join(dir, "keys.ukb"))
	if err != nil {
		t.Fatal(err)
	}
	added, err := ks.ApplyBundle(bundleData)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("bundle added %d records, want 1", added)
	}
	if !ks.IsRevoked(security.RoleServer, 1) {
		t.Fatal("server key 1 not revoked after bundle")
	}
	if _, err := ks.VerificationKey(security.RoleServer, 2); err != nil {
		t.Fatalf("server key 2 not usable: %v", err)
	}

	// A record signed by the wrong root must not load.
	evil := security.MustGenerateKey("cli-evil")
	eks := security.NewKeystore(suite, evil.Public(), nil)
	if _, err := eks.ApplyBundle(bundleData); err == nil {
		t.Fatal("bundle accepted under the wrong root")
	}
}

// TestInspectSuiteVerifiesWithHSM pins the key wiring of inspect: the
// CryptoAuthLib suite verifies only against keys sealed in its HSM, so
// the keys inspect was given must be in it.
func TestInspectSuiteVerifiesWithHSM(t *testing.T) {
	vendorKey := security.MustGenerateKey("inspect-hsm-vendor")
	serverKey := security.MustGenerateKey("inspect-hsm-server")
	signing := security.NewTinyCrypt()
	img, err := vendorserver.New(signing, vendorKey).BuildImage(vendorserver.Release{
		AppID: 0x2A, Version: 1, LinkOffset: 0xFFFFFFFF, Firmware: []byte("inspect-hsm-fw"),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := img.Manifest
	if err := m.SignServer(signing, serverKey); err != nil {
		t.Fatal(err)
	}
	suite, err := suiteWithKeys("cryptoauthlib", vendorKey.Public(), serverKey.Public())
	if err != nil {
		t.Fatal(err)
	}
	if !m.VerifyVendorSig(suite, vendorKey.Public()) || !m.VerifyServerSig(suite, serverKey.Public()) {
		t.Fatal("HSM suite rejected valid signatures from the keys it holds")
	}
	empty, err := suiteWithKeys("cryptoauthlib", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.VerifyVendorSig(empty, vendorKey.Public()) {
		t.Fatal("HSM suite verified against a key it does not hold")
	}
}
