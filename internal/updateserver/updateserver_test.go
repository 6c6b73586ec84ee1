package updateserver

import (
	"bytes"
	"errors"
	"testing"

	"upkit/internal/bsdiff"
	"upkit/internal/lzss"
	"upkit/internal/manifest"
	"upkit/internal/security"
	"upkit/internal/vendorserver"
)

type servers struct {
	suite  security.Suite
	vendor *vendorserver.Server
	update *Server
}

func newServers(t testing.TB, opts ...Option) *servers {
	t.Helper()
	suite := security.NewTinyCrypt()
	return &servers{
		suite:  suite,
		vendor: vendorserver.New(suite, security.MustGenerateKey("us-vendor")),
		update: New(suite, security.MustGenerateKey("us-server"), opts...),
	}
}

func (s *servers) publish(t testing.TB, appID uint32, version uint16, fw []byte) {
	t.Helper()
	img, err := s.vendor.BuildImage(vendorserver.Release{
		AppID: appID, Version: version, LinkOffset: 0xFFFFFFFF, Firmware: fw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.update.Publish(img); err != nil {
		t.Fatal(err)
	}
}

func TestPrepareFullUpdate(t *testing.T) {
	s := newServers(t)
	fw := bytes.Repeat([]byte("v2"), 5000)
	s.publish(t, 1, 2, fw)

	tok := manifest.DeviceToken{DeviceID: 0xD1, Nonce: 0x4E, CurrentVersion: 0}
	u, err := s.update.PrepareUpdate(1, tok)
	if err != nil {
		t.Fatalf("PrepareUpdate: %v", err)
	}
	if u.Differential {
		t.Fatal("device with CurrentVersion=0 must get a full image")
	}
	if !bytes.Equal(u.Payload, fw) {
		t.Fatal("payload is not the firmware")
	}
	m := u.Manifest
	if m.DeviceID != tok.DeviceID || m.Nonce != tok.Nonce {
		t.Fatalf("token fields not copied: %+v", m)
	}
	if !m.VerifyVendorSig(s.suite, s.vendor.PublicKey()) {
		t.Fatal("vendor signature broken by server signing")
	}
	if !m.VerifyServerSig(s.suite, s.update.PublicKey()) {
		t.Fatal("server signature does not verify")
	}
	if len(u.ManifestBytes) != manifest.EncodedSize {
		t.Fatalf("manifest bytes = %d, want %d", len(u.ManifestBytes), manifest.EncodedSize)
	}
	if u.TotalSize() != len(u.ManifestBytes)+len(u.Payload) {
		t.Fatal("TotalSize inconsistent")
	}
}

func TestPrepareDifferentialUpdate(t *testing.T) {
	s := newServers(t)
	v1 := bytes.Repeat([]byte("stable-section-"), 4000)
	v2 := bytes.Clone(v1)
	copy(v2[500:], []byte("small tweak"))
	s.publish(t, 1, 1, v1)
	s.publish(t, 1, 2, v2)

	tok := manifest.DeviceToken{DeviceID: 0xD1, Nonce: 0x4E, CurrentVersion: 1}
	u, err := s.update.PrepareUpdate(1, tok)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Differential {
		t.Fatal("expected a differential update")
	}
	if u.Manifest.OldVersion != 1 {
		t.Fatalf("OldVersion = %d, want 1", u.Manifest.OldVersion)
	}
	if u.Manifest.PatchSize != uint32(len(u.Payload)) {
		t.Fatalf("PatchSize = %d, payload = %d", u.Manifest.PatchSize, len(u.Payload))
	}
	if len(u.Payload) >= len(v2) {
		t.Fatalf("patch (%d) not smaller than image (%d)", len(u.Payload), len(v2))
	}
	// The payload must decompress+apply back to v2.
	patch, err := lzss.Decode(u.Payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bsdiff.Apply(v1, patch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("patch does not rebuild v2")
	}
}

func TestDifferentialFallsBackForUnknownBase(t *testing.T) {
	s := newServers(t)
	s.publish(t, 1, 5, bytes.Repeat([]byte("v5"), 1000))
	// Device claims v3, which the server never stored.
	tok := manifest.DeviceToken{DeviceID: 1, Nonce: 2, CurrentVersion: 3}
	u, err := s.update.PrepareUpdate(1, tok)
	if err != nil {
		t.Fatal(err)
	}
	if u.Differential {
		t.Fatal("must fall back to full image when base version is unknown")
	}
}

func TestDifferentialFallsBackWhenPatchNotSmaller(t *testing.T) {
	s := newServers(t)
	// Two completely unrelated random-ish images: the patch cannot beat
	// the full image.
	v1 := make([]byte, 2000)
	v2 := make([]byte, 2000)
	for i := range v1 {
		v1[i] = byte(i * 7)
		v2[i] = byte(i*13 + 5)
	}
	s.publish(t, 1, 1, v1)
	s.publish(t, 1, 2, v2)
	tok := manifest.DeviceToken{DeviceID: 1, Nonce: 2, CurrentVersion: 1}
	u, err := s.update.PrepareUpdate(1, tok)
	if err != nil {
		t.Fatal(err)
	}
	if u.Differential && len(u.Payload) >= len(v2) {
		t.Fatal("server sent a patch at least as large as the image")
	}
}

func TestNoNewUpdate(t *testing.T) {
	s := newServers(t)
	s.publish(t, 1, 2, []byte("v2"))
	tok := manifest.DeviceToken{DeviceID: 1, Nonce: 2, CurrentVersion: 2}
	if _, err := s.update.PrepareUpdate(1, tok); !errors.Is(err, ErrNoNewUpdate) {
		t.Fatalf("error = %v, want ErrNoNewUpdate", err)
	}
}

func TestUnknownApp(t *testing.T) {
	s := newServers(t)
	tok := manifest.DeviceToken{DeviceID: 1, Nonce: 2}
	if _, err := s.update.PrepareUpdate(99, tok); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("error = %v, want ErrUnknownApp", err)
	}
}

func TestPublishRejectsStaleVersion(t *testing.T) {
	s := newServers(t)
	s.publish(t, 1, 2, []byte("v2"))
	img, err := s.vendor.BuildImage(vendorserver.Release{AppID: 1, Version: 2, Firmware: []byte("dup")})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.update.Publish(img); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("error = %v, want ErrStaleVersion", err)
	}
}

func TestLatest(t *testing.T) {
	s := newServers(t)
	if _, ok := s.update.Latest(1); ok {
		t.Fatal("Latest on empty server must report !ok")
	}
	s.publish(t, 1, 3, []byte("v3"))
	v, ok := s.update.Latest(1)
	if !ok || v != 3 {
		t.Fatalf("Latest = (%d,%v), want (3,true)", v, ok)
	}
}

func TestEachRequestGetsDistinctSignature(t *testing.T) {
	s := newServers(t)
	s.publish(t, 1, 2, bytes.Repeat([]byte("fw"), 100))
	u1, err := s.update.PrepareUpdate(1, manifest.DeviceToken{DeviceID: 1, Nonce: 100})
	if err != nil {
		t.Fatal(err)
	}
	u2, err := s.update.PrepareUpdate(1, manifest.DeviceToken{DeviceID: 1, Nonce: 200})
	if err != nil {
		t.Fatal(err)
	}
	// The nonce differs, so the signed manifests must differ: an image
	// prepared for one request cannot satisfy another.
	if bytes.Equal(u1.ManifestBytes, u2.ManifestBytes) {
		t.Fatal("two requests produced identical signed manifests")
	}
}

func TestRetentionPrunesOldReleases(t *testing.T) {
	s := newServers(t, WithRetention(2))
	base := bytes.Repeat([]byte("retained-release"), 1000)
	for v := uint16(1); v <= 5; v++ {
		fw := bytes.Clone(base)
		fw[0] = byte(v)
		s.publish(t, 1, v, fw)
	}
	// Only v4 and v5 remain.
	if _, ok := s.update.Store().ByVersion(1, 3); ok {
		t.Fatal("pruned release still present")
	}
	if _, ok := s.update.Store().ByVersion(1, 4); !ok {
		t.Fatal("retained release missing")
	}
	if v, _ := s.update.Latest(1); v != 5 {
		t.Fatalf("latest = %d, want 5", v)
	}
	// A device on a pruned version still updates — with a full image.
	tok := manifest.DeviceToken{DeviceID: 1, Nonce: 9, CurrentVersion: 2}
	u, err := s.update.PrepareUpdate(1, tok)
	if err != nil {
		t.Fatal(err)
	}
	if u.Differential {
		t.Fatal("differential update offered against a pruned base")
	}
	// A device on a retained version gets the differential path.
	tok.CurrentVersion = 4
	tok.Nonce = 10
	u, err = s.update.PrepareUpdate(1, tok)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Differential {
		t.Fatal("differential update not offered against a retained base")
	}
}
