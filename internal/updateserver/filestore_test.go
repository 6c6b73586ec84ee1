package updateserver

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"upkit/internal/manifest"
	"upkit/internal/security"
)

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	vendor := newVendor(t)
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fw1 := bytes.Repeat([]byte("v1"), 500)
	fw2 := bytes.Repeat([]byte("v2"), 500)
	if err := fs.Publish(buildImage(t, vendor, 1, 1, fw1)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Publish(buildImage(t, vendor, 1, 2, fw2)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Publish(buildImage(t, vendor, 9, 7, []byte("other-app"))); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	img, ok := re.Latest(1)
	if !ok || img.Manifest.Version != 2 || !bytes.Equal(img.Firmware, fw2) {
		t.Fatal("latest release did not survive reopen")
	}
	img, ok = re.ByVersion(1, 1)
	if !ok || !bytes.Equal(img.Firmware, fw1) {
		t.Fatal("older release did not survive reopen")
	}
	if apps := re.Apps(); len(apps) != 2 || apps[0] != 1 || apps[1] != 9 {
		t.Fatalf("Apps after reopen = %v, want [1 9]", apps)
	}
	// The vendor signature must round-trip bit-exactly: a restarted
	// server re-serves what the vendor signed, not a re-encoding of it.
	suite := security.NewTinyCrypt()
	if !img.Manifest.VerifyVendorSig(suite, vendorPub(t)) {
		t.Fatal("vendor signature broken by the log round trip")
	}
	st := re.Stats()
	if st.Apps != 2 || st.Releases != 3 || st.TornTails != 0 {
		t.Fatalf("Stats after reopen = %+v", st)
	}
	if st.LoadSeconds <= 0 {
		t.Fatal("reopen did not record a load duration")
	}
}

// vendorPub regenerates the deterministic test vendor key's public half.
func vendorPub(t testing.TB) *security.PublicKey {
	t.Helper()
	return security.MustGenerateKey("store-vendor").Public()
}

func TestFileStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	vendor := newVendor(t)
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Publish(buildImage(t, vendor, 1, 1, []byte("good-one"))); err != nil {
		t.Fatal(err)
	}
	if err := fs.Publish(buildImage(t, vendor, 1, 2, []byte("good-two"))); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// Simulate a crash mid-append: a valid header promising more bytes
	// than the file holds.
	path := filepath.Join(dir, logName(1))
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x55, 0x50, 0x52, 0x53, 0x00, 0x00, 0x40, 0x00, 0xde, 0xad}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := NewFileStore(dir)
	if err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	defer re.Close()
	img, ok := re.Latest(1)
	if !ok || img.Manifest.Version != 2 {
		t.Fatal("valid prefix lost to torn-tail truncation")
	}
	if got := re.Stats().TornTails; got != 1 {
		t.Fatalf("TornTails = %d, want 1", got)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("log size %d after truncation, want %d", after.Size(), before.Size())
	}
	// The truncated log must accept new appends and replay cleanly again.
	if err := re.Publish(buildImage(t, vendor, 1, 3, []byte("good-three"))); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if img, ok := re2.Latest(1); !ok || img.Manifest.Version != 3 {
		t.Fatal("post-truncation append did not survive a second reopen")
	}
	if got := re2.Stats().TornTails; got != 0 {
		t.Fatalf("second replay still sees a torn tail: %d", got)
	}
}

func TestFileStoreGarbageTailTruncated(t *testing.T) {
	dir := t.TempDir()
	vendor := newVendor(t)
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Publish(buildImage(t, vendor, 1, 1, []byte("keeper"))); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	path := filepath.Join(dir, logName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(bytes.Repeat([]byte{0xFF}, 100)) // no magic at all
	f.Close()
	re, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if img, ok := re.Latest(1); !ok || img.Manifest.Version != 1 {
		t.Fatal("valid record lost to trailing garbage")
	}
}

func TestFileStoreCompactionOnPrune(t *testing.T) {
	dir := t.TempDir()
	vendor := newVendor(t)
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	// Six 256 KiB releases pruned to two: the log is past 1 MiB and its
	// dead bytes exceed its live ones, so the prune compacts it.
	fw := bytes.Repeat([]byte("release-payload-"), 16<<10)
	for v := uint16(1); v <= 6; v++ {
		if err := fs.Publish(buildImage(t, vendor, 1, v, fw)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, logName(1))
	before, _ := os.Stat(path)
	pruned := fs.Prune(2)
	if len(pruned) != 1 || pruned[0] != 1 {
		t.Fatalf("Prune = %v, want [1]", pruned)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before.Size(), after.Size())
	}
	if _, ok := fs.ByVersion(1, 4); ok {
		t.Fatal("pruned release still visible")
	}
	// The compacted log must keep accepting appends on the swapped
	// handle and survive a reopen with only the retained releases.
	if err := fs.Publish(buildImage(t, vendor, 1, 7, fw)); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	re, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	snap := re.Snapshot(1)
	if len(snap) != 3 || snap[0].Manifest.Version != 5 || snap[2].Manifest.Version != 7 {
		versions := make([]uint16, len(snap))
		for i, img := range snap {
			versions[i] = img.Manifest.Version
		}
		t.Fatalf("post-compaction replay versions = %v, want [5 6 7]", versions)
	}
}

// TestPrunedReleaseNeverServedAfterRestart: a prune below the
// compaction threshold leaves the pruned records in the log, a replay
// brings them back, and a server given the replayed store applies its
// retention bound before serving anything.
func TestPrunedReleaseNeverServedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	vendor := newVendor(t)
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(security.NewTinyCrypt(), security.MustGenerateKey("prune-server"), WithStore(fs), WithRetention(2))
	for v := uint16(1); v <= 4; v++ {
		if err := srv.Publish(buildImage(t, vendor, 1, v, bytes.Repeat([]byte{byte(v)}, 1000))); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, logName(1))
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if before.Size() < 4*1000 {
		t.Fatalf("log is %d bytes: pruned records were rewritten away below the compaction threshold", before.Size())
	}

	re, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := len(re.Snapshot(1)); got != 4 {
		t.Fatalf("replay restored %d releases, want all 4 records", got)
	}
	restarted := New(security.NewTinyCrypt(), security.MustGenerateKey("prune-server"), WithStore(re), WithRetention(2))
	for v := uint16(1); v <= 2; v++ {
		if _, ok := restarted.Store().ByVersion(1, v); ok {
			t.Fatalf("release v%d pruned before the restart is served after it", v)
		}
	}
	u, err := restarted.PrepareUpdate(1, manifest.DeviceToken{DeviceID: 1, Nonce: 1, CurrentVersion: 1})
	if err != nil {
		t.Fatal(err)
	}
	if u.Differential {
		t.Fatal("differential update served against a pruned base")
	}
}

func TestFileStoreClosedRejectsWrites(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	vendor := newVendor(t)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	err = fs.Publish(buildImage(t, vendor, 1, 1, []byte("late")))
	if !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("publish after close: err = %v, want ErrStoreClosed", err)
	}
	if pruned := fs.Prune(1); pruned != nil {
		t.Fatalf("prune after close pruned %v", pruned)
	}
}

func TestFileStoreRejectsStaleBeforeDisk(t *testing.T) {
	dir := t.TempDir()
	vendor := newVendor(t)
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.Publish(buildImage(t, vendor, 1, 5, []byte("v5"))); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName(1))
	before, _ := os.Stat(path)
	err = fs.Publish(buildImage(t, vendor, 1, 5, []byte("dup")))
	if !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("err = %v, want ErrStaleVersion", err)
	}
	after, _ := os.Stat(path)
	if after.Size() != before.Size() {
		t.Fatal("a rejected publish reached the log")
	}
}

func TestFileStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README.txt", "app-zzzz.log", "app-00000001.log.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("noise"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatalf("foreign files broke open: %v", err)
	}
	defer fs.Close()
	if apps := fs.Apps(); len(apps) != 0 {
		t.Fatalf("apps = %v, want none", apps)
	}
}

// TestServerRestartServesIdenticalPayload is the heart of the durable
// store: a server restarted onto the same state dir (with the same
// server key) must serve a device the exact payload bytes it would
// have served before the crash — what lets a mid-download reception
// journal resume against the restarted server.
func TestServerRestartServesIdenticalPayload(t *testing.T) {
	dir := t.TempDir()
	suite := security.NewTinyCrypt()
	serverKey := security.MustGenerateKey("restart-server")
	vendor := newVendor(t)

	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(suite, serverKey, WithStore(fs))
	v1 := bytes.Repeat([]byte("stable-section-"), 2000)
	v2 := bytes.Clone(v1)
	copy(v2[100:], []byte("tweak"))
	if err := srv.Publish(buildImage(t, vendor, 1, 1, v1)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Publish(buildImage(t, vendor, 1, 2, v2)); err != nil {
		t.Fatal(err)
	}
	tok := manifest.DeviceToken{DeviceID: 0xD1, Nonce: 0x4E, CurrentVersion: 1}
	before, err := srv.PrepareUpdate(1, tok)
	if err != nil {
		t.Fatal(err)
	}
	fs.Close() // the crash

	refs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer refs.Close()
	restarted := New(suite, serverKey, WithStore(refs))
	after, err := restarted.PrepareUpdate(1, tok)
	if err != nil {
		t.Fatal(err)
	}
	// ECDSA signatures are randomized, so the signed manifests differ;
	// the payload (the bytes a reception journal checkpoints) must not.
	if !bytes.Equal(before.Payload, after.Payload) {
		t.Fatal("restarted server serves different payload bytes")
	}
	if before.Differential != after.Differential {
		t.Fatal("restart changed the differential decision")
	}
	if !after.Manifest.VerifyServerSig(suite, restarted.PublicKey()) {
		t.Fatal("restarted server signature does not verify")
	}
}
