package updateserver

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"upkit/internal/security"
)

// copyLogs copies committed logs into a fresh directory: replay
// truncates torn tails in place.
func copyLogs(t *testing.T, from string, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLegacyLogsReplay replays a release log and a patch log written by
// the stores' implementation before they moved onto framelog, each
// ending in a torn tail: the format is unchanged, so both replay to the
// releases and patches that were acknowledged.
func TestLegacyLogsReplay(t *testing.T) {
	dir := copyLogs(t, filepath.Join("testdata", "legacy"), "app-0000002a.log", "patches.log")

	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	snap := fs.Snapshot(0x2A)
	if len(snap) != 3 || fs.Stats().TornTails != 1 {
		t.Fatalf("replayed %d releases with %d torn tails, want 3 and 1", len(snap), fs.Stats().TornTails)
	}
	suite := security.NewTinyCrypt()
	for i, img := range snap {
		v := uint16(i + 1)
		fw := bytes.Repeat([]byte{'l', 'e', 'g', 'a', 'c', 'y', '0' + byte(v)}, 64*int(v))
		if img.Manifest.Version != v || !bytes.Equal(img.Firmware, fw) {
			t.Fatalf("release %d: v%d, %d firmware bytes", i, img.Manifest.Version, len(img.Firmware))
		}
		if !img.Manifest.VerifyVendorSig(suite, vendorPub(t)) {
			t.Fatalf("release v%d: vendor signature does not verify", v)
		}
	}

	ps, err := OpenPatchStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if st := ps.Stats(); st.Entries != 2 || st.TornTails != 1 {
		t.Fatalf("patch store stats = %+v, want 2 entries and 1 torn tail", st)
	}
	target := pdig("legacy-target3")
	got, ok := ps.Get(patchKey{appID: 0x2A, from: 1, to: 3}, pdig("legacy-base1"), target)
	if !ok || !got.viable || !bytes.Equal(got.patch, bytes.Repeat([]byte("patch-1-3/"), 20)) {
		t.Fatalf("1→3: ok=%v viable=%v patch %q (the later record must win)", ok, got.viable, got.patch)
	}
	if nv, ok := ps.Get(patchKey{appID: 0x2A, from: 2, to: 3}, pdig("legacy-base2"), target); !ok || nv.viable {
		t.Fatalf("2→3: ok=%v viable=%v, want a non-viable verdict", ok, nv.viable)
	}
}
