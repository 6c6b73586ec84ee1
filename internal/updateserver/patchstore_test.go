package updateserver

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"upkit/internal/security"
)

// frameHeader is the magic and length ahead of a record's payload.
const frameHeader = 8

// pdig derives a deterministic digest for test records.
func pdig(s string) security.Digest { return sha256.Sum256([]byte(s)) }

func openTestPatchStore(t *testing.T, dir string, maxBytes int) *PatchStore {
	t.Helper()
	ps, err := OpenPatchStore(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	return ps
}

func TestPatchStoreRoundTrip(t *testing.T) {
	ps := openTestPatchStore(t, t.TempDir(), 0)
	key := patchKey{appID: 0xA1, from: 1, to: 2}
	base, target := pdig("base-v1"), pdig("target-v2")
	want := patchResult{patch: bytes.Repeat([]byte("patch!"), 100), viable: true}

	if _, ok := ps.Get(key, base, target); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	if err := ps.Put(key, base, target, want); err != nil {
		t.Fatal(err)
	}
	got, ok := ps.Get(key, base, target)
	if !ok {
		t.Fatal("Get missed a just-put record")
	}
	if !got.viable || !bytes.Equal(got.patch, want.patch) {
		t.Fatalf("round-trip mismatch: viable=%v len=%d", got.viable, len(got.patch))
	}

	// Non-viable verdicts round-trip too: the decision is the payload.
	nvKey := patchKey{appID: 0xA1, from: 2, to: 3}
	if err := ps.Put(nvKey, pdig("b2"), pdig("t3"), patchResult{}); err != nil {
		t.Fatal(err)
	}
	nv, ok := ps.Get(nvKey, pdig("b2"), pdig("t3"))
	if !ok || nv.viable || nv.patch != nil {
		t.Fatalf("non-viable round-trip: ok=%v viable=%v patch=%d bytes", ok, nv.viable, len(nv.patch))
	}

	st := ps.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPatchStoreDigestMismatchDropsEntry(t *testing.T) {
	ps := openTestPatchStore(t, t.TempDir(), 0)
	key := patchKey{appID: 7, from: 1, to: 2}
	if err := ps.Put(key, pdig("base"), pdig("target"), patchResult{patch: []byte("p"), viable: true}); err != nil {
		t.Fatal(err)
	}
	// The release store changed under the same version numbers: the
	// record is pinned to the old bytes and must not be served.
	if _, ok := ps.Get(key, pdig("base"), pdig("OTHER")); ok {
		t.Fatal("Get served a record with a mismatched target digest")
	}
	// The stale entry is dropped, not retried forever.
	if st := ps.Stats(); st.Entries != 0 {
		t.Fatalf("stale entry survived: %+v", st)
	}
	if _, ok := ps.Get(key, pdig("base"), pdig("target")); ok {
		t.Fatal("dropped entry still served")
	}
}

func TestPatchStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	ps := openTestPatchStore(t, dir, 0)
	k1 := patchKey{appID: 1, from: 1, to: 2}
	k2 := patchKey{appID: 2, from: 3, to: 4}
	p1 := patchResult{patch: bytes.Repeat([]byte("one"), 50), viable: true}
	if err := ps.Put(k1, pdig("b1"), pdig("t1"), patchResult{patch: []byte("superseded"), viable: true}); err != nil {
		t.Fatal(err)
	}
	// Re-put under the same key: the later record must win at replay.
	if err := ps.Put(k1, pdig("b1"), pdig("t1"), p1); err != nil {
		t.Fatal(err)
	}
	if err := ps.Put(k2, pdig("b2"), pdig("t2"), patchResult{}); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestPatchStore(t, dir, 0)
	got, ok := re.Get(k1, pdig("b1"), pdig("t1"))
	if !ok || !bytes.Equal(got.patch, p1.patch) {
		t.Fatalf("replayed record: ok=%v len=%d, want %d", ok, len(got.patch), len(p1.patch))
	}
	nv, ok := re.Get(k2, pdig("b2"), pdig("t2"))
	if !ok || nv.viable {
		t.Fatalf("replayed non-viable record: ok=%v viable=%v", ok, nv.viable)
	}
	if st := re.Stats(); st.Entries != 2 {
		t.Fatalf("replay indexed %d entries, want 2", st.Entries)
	}
}

func TestPatchStoreTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	ps := openTestPatchStore(t, dir, 0)
	key := patchKey{appID: 5, from: 1, to: 2}
	if err := ps.Put(key, pdig("b"), pdig("t"), patchResult{patch: []byte("good"), viable: true}); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a valid header promising more bytes
	// than the file holds.
	path := filepath.Join(dir, patchLogName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{'U', 'P', 'P', 'D', 0, 0, 1, 0, 'x', 'x'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	want, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	re := openTestPatchStore(t, dir, 0)
	st := re.Stats()
	if st.TornTails != 1 || st.Entries != 1 {
		t.Fatalf("after torn tail: %+v", st)
	}
	if _, ok := re.Get(key, pdig("b"), pdig("t")); !ok {
		t.Fatal("record before the torn tail was lost")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= want.Size() {
		t.Fatalf("torn tail not truncated: %d >= %d", fi.Size(), want.Size())
	}
	// The truncated log accepts new appends cleanly.
	k3 := patchKey{appID: 5, from: 3, to: 4}
	if err := re.Put(k3, pdig("b3"), pdig("t3"), patchResult{patch: []byte("after"), viable: true}); err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Get(k3, pdig("b3"), pdig("t3")); !ok {
		t.Fatal("append after truncation not readable")
	}
}

func TestPatchStoreCorruptRecordDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	ps := openTestPatchStore(t, dir, 0)
	key := patchKey{appID: 9, from: 1, to: 2}
	if err := ps.Put(key, pdig("b"), pdig("t"), patchResult{patch: bytes.Repeat([]byte("q"), 64), viable: true}); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte on disk behind the store's back.
	f, err := os.OpenFile(filepath.Join(dir, patchLogName), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, int64(frameHeader+patchMetaSize+3)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok := ps.Get(key, pdig("b"), pdig("t")); ok {
		t.Fatal("Get served a record whose CRC no longer verifies")
	}
	if st := ps.Stats(); st.Entries != 0 {
		t.Fatalf("corrupt entry survived: %+v", st)
	}
}

func TestPatchStoreEvictsOldestFirst(t *testing.T) {
	patch := bytes.Repeat([]byte("e"), 1024)
	ps := openTestPatchStore(t, t.TempDir(), 3*len(patch))
	for v := uint16(1); v <= 4; v++ {
		key := patchKey{appID: 1, from: v, to: v + 1}
		if err := ps.Put(key, pdig("b"), pdig("t"), patchResult{patch: patch, viable: true}); err != nil {
			t.Fatal(err)
		}
	}
	st := ps.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 3*len(patch) {
		t.Fatalf("after bound overflow: %+v", st)
	}
	if _, ok := ps.Get(patchKey{appID: 1, from: 1, to: 2}, pdig("b"), pdig("t")); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := ps.Get(patchKey{appID: 1, from: 4, to: 5}, pdig("b"), pdig("t")); !ok {
		t.Fatal("newest entry was evicted")
	}
}

func TestPatchStoreReplayEnforcesBound(t *testing.T) {
	dir := t.TempDir()
	patch := bytes.Repeat([]byte("r"), 1024)
	ps := openTestPatchStore(t, dir, 0)
	for v := uint16(1); v <= 4; v++ {
		if err := ps.Put(patchKey{appID: 1, from: v, to: v + 1}, pdig("b"), pdig("t"),
			patchResult{patch: patch, viable: true}); err != nil {
			t.Fatal(err)
		}
	}
	ps.Close()

	// Reopen under a shrunken bound: replay must evict down to it.
	re := openTestPatchStore(t, dir, 2*len(patch))
	st := re.Stats()
	if st.Entries != 2 || st.Bytes > 2*len(patch) {
		t.Fatalf("replay ignored the bound: %+v", st)
	}
	if _, ok := re.Get(patchKey{appID: 1, from: 4, to: 5}, pdig("b"), pdig("t")); !ok {
		t.Fatal("newest entry missing after bounded replay")
	}
}

func TestPatchStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	ps := openTestPatchStore(t, dir, DefaultPatchStoreBytes)
	key := patchKey{appID: 1, from: 1, to: 2}
	// Rewrite one key until dead bytes dominate a >1MB log.
	patch := bytes.Repeat([]byte("c"), 300<<10)
	for i := 0; i < 6; i++ {
		patch[0] = byte(i) // distinct bytes per generation
		if err := ps.Put(key, pdig("b"), pdig("t"), patchResult{patch: patch, viable: true}); err != nil {
			t.Fatal(err)
		}
	}
	st := ps.Stats()
	if st.Compactions == 0 {
		t.Fatalf("log never compacted: %+v", st)
	}
	// Compaction fired at least once, so the log holds far fewer than
	// the six appended records (dead records re-accumulate only below
	// the 1MB re-trigger threshold).
	recSize := frameHeader + patchMetaSize + len(patch) + 4
	if st.FileBytes > 3*recSize {
		t.Fatalf("compaction left a bloated log: %+v", st)
	}
	got, ok := ps.Get(key, pdig("b"), pdig("t"))
	if !ok || !bytes.Equal(got.patch, patch) {
		t.Fatal("latest record unreadable after compaction")
	}
	ps.Close()

	// The compacted log replays.
	re := openTestPatchStore(t, dir, 0)
	if got, ok := re.Get(key, pdig("b"), pdig("t")); !ok || !bytes.Equal(got.patch, patch) {
		t.Fatal("compacted log did not replay the live record")
	}
}

func TestPatchStoreClosed(t *testing.T) {
	ps := openTestPatchStore(t, t.TempDir(), 0)
	key := patchKey{appID: 1, from: 1, to: 2}
	if err := ps.Put(key, pdig("b"), pdig("t"), patchResult{patch: []byte("p"), viable: true}); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal("Close is not idempotent:", err)
	}
	if err := ps.Put(key, pdig("b"), pdig("t"), patchResult{}); err != ErrPatchStoreClosed {
		t.Fatalf("Put after Close = %v, want ErrPatchStoreClosed", err)
	}
	if _, ok := ps.Get(key, pdig("b"), pdig("t")); ok {
		t.Fatal("Get after Close reported a hit")
	}
}
