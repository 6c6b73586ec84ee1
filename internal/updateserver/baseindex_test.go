package updateserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"upkit/internal/bsdiff"
	"upkit/internal/lzss"
	"upkit/internal/manifest"
)

// chainFirmware returns n images of size bytes, each one localized
// edit away from the one before, like successive releases of one app.
func chainFirmware(n, size int) [][]byte {
	rng := rand.New(rand.NewSource(47))
	idioms := [][]byte{{0x70, 0xB5}, {0x00, 0x20}, {0x04, 0x46}, {0xFF, 0xF7, 0x00, 0xF8}, {0x70, 0xBD}}
	fw := make([]byte, 0, size)
	for len(fw) < size {
		if rng.Intn(8) == 0 {
			fw = append(fw, byte(rng.Intn(256)), byte(rng.Intn(256)))
		} else {
			fw = append(fw, idioms[rng.Intn(len(idioms))]...)
		}
	}
	fw = fw[:size]
	chain := [][]byte{fw}
	for len(chain) < n {
		fw = bytes.Clone(fw)
		at := rng.Intn(size - 256)
		rng.Read(fw[at : at+256])
		chain = append(chain, fw)
	}
	return chain
}

// TestBaseIndexBuiltOncePerBase serves a 12-release chain from a server
// with a FileStore and a PatchStore: each base's bsdiff index is built
// once and read back for every later cold pair, across a restart too,
// and a stored index that no longer verifies is rebuilt. Every payload
// is the plain lzss(bsdiff) patch of its pair, byte for byte, and a
// memory-only server builds one index per diff as before.
func TestBaseIndexBuiltOncePerBase(t *testing.T) {
	const app, size = 0x47, 24 << 10
	images := chainFirmware(15, size)
	dir := t.TempDir()
	var fs *FileStore
	var ps *PatchStore
	boot := func() *servers {
		var err error
		if fs, err = NewFileStore(filepath.Join(dir, "releases")); err != nil {
			t.Fatal(err)
		}
		if ps, err = OpenPatchStore(filepath.Join(dir, "patches"), 0); err != nil {
			t.Fatal(err)
		}
		return newServers(t, WithStore(fs), WithPatchStore(ps))
	}
	shutdown := func(s *servers) {
		s.update.Close()
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
	nonce := uint32(0)
	// serve asks for latest from base and checks the payload.
	serve := func(s *servers, base, latest uint16) {
		t.Helper()
		nonce++
		u, err := s.update.PrepareUpdate(app, manifest.DeviceToken{DeviceID: 7, Nonce: nonce, CurrentVersion: base})
		if err != nil {
			t.Fatal(err)
		}
		want := lzss.Encode(bsdiff.Diff(images[base-1], images[latest-1]))
		if !u.Differential || !bytes.Equal(u.Payload, want) {
			t.Fatalf("v%d→v%d: differential=%v, payload is not lzss(bsdiff) of the pair", base, latest, u.Differential)
		}
	}
	check := func(s *servers, builds, loads uint64) {
		t.Helper()
		if st := s.update.Stats(); st.IndexBuilds != builds || st.IndexLoads != loads {
			t.Fatalf("index builds/loads = %d/%d, want %d/%d (stats %+v)", st.IndexBuilds, st.IndexLoads, builds, loads, st)
		}
	}

	// Twelve releases, every earlier one served as a base after each.
	s := boot()
	pairs := uint64(0)
	for v := uint16(1); v <= 12; v++ {
		s.publish(t, app, v, images[v-1])
		for base := uint16(1); base < v; base++ {
			serve(s, base, v)
			pairs++
		}
	}
	if st := s.update.Stats(); st.Computations != pairs {
		t.Fatalf("computations = %d, want one per pair (%d)", st.Computations, pairs)
	}
	check(s, 11, pairs-11)
	shutdown(s)

	// Restarted over the same stores: only the new base (v12) is built.
	s = boot()
	s.publish(t, app, 13, images[12])
	for base := uint16(1); base < 13; base++ {
		serve(s, base, 13)
	}
	check(s, 1, 11)

	// One flipped byte in v1's stored index: the CRC no longer verifies,
	// so the server misses, rebuilds it, and serves the same patch.
	e, ok := ps.index.Touch(indexKey(app, 1))
	if !ok || !e.index {
		t.Fatal("no stored index for v1")
	}
	f, err := os.OpenFile(filepath.Join(dir, "patches", patchLogName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xA5}, e.frame.Off+frameHeader+patchMetaSize+1000); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s.publish(t, app, 14, images[13])
	serve(s, 1, 14)
	check(s, 2, 11)
	// The rebuilt index was stored again.
	s.publish(t, app, 15, images[14])
	serve(s, 1, 15)
	check(s, 2, 12)
	shutdown(s)

	// A memory-only server builds one index per diff and loads none.
	mem := newServers(t)
	pairs = 0
	for v := uint16(1); v <= 12; v++ {
		mem.publish(t, app, v, images[v-1])
		for base := uint16(1); base < v; base++ {
			serve(mem, base, v)
			pairs++
		}
	}
	st := mem.update.Stats()
	if st.Computations != pairs || st.DiskHits+st.DiskMisses != 0 {
		t.Fatalf("memory-only stats %+v, want %d computations and no disk tier", st, pairs)
	}
	check(mem, pairs, 0)
}

// TestConcurrentColdPairsReadStoredIndexes races devices on every cold
// pair into a new release: each pair is diffed once, over its base's
// stored index where one exists, and every device gets the plain
// lzss(bsdiff) patch.
func TestConcurrentColdPairsReadStoredIndexes(t *testing.T) {
	const app, versions = 0x48, 8
	images := chainFirmware(versions, 16<<10)
	ps := openTestPatchStore(t, t.TempDir(), 0)
	s := newServers(t, WithPatchStore(ps))
	for v := uint16(1); v < versions; v++ {
		s.publish(t, app, v, images[v-1])
	}
	for base := uint16(1); base < versions-1; base++ {
		if _, err := s.update.PrepareUpdate(app, manifest.DeviceToken{DeviceID: 1, Nonce: uint32(base), CurrentVersion: base}); err != nil {
			t.Fatal(err)
		}
	}
	s.publish(t, app, versions, images[versions-1])

	const devices = 28 // four per base v1…v7
	want := make([][]byte, versions)
	for base := 1; base < versions; base++ {
		want[base] = lzss.Encode(bsdiff.Diff(images[base-1], images[versions-1]))
	}
	var start, wg sync.WaitGroup
	start.Add(1)
	errs := make(chan error, devices)
	for i := range devices {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			base := uint16(1 + i%(versions-1))
			u, err := s.update.PrepareUpdate(app, manifest.DeviceToken{DeviceID: uint32(0x100 + i), Nonce: uint32(i), CurrentVersion: base})
			if err != nil {
				errs <- err
			} else if !u.Differential || !bytes.Equal(u.Payload, want[base]) {
				errs <- fmt.Errorf("device %d from v%d: payload is not lzss(bsdiff) of the pair", i, base)
			}
		}(i)
	}
	start.Done()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Six bases were indexed before the race; v7 is built during it.
	st := s.update.Stats()
	if st.Computations != 2*(versions-1)-1 || st.IndexBuilds != versions-1 || st.IndexLoads != versions-2 {
		t.Fatalf("stats %+v, want %d computations, %d index builds, %d loads", st, 2*(versions-1)-1, versions-1, versions-2)
	}
}

// TestPatchStoreIndexRecords: an index round-trips, is pinned to its
// release digest and length, never answers a patch lookup, and replays
// after a reopen.
func TestPatchStoreIndexRecords(t *testing.T) {
	dir := t.TempDir()
	ps := openTestPatchStore(t, dir, 0)
	base := bytes.Repeat([]byte("index-record-base-"), 40)
	sa := bsdiff.BuildIndex(base)
	dig := pdig("release-v3")
	if err := ps.PutIndex(1, 3, dig, sa); err != nil {
		t.Fatal(err)
	}
	if got, ok := ps.GetIndex(1, 3, dig, len(base)); !ok || len(got) != len(sa) {
		t.Fatalf("GetIndex: ok=%v, %d entries", ok, len(got))
	}
	if _, ok := ps.Get(indexKey(1, 3), dig, dig); !ok {
		// The forward-compatible shape: an index reads as a viable
		// "patch" for the pair v3→v3, which no request names.
		t.Fatal("index record is not readable under its key")
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestPatchStore(t, dir, 0)
	if st := re.Stats(); st.Entries != 1 || st.Bytes != 4*len(base) {
		t.Fatalf("replayed stats %+v, want one index of %d bytes", st, 4*len(base))
	}
	if _, ok := re.GetIndex(1, 3, dig, len(base)+1); ok {
		t.Fatal("an index for a release of another length was used")
	}
	if err := re.PutIndex(1, 3, dig, sa); err != nil {
		t.Fatal(err)
	}
	if _, ok := re.GetIndex(1, 3, pdig("republished-v3"), len(base)); ok {
		t.Fatal("an index pinned to other firmware was used")
	}
	if st := re.Stats(); st.Entries != 0 {
		t.Fatalf("a rejected index stayed indexed: %+v", st)
	}
}

// FuzzSuffixArrayRecord decodes arbitrary index record bytes against an
// arbitrary base: it never panics, an accepted index holds len(base)
// entries inside base, and a patch made with it still reproduces the
// target through bsdiff.Apply.
func FuzzSuffixArrayRecord(f *testing.F) {
	base := chainFirmware(1, 600)[0]
	target := bytes.Clone(base)
	copy(target[200:], "an edited stretch of the target")
	sa := bsdiff.BuildIndex(base)
	record := func(sa []int32) []byte {
		dig := pdig("fuzz-base")
		return append(patchMeta(indexKey(1, 1), dig, dig, patchFlagViable|patchFlagIndex), encodeIndex(sa)...)
	}
	reversed := make([]int32, len(sa))
	for i, v := range sa {
		reversed[len(sa)-1-i] = v
	}
	f.Add(base, target, record(sa))
	f.Add(base, target, record(reversed))
	f.Add(base, target, record(make([]int32, len(base))))
	f.Add(base[:10], target, record(sa[:10]))
	f.Add([]byte{}, []byte("x"), record(nil))
	f.Fuzz(func(t *testing.T, base, target, rec []byte) {
		if len(base) > 4096 || len(target) > 4096 {
			return
		}
		_, sa, ok := decodeIndex(rec, len(base))
		if !ok {
			return
		}
		if len(sa) != len(base) {
			t.Fatalf("accepted %d entries for a %d-byte base", len(sa), len(base))
		}
		for i, v := range sa {
			if v < 0 || int(v) >= len(base) {
				t.Fatalf("accepted entry %d = %d outside [0, %d)", i, v, len(base))
			}
		}
		got, err := bsdiff.Apply(base, bsdiff.DiffIndexed(sa, base, target))
		if err != nil || !bytes.Equal(got, target) {
			t.Fatalf("patch over an accepted index does not reproduce the target (err %v)", err)
		}
	})
}
