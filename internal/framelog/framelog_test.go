package framelog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const testMagic uint32 = 0x54455354 // "TEST"

// openTest opens path and collects the replayed payloads.
func openTest(t testing.TB, path string) (*Log, [][]byte, bool) {
	t.Helper()
	var got [][]byte
	l, torn, err := Open(path, testMagic, func(p []byte, _ Frame) bool {
		got = append(got, bytes.Clone(p))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got, torn
}

func appendAll(t *testing.T, l *Log, payloads ...string) []Frame {
	t.Helper()
	var frames []Frame
	for _, p := range payloads {
		fr, err := l.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr)
	}
	return frames
}

func TestAppendReplaysInOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, got, torn := openTest(t, path)
	if len(got) != 0 || torn {
		t.Fatalf("fresh log replayed %d records, torn=%v", len(got), torn)
	}
	frames := appendAll(t, l, "one", "two", "")
	// A payload may be gathered from several parts.
	if _, err := l.Append([]byte("th"), []byte("ree")); err != nil {
		t.Fatal(err)
	}
	if frames[1].Off != int64(frames[0].Len) || frames[0].Len != header+3+trailer {
		t.Fatalf("frames = %+v", frames)
	}
	l.Close()

	l, got, torn = openTest(t, path)
	defer l.Close()
	want := []string{"one", "two", "", "three"}
	if torn || len(got) != len(want) {
		t.Fatalf("replayed %q, torn=%v", got, torn)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, _, _ := openTest(t, path)
	appendAll(t, l, "kept")
	l.Close()
	good, _ := os.Stat(path)
	rec := appendRecord(nil, testMagic, []byte("torn away"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(rec[:len(rec)-1])
	f.Close()

	l, got, torn := openTest(t, path)
	if !torn || len(got) != 1 || string(got[0]) != "kept" {
		t.Fatalf("replayed %q, torn=%v", got, torn)
	}
	if fi, _ := os.Stat(path); fi.Size() != good.Size() {
		t.Fatalf("log is %d bytes after truncation, want %d", fi.Size(), good.Size())
	}
	appendAll(t, l, "after")
	l.Close()
	l, got, torn = openTest(t, path)
	defer l.Close()
	if torn || len(got) != 2 || string(got[1]) != "after" {
		t.Fatalf("append after truncation: replayed %q, torn=%v", got, torn)
	}
}

func TestReplayStopsWhereCallerRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, _, _ := openTest(t, path)
	appendAll(t, l, "good", "bad", "unreached")
	l.Close()
	var got []string
	l, torn, err := Open(path, testMagic, func(p []byte, _ Frame) bool {
		got = append(got, string(p))
		return string(p) != "bad"
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !torn || len(got) != 2 || l.Size() != int64(header+4+trailer) {
		t.Fatalf("replayed %q, torn=%v, size %d", got, torn, l.Size())
	}
}

func TestReadAtRechecksCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, _, _ := openTest(t, path)
	defer l.Close()
	frames := appendAll(t, l, "first", "second")
	p, err := l.ReadAt(frames[1])
	if err != nil || string(p) != "second" {
		t.Fatalf("ReadAt = %q, %v", p, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte{'X'}, frames[1].Off+header+2)
	f.Close()
	if _, err := l.ReadAt(frames[1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAt of a flipped byte: %v, want ErrCorrupt", err)
	}
	if _, err := l.ReadAt(Frame{Off: frames[0].Off, Len: frames[1].Len}); err == nil {
		t.Fatal("ReadAt of a mismatched frame succeeded")
	}
}

func TestBufferReachesFileOnSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, _, _ := openTest(t, path)
	l.Buffer([]byte("staged"))
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Fatalf("buffered record written before Sync: %d bytes", fi.Size())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Past flushBytes the staged records are written without a Sync.
	big := bytes.Repeat([]byte{'b'}, flushBytes)
	l.Buffer(big)
	if fi, _ := os.Stat(path); fi.Size() != l.Size() {
		t.Fatalf("file is %d bytes, log %d: the full buffer was not written", fi.Size(), l.Size())
	}
	l.Buffer([]byte("closed"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got, _ := openTest(t, path)
	defer l.Close()
	if len(got) != 3 || string(got[0]) != "staged" || string(got[2]) != "closed" {
		t.Fatalf("replayed %d records", len(got))
	}
}

// compactFixture fills a log with n 128 KiB records and returns it
// with their frames.
func compactFixture(t *testing.T, path string, n int) (*Log, []Frame) {
	t.Helper()
	l, _, _ := openTest(t, path)
	var frames []Frame
	for i := range n {
		fr, err := l.Append(bytes.Repeat([]byte{byte('a' + i)}, 128<<10))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr)
	}
	return l, frames
}

func TestCompactRule(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log")
	l, frames := compactFixture(t, path, 12) // 1.5 MiB
	defer l.Close()
	// Half dead is not enough: dead bytes must exceed live ones.
	if moved, err := l.Compact(frames[6:]); moved || err != nil {
		t.Fatalf("compacted at dead == live: %v, %v", moved, err)
	}
	live := append([]Frame(nil), frames[7:]...)
	moved, err := l.Compact(live)
	if !moved || err != nil {
		t.Fatalf("Compact = %v, %v", moved, err)
	}
	if l.Size() != int64(5*frames[0].Len) || live[0].Off != 0 || live[4].Off != int64(4*frames[0].Len) {
		t.Fatalf("after compaction: size %d, frames %+v", l.Size(), live)
	}
	if p, err := l.ReadAt(live[2]); err != nil || p[0] != 'a'+9 {
		t.Fatalf("moved record reads back wrong: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d files after compaction, want 1", len(entries))
	}
	// Below 1 MiB nothing compacts, however dead.
	small, _, _ := openTest(t, filepath.Join(dir, "small.log"))
	defer small.Close()
	appendAll(t, small, "dead", "dead", "dead")
	if moved, _ := small.Compact(nil); moved {
		t.Fatal("compacted a log under 1 MiB")
	}
}

// TestCompactSwapsHandleWhenDirSyncFails: once the rename has happened
// the old file is unlinked, so the log must append to the new one even
// if the directory sync after it fails.
func TestCompactSwapsHandleWhenDirSyncFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, frames := compactFixture(t, path, 12)
	failed := errors.New("injected dir sync failure")
	syncDir = func(string) error { return failed }
	moved, err := l.Compact(frames[10:])
	syncDir = defaultSyncDir
	if !moved || !errors.Is(err, failed) {
		t.Fatalf("Compact = %v, %v; want moved with the injected error", moved, err)
	}
	appendAll(t, l, "after the failed sync")
	l.Close()

	l, got, torn := openTest(t, path)
	defer l.Close()
	if torn || len(got) != 3 || string(got[2]) != "after the failed sync" {
		t.Fatalf("replayed %d records (torn=%v): the append after compaction was lost", len(got), torn)
	}
}

var defaultSyncDir = syncDir

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.json")
	if err := os.WriteFile(path, []byte("old, longer content"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "new" {
		t.Fatalf("read back %q, %v", got, err)
	}
	fi, _ := os.Stat(path)
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", fi.Mode().Perm())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d files, want 1 (no temp leftovers)", len(entries))
	}
	if err := WriteFile(filepath.Join(dir, "missing", "x"), nil); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}

// FuzzFramelogReplay: whatever bytes a log holds, replay never panics,
// keeps a prefix of whole records, and leaves the log appendable.
func FuzzFramelogReplay(f *testing.F) {
	rec := appendRecord(nil, testMagic, []byte("seed record"))
	f.Add(rec)
	f.Add(append(bytes.Clone(rec), rec[:len(rec)-2]...))
	f.Add(appendRecord(bytes.Clone(rec), testMagic, nil))
	f.Add([]byte{0x54, 0x45, 0x53, 0x54, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var frames []Frame
		l, _, err := Open(path, testMagic, func(p []byte, fr Frame) bool {
			frames = append(frames, fr)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		var end int64
		for _, fr := range frames {
			if fr.Off != end {
				t.Fatalf("frame at %d, want %d: not a contiguous prefix", fr.Off, end)
			}
			if p, n := parse(data[fr.Off:fr.Off+int64(fr.Len)], testMagic); n != fr.Len || len(p) != fr.Len-header-trailer {
				t.Fatalf("frame %+v is not a whole record", fr)
			}
			end += int64(fr.Len)
		}
		if l.Size() != end {
			t.Fatalf("log size %d, replayed prefix %d", l.Size(), end)
		}
		if _, err := l.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, got, torn := openTest(t, path)
		defer l.Close()
		if torn || len(got) != len(frames)+1 || string(got[len(got)-1]) != "appended" {
			t.Fatalf("after truncation and append: %d records (torn=%v), want %d", len(got), torn, len(frames)+1)
		}
	})
}
