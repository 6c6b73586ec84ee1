package flash

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func testRegion(t *testing.T) Region {
	t.Helper()
	mem := newTestMemory(t)
	r, err := NewRegion(mem, 4096, 16*1024)
	if err != nil {
		t.Fatalf("NewRegion: %v", err)
	}
	return r
}

func TestNewRegionValidation(t *testing.T) {
	mem := newTestMemory(t)
	cases := []struct {
		name        string
		off, length int
	}{
		{"unaligned offset", 100, 4096},
		{"unaligned length", 0, 100},
		{"negative offset", -4096, 4096},
		{"zero length", 0, 0},
		{"past end", 60 * 1024, 8 * 1024},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewRegion(mem, tc.off, tc.length); err == nil {
				t.Fatalf("NewRegion(%d, %d) accepted invalid region", tc.off, tc.length)
			}
		})
	}
}

func TestRegionSectors(t *testing.T) {
	r := testRegion(t)
	if got := r.Sectors(); got != 4 {
		t.Fatalf("Sectors() = %d, want 4", got)
	}
}

func TestRegionEraseAndBounds(t *testing.T) {
	r := testRegion(t)
	if err := r.ProgramAt(0, []byte{1}); err != nil {
		t.Fatalf("ProgramAt: %v", err)
	}
	if err := r.Erase(); err != nil {
		t.Fatalf("Erase: %v", err)
	}
	got := make([]byte, 1)
	if err := r.ReadAt(0, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if got[0] != 0xFF {
		t.Fatalf("byte after erase = %#x, want 0xFF", got[0])
	}
	if err := r.ReadAt(r.Length, make([]byte, 1)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadAt past end error = %v, want ErrOutOfRange", err)
	}
	if err := r.ProgramAt(-1, []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ProgramAt(-1) error = %v, want ErrOutOfRange", err)
	}
}

func TestRegionIsWindowed(t *testing.T) {
	mem := newTestMemory(t)
	r, err := NewRegion(mem, 8192, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ProgramAt(0, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	// The write must land at chip offset 8192.
	got := make([]byte, 1)
	if err := mem.Read(8192, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Fatalf("chip[8192] = %#x, want 0xAB", got[0])
	}
}

func TestWriteAllModeErasesOnOpen(t *testing.T) {
	r := testRegion(t)
	if err := r.ProgramAt(0, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	h, err := r.Open(WriteAll)
	if err != nil {
		t.Fatalf("Open(WriteAll): %v", err)
	}
	defer h.Close()
	got := make([]byte, 1)
	if err := r.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xFF {
		t.Fatal("WriteAll open did not erase the region")
	}
	if _, err := h.Write([]byte("abc")); err != nil {
		t.Fatalf("Write: %v", err)
	}
}

func TestReadOnlyModeRejectsWrites(t *testing.T) {
	r := testRegion(t)
	h, err := r.Open(ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Write([]byte{1}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Write error = %v, want ErrReadOnly", err)
	}
}

func TestSequentialRewriteErasesLazily(t *testing.T) {
	r := testRegion(t)
	// Pre-program content in the second sector; a sequential write into
	// only the first sector must not disturb it.
	if err := r.ProgramAt(4096, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	h, err := r.Open(SequentialRewrite)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Write(bytes.Repeat([]byte{0xAA}, 1000)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, 1)
	if err := r.ReadAt(4096, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x00 {
		t.Fatal("SEQUENTIAL_REWRITE erased a sector it never wrote to")
	}
	// Continuing into the second sector erases it on entry.
	if _, err := h.Write(bytes.Repeat([]byte{0xBB}, 4096)); err != nil {
		t.Fatalf("Write spanning sector: %v", err)
	}
	if err := r.ReadAt(4096, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xBB {
		t.Fatalf("second sector byte = %#x, want 0xBB", got[0])
	}
}

func TestSequentialRewriteRejectsBackwardWrites(t *testing.T) {
	r := testRegion(t)
	h, err := r.Open(SequentialRewrite)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Write(make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte{1}); !errors.Is(err, ErrNonSequential) {
		t.Fatalf("backward write error = %v, want ErrNonSequential", err)
	}
}

func TestHandleReadAndSeek(t *testing.T) {
	r := testRegion(t)
	h, err := r.Open(WriteAll)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	if _, err := h.Write(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	if _, err := io.ReadFull(h, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %q, want %q", got, payload)
	}
	// SeekEnd then read hits EOF.
	if _, err := h.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Read(got); err != io.EOF {
		t.Fatalf("read at end error = %v, want io.EOF", err)
	}
	if _, err := h.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative seek must fail")
	}
}

func TestHandleClose(t *testing.T) {
	r := testRegion(t)
	h, err := r.Open(ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after close error = %v, want ErrClosed", err)
	}
	if _, err := h.Seek(0, io.SeekStart); !errors.Is(err, ErrClosed) {
		t.Fatalf("Seek after close error = %v, want ErrClosed", err)
	}
}

func TestHandleWritePastEnd(t *testing.T) {
	r := testRegion(t)
	h, err := r.Open(WriteAll)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past end error = %v, want ErrOutOfRange", err)
	}
}

func TestFileBackedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chip.bin")
	geo := testGeometry()

	mem, err := New(geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Program(0, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	mem2, err := New(geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem2.RestoreFromFile(path); err == nil {
		t.Fatal("RestoreFromFile of a missing dump succeeded")
	}
	if err := mem.SaveToFile(path); err != nil {
		t.Fatalf("SaveToFile: %v", err)
	}
	if err := mem2.RestoreFromFile(path); err != nil {
		t.Fatalf("RestoreFromFile: %v", err)
	}
	got := make([]byte, 9)
	if err := mem2.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persisted" {
		t.Fatalf("reloaded content = %q, want %q", got, "persisted")
	}
}

// TestSaveToFileAtomicReplace pins the crash-safety contract of
// SaveToFile: an existing dump — even one a crashed writer left
// truncated — is replaced wholesale via rename, the new dump is always
// full chip length, and no temporary siblings leak into the directory.
func TestSaveToFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chip.bin")
	geo := testGeometry()

	mem, err := New(geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Program(0, []byte("generation-2")); err != nil {
		t.Fatal(err)
	}
	// A previous save died mid-write: the dump on disk is truncated.
	if err := os.WriteFile(path, []byte("gen"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mem.SaveToFile(path); err != nil {
		t.Fatalf("SaveToFile over truncated dump: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != geo.Size {
		t.Fatalf("dump = %d bytes, want full chip %d", len(raw), geo.Size)
	}
	if string(raw[:12]) != "generation-2" {
		t.Fatalf("dump starts %q, want %q", raw[:12], "generation-2")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "chip.bin" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only chip.bin (no temp leftovers)", names)
	}
}

// TestRestoreFromFileRejectsOversized covers the check on the path
// `upkit-device -state` reads: a dump larger than the chip is refused
// and leaves the chip as it was.
func TestRestoreFromFileRejectsOversized(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.bin")
	geo := testGeometry()
	if err := os.WriteFile(path, make([]byte, geo.Size+1), 0o644); err != nil {
		t.Fatal(err)
	}
	mem, err := New(geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Program(0, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	before := mem.Snapshot()
	if err := mem.RestoreFromFile(path); err == nil {
		t.Fatal("RestoreFromFile accepted a dump larger than the chip")
	}
	if !bytes.Equal(mem.Snapshot(), before) {
		t.Fatal("refused restore changed the chip")
	}
}

func TestOpenModeString(t *testing.T) {
	if ReadOnly.String() != "READ_ONLY" || WriteAll.String() != "WRITE_ALL" || SequentialRewrite.String() != "SEQUENTIAL_REWRITE" {
		t.Fatal("OpenMode.String() does not match the paper's names")
	}
	if OpenMode(99).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}
