package slot

import (
	"bytes"
	"crypto/sha256"
	"io"
	"testing"

	"upkit/internal/flash"
	"upkit/internal/simclock"
)

// newTimedSlot is newSlot on a chip with its own clock.
func newTimedSlot(t *testing.T) (*Slot, *simclock.Clock) {
	t.Helper()
	clock := simclock.New()
	mem, err := flash.New(testGeometry(), clock)
	if err != nil {
		t.Fatal(err)
	}
	region, err := flash.NewRegion(mem, 0, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("A", region, Bootable, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	return s, clock
}

// TestReaderWriteToChargesAsRead: io.Copy through Reader.WriteTo
// delivers the same bytes, and charges the same flash reads and clock
// time, as io.Copy through Read with io.Copy's own buffer.
func TestReaderWriteToChargesAsRead(t *testing.T) {
	for _, size := range []int{1, 255, 4096, 4097, 32 * 1024, 40_000} {
		fw := bytes.Repeat([]byte("upkit-firmware-"), size/15+1)[:size]
		var digests [2][]byte
		var stats [2]flash.Stats
		var clocks [2]int64
		for i := range 2 {
			s, clock := newTimedSlot(t)
			writeImage(t, s, fw)
			r, err := s.FirmwareReader()
			if err != nil {
				t.Fatal(err)
			}
			before, start := s.region.Mem.Stats(), clock.Now()
			var src io.Reader = r
			if i == 1 {
				src = struct{ io.Reader }{r} // hides WriteTo
			}
			h := sha256.New()
			if n, err := io.Copy(h, src); err != nil || n != int64(size) {
				t.Fatalf("size %d: copied %d, %v", size, n, err)
			}
			after := s.region.Mem.Stats()
			stats[i] = flash.Stats{BytesRead: after.BytesRead - before.BytesRead}
			clocks[i] = int64(clock.Now() - start)
			digests[i] = h.Sum(nil)
		}
		if !bytes.Equal(digests[0], digests[1]) {
			t.Fatalf("size %d: WriteTo and Read deliver different bytes", size)
		}
		if stats[0] != stats[1] || clocks[0] != clocks[1] {
			t.Fatalf("size %d: WriteTo charged %+v / %d ns, Read %+v / %d ns", size, stats[0], clocks[0], stats[1], clocks[1])
		}
	}
}

// TestReaderCopyAllocations pins the verifier's digest copy at zero
// allocations: io.Copy takes Reader.WriteTo, whose buffer is pooled.
func TestReaderCopyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	s := newSlot(t, "A", Bootable)
	writeImage(t, s, bytes.Repeat([]byte{0x5A, 0xA5, 0x00}, 11_000))
	r, err := s.FirmwareReader()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	got := testing.AllocsPerRun(100, func() {
		r.pos = 0
		h.Reset()
		if _, err := io.Copy(h, r); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("io.Copy(sha256, slot reader): %.1f allocations, want 0", got)
	}
}
