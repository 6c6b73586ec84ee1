package flash

import (
	"bytes"
	"hash/maphash"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Tests of the content table (shared.go): chips that hold the same
// whole-sector content share one copy, and nothing one chip does to it
// reaches another.

// sharedOf returns the shared copy sector sec of m refers to, or nil.
func (m *Memory) sharedOf(sec int) *chunk {
	if c, shared := m.chunkOf(sec); shared {
		return c
	}
	return nil
}

// chunkOf returns the chunk that holds sector sec of m, and whether it
// is a shared copy.
func (m *Memory) chunkOf(sec int) (*chunk, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sectors[sec], m.shared[sec]
}

// tableEntries counts the table's entries, live or dead, filed under
// content's hash.
func tableEntries(content []byte) int {
	h := maphash.Bytes(contents.seed, content)
	contents.mu.Lock()
	defer contents.mu.Unlock()
	return len(contents.entries[h])
}

func sectorContent(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestSharedSectorsStayIndependent: two chips take the same two sectors
// in one program each and share them; programming, corrupting, erasing
// or restoring one chip leaves the other byte for byte as it was.
func TestSharedSectorsStayIndependent(t *testing.T) {
	geo := testGeometry()
	ss := geo.SectorSize
	image := append(sectorContent(1, ss), sectorContent(2, ss)...)
	a, b := newTestMemory(t), newTestMemory(t)
	for _, m := range []*Memory{a, b} {
		if err := m.Program(ss, image); err != nil { // sectors 1 and 2
			t.Fatal(err)
		}
	}
	for sec := 1; sec <= 2; sec++ {
		if a.sharedOf(sec) == nil || a.sharedOf(sec) != b.sharedOf(sec) {
			t.Fatalf("sector %d: the chips do not share one copy", sec)
		}
	}
	want := b.Snapshot()
	steps := []struct {
		name string
		do   func() error
	}{
		{"program", func() error { return a.Program(ss+100, []byte{0x00, 0x00}) }},
		{"corrupt", func() error { return a.Corrupt(2*ss+7, 0xFF) }},
		{"erase", func() error { return a.EraseSector(ss) }},
		{"re-program", func() error { return a.Program(ss, image[:ss]) }},
		{"restore", func() error {
			path := filepath.Join(t.TempDir(), "chip.bin")
			if err := b.SaveToFile(path); err != nil {
				return err
			}
			if err := a.RestoreFromFile(path); err != nil {
				return err
			}
			return a.Corrupt(ss+1, 0x80)
		}},
	}
	for _, step := range steps {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if !bytes.Equal(b.Snapshot(), want) {
			t.Fatalf("%s on one chip changed the other", step.name)
		}
	}
	if a.sharedOf(2) != b.sharedOf(2) || a.sharedOf(1) != nil {
		t.Fatal("restore should share sector 2 again and the corruption should have copied sector 1")
	}
}

// TestConcurrentSharedSectors: chips on their own goroutines take,
// modify and drop the same shared content at once. Run under -race it
// shows that no write reaches a shared copy.
func TestConcurrentSharedSectors(t *testing.T) {
	geo := testGeometry()
	ss := geo.SectorSize
	image := append(sectorContent(3, ss), sectorContent(4, ss)...)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := New(geo, nil)
			if err != nil {
				errs <- err
				return
			}
			want := bytes.Repeat([]byte{0xFF}, geo.Size)
			for round := range 50 {
				off := (round % 4) * ss
				for _, step := range []func() error{
					func() error { return m.EraseSector(off) },
					func() error { return m.EraseSector(off + ss) },
					func() error { return m.Program(off, image) },
					func() error { return m.Program(off+g, []byte{0x00}) },
					func() error { return m.Corrupt(off+ss+g, 0x01) },
				} {
					if err := step(); err != nil {
						errs <- err
						return
					}
				}
				fillErased(want[off : off+2*ss])
				copy(want[off:], image)
				want[off+g] = 0x00
				want[off+ss+g] ^= 0x01
				if !bytes.Equal(m.Snapshot(), want) {
					t.Errorf("goroutine %d round %d: content differs", g, round)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSharedContentFreed: once every chip holding a content has erased
// it and the collector has run, the table has no entry for it.
func TestSharedContentFreed(t *testing.T) {
	geo := testGeometry()
	content := sectorContent(5, geo.SectorSize)
	chips := []*Memory{newTestMemory(t), newTestMemory(t), newTestMemory(t)}
	for i, m := range chips {
		if err := m.Program(i*geo.SectorSize, content); err != nil {
			t.Fatal(err)
		}
	}
	if n := tableEntries(content); n != 1 {
		t.Fatalf("%d table entries for content three chips hold, want 1", n)
	}
	for i, m := range chips {
		if err := m.EraseSector(i * geo.SectorSize); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for tableEntries(content) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the entry outlived every chip's erase and the collector")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(chips)
}

// TestSharedProgramAllocations pins the hit path at zero allocations: a
// whole-sector program of content another chip already holds.
func TestSharedProgramAllocations(t *testing.T) {
	geo := testGeometry()
	content := sectorContent(6, geo.SectorSize)
	holder, m := newTestMemory(t), newTestMemory(t)
	if err := holder.Program(0, content); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if err := m.EraseSector(geo.SectorSize); err != nil {
			t.Fatal(err)
		}
		if err := m.Program(geo.SectorSize, content); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("whole-sector program of held content: %.1f allocations, want 0", got)
	}
	if m.sharedOf(1) != holder.sharedOf(0) {
		t.Fatal("the program did not take the held copy")
	}
}

// slotWrite programs image at off in sector-sized calls, the way the
// update pipeline's buffer stage hands a slot its output: past the
// manifest, no call covers a whole sector.
func slotWrite(m *Memory, off int, image []byte) error {
	for len(image) > 0 {
		n := min(m.geo.SectorSize, len(image))
		if err := m.Program(off, image[:n]); err != nil {
			return err
		}
		off, image = off+n, image[n:]
	}
	return nil
}

// TestCompletedSectorsShared: two chips take the same image 256 bytes
// into a sector, each with its own manifest before it. Every sector the
// image fills is shared between them, though no program covered one
// whole; each chip keeps private only the two sectors at the image's
// ends.
func TestCompletedSectorsShared(t *testing.T) {
	geo := testGeometry()
	ss := geo.SectorSize
	image := sectorContent(8, 10*ss+100) // sectors 0 to 10
	chips := []*Memory{newTestMemory(t), newTestMemory(t)}
	for i, m := range chips {
		if err := slotWrite(m, 256, image); err != nil {
			t.Fatal(err)
		}
		if err := m.Program(0, sectorContent(int64(20+i), 256)); err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{0xFF}, geo.Size)
		copy(want, sectorContent(int64(20+i), 256))
		copy(want[256:], image)
		if !bytes.Equal(m.Snapshot(), want) {
			t.Fatalf("chip %d: content differs", i)
		}
	}
	for i, m := range chips {
		shared := 0
		for sec := range geo.Size / ss {
			if m.sharedOf(sec) != nil {
				shared++
			}
		}
		if private := m.buffers() - shared; private > 2 {
			t.Errorf("chip %d keeps %d sectors private, want at most 2", i, private)
		}
	}
	for sec := 1; sec <= 9; sec++ {
		if a := chips[0].sharedOf(sec); a == nil || a != chips[1].sharedOf(sec) {
			t.Fatalf("sector %d: the chips do not share one copy", sec)
		}
	}
}

// TestRecycledBufferIsolated: the private buffer one chip's erase gives
// up is the next one another chip takes. The first chip reads erased
// flash there, the second its own bytes only.
func TestRecycledBufferIsolated(t *testing.T) {
	geo := testGeometry()
	ss := geo.SectorSize
	a, b := newTestMemory(t), newTestMemory(t)
	aData, bData := sectorContent(9, 100), sectorContent(10, 100)
	erasedSector := bytes.Repeat([]byte{0xFF}, ss)
	bWant := bytes.Clone(erasedSector)
	copy(bWant[9:], bData)
	reused := false
	for range 10 { // a rescheduled goroutine can miss its own Put
		if err := a.Program(ss+7, aData); err != nil {
			t.Fatal(err)
		}
		dropped, _ := a.chunkOf(1)
		if err := a.EraseSector(ss); err != nil {
			t.Fatal(err)
		}
		if err := b.Program(2*ss+9, bData); err != nil {
			t.Fatal(err)
		}
		if got := a.Snapshot()[ss : 2*ss]; !bytes.Equal(got, erasedSector) {
			t.Fatal("the erased sector does not read 0xFF")
		}
		if got := b.Snapshot()[2*ss : 3*ss]; !bytes.Equal(got, bWant) {
			t.Fatal("the sector that took a recycled buffer holds other bytes")
		}
		if c, _ := b.chunkOf(2); c == dropped {
			reused = true
			break
		}
		if err := b.EraseSector(2 * ss); err != nil {
			t.Fatal(err)
		}
	}
	if !reused && !raceEnabled {
		t.Fatal("no program took the buffer an erase gave up")
	}
}

// TestCompletionAllocations pins completion sharing and recycling at
// zero allocations: a sector filled head first, then the rest, with
// content another chip holds ends on a hit that gives its buffer back;
// and an erase and re-program of a private sector reuses the buffer the
// erase gave up.
func TestCompletionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	geo := testGeometry()
	ss := geo.SectorSize
	content := sectorContent(11, ss)
	holder, m := newTestMemory(t), newTestMemory(t)
	if err := holder.Program(0, content); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if err := m.EraseSector(ss); err != nil {
			t.Fatal(err)
		}
		if err := m.Program(ss, content[:256]); err != nil {
			t.Fatal(err)
		}
		if err := m.Program(ss+256, content[256:]); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("completing a sector of held content: %.1f allocations, want 0", got)
	}
	if m.sharedOf(1) != holder.sharedOf(0) {
		t.Fatal("the completing page did not take the held copy")
	}
	got = testing.AllocsPerRun(100, func() {
		if err := m.EraseSector(2 * ss); err != nil {
			t.Fatal(err)
		}
		if err := m.Program(2*ss+100, content[:300]); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("erase and re-program of a private sector: %.1f allocations, want 0", got)
	}
}

// TestConcurrentCompletedSectors: chips on their own goroutines fill the
// same sectors page by page at once, as the update pipeline does, then
// clear bits in them and erase them. Run under -race it shows that a
// completed sector's shared copy takes no write and that a recycled
// buffer serves one sector at a time.
func TestConcurrentCompletedSectors(t *testing.T) {
	geo := testGeometry()
	ss, ps := geo.SectorSize, geo.PageSize
	image := sectorContent(12, 3*ss)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := New(geo, nil)
			if err != nil {
				errs <- err
				return
			}
			want := bytes.Repeat([]byte{0xFF}, geo.Size)
			for round := range 50 {
				off := (round % 4) * ss
				steps := []func() error{
					func() error { return m.EraseSector(off) },
					func() error { return m.EraseSector(off + ss) },
					func() error { return m.EraseSector(off + 2*ss) },
				}
				for p := 256; p < len(image); p += ps {
					steps = append(steps, func() error { return m.Program(off+p, image[p:min(p+ps, len(image))]) })
				}
				steps = append(steps,
					func() error { return m.Program(off, image[:256]) },
					func() error { return m.Program(off+ss+g, []byte{0x00}) })
				for _, step := range steps {
					if err := step(); err != nil {
						errs <- err
						return
					}
				}
				fillErased(want[off : off+3*ss])
				copy(want[off:], image)
				want[off+ss+g] = 0x00
				if !bytes.Equal(m.Snapshot(), want) {
					t.Errorf("goroutine %d round %d: content differs", g, round)
					return
				}
				if m.sharedOf(off/ss+2) == nil {
					t.Errorf("goroutine %d round %d: a filled sector is not shared", g, round)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
