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

// sharedOf reports whether sector sec of m refers to a shared copy.
func (m *Memory) sharedOf(sec int) *chunk {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shared[sec]
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
