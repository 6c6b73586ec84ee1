package flash

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"upkit/internal/simclock"
)

// Tests that hold the sparse store to the dense reference model
// (reference_test.go): a host-time change must leave every simulated
// statistic identical.

// diffGeometries are small chips that between them put the sector size
// below, at a multiple of, and above the shared erased block, and give
// pages and sectors a length that is not a multiple of eight.
var diffGeometries = []Geometry{
	{Name: "small", Size: 8 * 1024, SectorSize: 1024, PageSize: 128,
		EraseSector: 80 * time.Millisecond, ProgramPage: 2 * time.Millisecond, ReadPage: 10 * time.Microsecond},
	{Name: "big-sector", Size: 32 * 1024, SectorSize: 8192, PageSize: 256,
		EraseSector: 85 * time.Millisecond, ProgramPage: 338 * time.Microsecond, ReadPage: time.Microsecond},
	{Name: "odd", Size: 6 * 396, SectorSize: 396, PageSize: 44,
		EraseSector: time.Millisecond, ProgramPage: 3 * time.Microsecond},
}

// opStream decodes a test input into operation parameters. Exhausted
// input reads as zeros and sets done.
type opStream struct {
	in   []byte
	done bool
}

func (s *opStream) byte() int {
	if len(s.in) == 0 {
		s.done = true
		return 0
	}
	b := s.in[0]
	s.in = s.in[1:]
	return int(b)
}

func (s *opStream) word() int { return s.byte()<<8 | s.byte() }

// chipPair is one sparse chip and its dense reference, each on its own
// clock.
type chipPair struct {
	sparse *Memory
	dense  *denseMemory
	sclk   *simclock.Clock
	dclk   *simclock.Clock
}

// differ drives two chip pairs through operations and compares
// everything observable of a pair after each operation on it. The two
// sparse chips share the content of the sectors they both hold whole, so
// an operation on one must leave the other, and its reference, alone.
type differ struct {
	t     *testing.T
	geo   Geometry
	chips [2]chipPair
	step  int
}

func newDiffer(t *testing.T, geo Geometry) *differ {
	t.Helper()
	d := &differ{t: t, geo: geo}
	for i := range d.chips {
		c := &d.chips[i]
		c.sclk, c.dclk = simclock.New(), simclock.New()
		var err error
		if c.sparse, err = New(geo, c.sclk); err != nil {
			t.Fatal(err)
		}
		if c.dense, err = newDense(geo, c.dclk); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// check compares the errors of one operation on c and then all of c's
// accounting.
func (d *differ) check(c *chipPair, op string, sparseErr, denseErr error) {
	d.t.Helper()
	d.step++
	if fmt.Sprint(sparseErr) != fmt.Sprint(denseErr) {
		d.t.Fatalf("step %d %s: sparse error %v, dense error %v", d.step, op, sparseErr, denseErr)
	}
	if s, r := c.sparse.Stats(), c.dense.Stats(); s != r {
		d.t.Fatalf("step %d %s: sparse stats %+v, dense stats %+v", d.step, op, s, r)
	}
	if s, r := c.sclk.Now(), c.dclk.Now(); s != r {
		d.t.Fatalf("step %d %s: sparse clock %v, dense clock %v", d.step, op, s, r)
	}
	for sec := 0; sec < d.geo.Size/d.geo.SectorSize; sec++ {
		if s, r := c.sparse.EraseCount(sec), c.dense.EraseCount(sec); s != r {
			d.t.Fatalf("step %d %s: sector %d erased %d times sparse, %d dense", d.step, op, sec, s, r)
		}
	}
}

// snapshot compares the content of both pairs.
func (d *differ) snapshot() {
	d.t.Helper()
	for i := range d.chips {
		c := &d.chips[i]
		s, r := c.sparse.Snapshot(), c.dense.Snapshot()
		if !bytes.Equal(s, r) {
			for j := range s {
				if s[j] != r[j] {
					d.t.Fatalf("step %d: chip %d content differs first at %#x: sparse %#x, dense %#x", d.step, i, j, s[j], r[j])
				}
			}
			d.t.Fatalf("step %d: chip %d snapshot lengths %d and %d", d.step, i, len(s), len(r))
		}
		d.check(c, "snapshot", nil, nil)
	}
}

func (d *differ) program(c *chipPair, op string, off int, data []byte) {
	d.t.Helper()
	d.check(c, fmt.Sprintf("%s program [%#x,+%d)", op, off, len(data)),
		c.sparse.Program(off, data), c.dense.Program(off, data))
}

// current returns the dense model's content of c at [off, off+n)
// without touching either chip's accounting, clamped to the chip.
func (d *differ) current(c *chipPair, off, n int) []byte {
	off = min(max(off, 0), d.geo.Size)
	n = min(n, d.geo.Size-off)
	return append([]byte(nil), c.dense.data[off:off+n]...)
}

// load is RestoreFromFile without the file: raw, then erased flash.
func (m *denseMemory) load(raw []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fillErased(m.data[copy(m.data, raw):])
}

// runDifferential interprets input as a sequence of operations. The
// first byte picks the geometry, the next four seed the data generator;
// after that each operation is an opcode byte, which also picks the
// chip pair it acts on, followed by its parameters.
func runDifferential(t *testing.T, input []byte) {
	t.Helper()
	s := &opStream{in: input}
	geo := diffGeometries[s.byte()%len(diffGeometries)]
	rng := rand.New(rand.NewSource(int64(s.word())<<16 | int64(s.word())))
	d := newDiffer(t, geo)
	sectors := geo.Size / geo.SectorSize
	randomData := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// Whole-sector contents both chips program, so that they share them:
	// random bytes, random pages between blank ones, and a blank sector.
	palette := [][]byte{randomData(geo.SectorSize), randomData(geo.SectorSize), bytes.Repeat([]byte{0xFF}, geo.SectorSize)}
	for p := 0; p < geo.SectorSize; p += 2 * geo.PageSize {
		fillErased(palette[1][p:min(p+geo.PageSize, geo.SectorSize)])
	}
	const ops = 18
	for !s.done {
		b := s.byte()
		c, other := &d.chips[b/ops%2], &d.chips[1-b/ops%2]
		switch op := b % ops; op {
		case 0: // erase an aligned sector (often an already-erased one)
			off := s.byte() % sectors * geo.SectorSize
			d.check(c, fmt.Sprintf("erase %#x", off), c.sparse.EraseSector(off), c.dense.EraseSector(off))
		case 1: // erase at an arbitrary, mostly misaligned or out-of-range offset
			off := s.word() - 64
			d.check(c, fmt.Sprintf("erase %#x", off), c.sparse.EraseSector(off), c.dense.EraseSector(off))
		case 2: // whole aligned pages
			off := s.word() % (geo.Size / geo.PageSize) * geo.PageSize
			n := min((1+s.byte()%3)*geo.PageSize, geo.Size-off)
			d.program(c, "aligned", off, randomData(n))
		case 3: // short unaligned write
			d.program(c, "unaligned", s.word()%geo.Size, randomData(s.byte()%41))
		case 4: // write straddling a page boundary
			page := 1 + s.word()%(geo.Size/geo.PageSize-1)
			before := 1 + s.byte()%(geo.PageSize-1)
			d.program(c, "page-crossing", page*geo.PageSize-before, randomData(before+1+s.byte()%geo.PageSize))
		case 5: // write straddling a sector boundary
			sec := 1 + s.byte()%(sectors-1)
			before := 1 + s.word()%(geo.SectorSize-1)
			n := min(before+1+s.word()%(2*geo.PageSize), geo.Size-(sec*geo.SectorSize-before))
			d.program(c, "sector-crossing", sec*geo.SectorSize-before, randomData(n))
		case 6: // all-0xFF data, any alignment, up to two sectors
			off := s.word() % geo.Size
			n := min(s.word()%(2*geo.SectorSize+1), geo.Size-off)
			d.program(c, "blank", off, bytes.Repeat([]byte{0xFF}, n))
		case 7: // legal overwrite: only clears bits of what is there
			off := s.word() % geo.Size
			data := d.current(c, off, 1+s.word()%(geo.SectorSize+geo.PageSize))
			for i, mask := range randomData(len(data)) {
				data[i] &= mask
			}
			d.program(c, "overwrite", off, data)
		case 8: // NOR violation at a chosen byte of an otherwise legal write
			off := s.word() % geo.Size
			data := d.current(c, off, 1+s.word()%(geo.SectorSize+geo.PageSize))
			data[s.word()%len(data)] = 0xFF
			d.program(c, "violating", off, data)
		case 9: // read, including empty, sector-crossing and out-of-range
			off, n := s.word()-8, s.word()%(2*geo.SectorSize+2)
			sb, rb := randomData(n), make([]byte, n)
			copy(rb, sb) // a failed read must leave both buffers alone
			serr, rerr := c.sparse.Read(off, sb), c.dense.Read(off, rb)
			if !bytes.Equal(sb, rb) {
				t.Fatalf("step %d read [%#x,+%d): bytes differ", d.step+1, off, n)
			}
			d.check(c, fmt.Sprintf("read [%#x,+%d)", off, n), serr, rerr)
		case 10:
			off, mask := s.word()-8, byte(s.byte())
			d.check(c, fmt.Sprintf("corrupt %#x^%#x", off, mask), c.sparse.Corrupt(off, mask), c.dense.Corrupt(off, mask))
		case 11:
			n := s.byte()%12 - 1
			c.sparse.FailAfter(n)
			c.dense.FailAfter(n)
		case 12:
			c.sparse.ClearFault()
			c.dense.ClearFault()
		case 13:
			d.snapshot()
		case 14: // whole sectors of shared content, mostly erased first
			sec, k, erase := s.byte()%sectors, s.byte(), s.byte()%4 != 0
			n := min(1+s.byte()%2, sectors-sec)
			off := sec * geo.SectorSize
			if erase {
				for e := off; e < off+n*geo.SectorSize; e += geo.SectorSize {
					d.check(c, fmt.Sprintf("erase %#x", e), c.sparse.EraseSector(e), c.dense.EraseSector(e))
				}
			}
			var data []byte
			for i := range n {
				data = append(data, palette[(k+i)%len(palette)]...)
			}
			d.program(c, "whole-sector", off, data)
		case 15: // a swap phase: read the other chip's sector, erase, program
			src, dst := s.byte()%sectors*geo.SectorSize, s.byte()%sectors*geo.SectorSize
			sb, rb := make([]byte, geo.SectorSize), make([]byte, geo.SectorSize)
			d.check(other, fmt.Sprintf("read [%#x,+%d)", src, len(sb)), other.sparse.Read(src, sb), other.dense.Read(src, rb))
			if !bytes.Equal(sb, rb) {
				t.Fatalf("step %d read [%#x,+%d): bytes differ", d.step, src, len(sb))
			}
			d.check(c, fmt.Sprintf("erase %#x", dst), c.sparse.EraseSector(dst), c.dense.EraseSector(dst))
			d.program(c, "sector-copy", dst, sb)
		case 16: // restore a dump of the other chip, often a short one
			raw := d.current(other, 0, geo.Size)
			if s.byte()%2 == 0 {
				raw = raw[:s.word()%(geo.Size+1)]
			}
			c.sparse.mu.Lock()
			c.sparse.loadLocked(raw)
			c.sparse.mu.Unlock()
			c.dense.load(raw)
			d.check(c, fmt.Sprintf("restore %d bytes", len(raw)), nil, nil)
		case 17: // fill an erased sector page by page, then clear bits in it
			sec, k := s.byte()%sectors, s.byte()
			off, content := sec*geo.SectorSize, palette[k%len(palette)]
			d.check(c, fmt.Sprintf("erase %#x", off), c.sparse.EraseSector(off), c.dense.EraseSector(off))
			head := 0
			if k&4 != 0 {
				head = 256 % geo.SectorSize // the slot writer starts past the manifest's 256 bytes
			}
			var pieces [][2]int // one program each, none crossing a page
			for p := head; p < geo.SectorSize; p = (p/geo.PageSize + 1) * geo.PageSize {
				pieces = append(pieces, [2]int{p, min((p/geo.PageSize+1)*geo.PageSize, geo.SectorSize)})
			}
			if head > 0 {
				if k&8 != 0 { // the head last: it lands on a shared sector
					pieces = append(pieces, [2]int{0, head})
				} else {
					pieces = append([][2]int{{0, head}}, pieces...)
				}
			}
			fault := k&16 != 0
			if fault { // due on the completing page: it tears and completes nothing
				for i, p := range pieces {
					if p[1] == geo.SectorSize {
						c.sparse.FailAfter(i)
						c.dense.FailAfter(i)
					}
				}
			}
			for _, p := range pieces {
				d.program(c, "page-fill", off+p[0], content[p[0]:p[1]])
			}
			if fault {
				c.sparse.ClearFault()
				c.dense.ClearFault()
			}
			at := off + s.word()%geo.SectorSize // copy-on-write after a late share
			data := d.current(c, at, 1+s.byte()%8)
			for i, mask := range randomData(len(data)) {
				data[i] &= mask
			}
			d.program(c, "clear-after-fill", at, data)
		}
	}
	d.snapshot()
}

// differentialInput builds a random operation stream of n bytes for the
// given geometry.
func differentialInput(seed int64, geometry, n int) []byte {
	in := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(in)
	in[0] = byte(geometry)
	return in
}

func TestFlashDifferential(t *testing.T) {
	for g, geo := range diffGeometries {
		t.Run(geo.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				runDifferential(t, differentialInput(seed, g, 12_000))
			}
		})
	}
}

func FuzzFlashDifferential(f *testing.F) {
	for g := range diffGeometries {
		f.Add(differentialInput(42, g, 200))
	}
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0}) // program the same page twice
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1<<14 {
			t.Skip()
		}
		runDifferential(t, input)
	})
}

// buffers counts the sectors that hold a buffer, private or shared.
func (m *Memory) buffers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.sectors {
		if s != nil {
			n++
		}
	}
	return n
}

// TestSparseAllocatesOnFirstClearedBit pins what holds a buffer: blank
// programs and erases do not, the first cleared bit does, and an erase
// gives the buffer back — while all of them are counted and charged.
func TestSparseAllocatesOnFirstClearedBit(t *testing.T) {
	geo := testGeometry()
	clock := simclock.New()
	mem, err := New(geo, clock)
	if err != nil {
		t.Fatal(err)
	}
	blank := bytes.Repeat([]byte{0xFF}, 2*geo.SectorSize)
	if err := mem.Program(geo.SectorSize/2, blank); err != nil {
		t.Fatal(err)
	}
	if err := mem.EraseSector(0); err != nil {
		t.Fatal(err)
	}
	if err := mem.Corrupt(5, 0); err != nil {
		t.Fatal(err)
	}
	if n := mem.buffers(); n != 0 {
		t.Fatalf("%d sectors hold a buffer after blank programs and an erase, want 0", n)
	}
	pages := len(blank) / geo.PageSize
	want := Stats{SectorErases: 1, PagePrograms: pages, BytesWritten: len(blank)}
	if got := mem.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v: blank programs are still operations", got, want)
	}
	if got, want := clock.Now(), geo.EraseSector+time.Duration(pages)*geo.ProgramPage; got != want {
		t.Fatalf("clock %v, want %v", got, want)
	}

	blank[geo.SectorSize+7] = 0xFE // lands in sector 1
	if err := mem.Program(geo.SectorSize/2, blank); err != nil {
		t.Fatal(err)
	}
	if n := mem.buffers(); n != 1 {
		t.Fatalf("%d sectors hold a buffer after clearing one bit, want 1", n)
	}
	if err := mem.Corrupt(3*geo.SectorSize, 0x01); err != nil {
		t.Fatal(err)
	}
	if n := mem.buffers(); n != 2 {
		t.Fatalf("%d sectors hold a buffer after a corruption, want 2", n)
	}
	if err := mem.EraseSector(geo.SectorSize); err != nil {
		t.Fatal(err)
	}
	if n := mem.buffers(); n != 1 {
		t.Fatalf("%d sectors hold a buffer after erasing one of two, want 1", n)
	}
}

// TestFileRoundTripIsSparse covers SaveToFile → RestoreFromFile: the
// content survives byte for byte and only sectors that are not blank
// get a buffer back.
func TestFileRoundTripIsSparse(t *testing.T) {
	geo := testGeometry()
	path := filepath.Join(t.TempDir(), "chip.bin")
	mem, err := New(geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	image := make([]byte, geo.SectorSize+100)
	rng.Read(image)
	if err := mem.Program(2*geo.SectorSize-50, image); err != nil { // sectors 1, 2, 3
		t.Fatal(err)
	}
	if err := mem.Program(geo.Size-1, []byte{0}); err != nil { // last sector
		t.Fatal(err)
	}
	want := mem.Snapshot()
	if err := mem.SaveToFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("dump differs from the chip content")
	}

	// Restore over a chip whose own content lies elsewhere: the old
	// sectors must read erased again and give their buffers back.
	other, err := New(geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Program(8*geo.SectorSize, image); err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreFromFile(path); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(other.Snapshot(), want) {
		t.Fatal("RestoreFromFile: content differs")
	}
	if n := other.buffers(); n != 4 {
		t.Fatalf("RestoreFromFile: %d sectors hold a buffer, want 4", n)
	}

	// A short dump leaves the tail erased.
	cut := 2*geo.SectorSize - 10 // keeps 40 bytes of the image, all in sector 1
	if err := os.WriteFile(path, want[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreFromFile(path); err != nil {
		t.Fatal(err)
	}
	short := append(append([]byte(nil), want[:cut]...), bytes.Repeat([]byte{0xFF}, geo.Size-cut)...)
	if !bytes.Equal(other.Snapshot(), short) {
		t.Fatal("RestoreFromFile(short): content differs")
	}
	if n := other.buffers(); n != 1 {
		t.Fatalf("RestoreFromFile(short): %d sectors hold a buffer, want 1", n)
	}
}
