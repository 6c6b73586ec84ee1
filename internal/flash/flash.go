// Package flash simulates the NOR flash memories of constrained IoT
// platforms (nRF52840, CC2650, CC2538) with the semantics UpKit's memory
// interface depends on:
//
//   - erase-before-write: programming may only clear bits (1 → 0); a
//     sector erase resets every bit to 1 (byte 0xFF);
//   - sector-granular erase and page-granular program operations, each
//     with a modelled duration charged to a virtual clock;
//   - separate internal and external banks (the CC2650 stores its
//     non-bootable slot on external SPI flash, §V);
//   - fault injection (power loss after N programs) used by the
//     robustness experiments;
//   - operation statistics (erases, programs, bytes moved) consumed by
//     the energy model.
//
// Timing is modelled, content is real: every byte written here is a byte
// the update pipeline actually produced.
//
// The backing store is sparse and content-shared (shared.go): an erased
// sector has no buffer, and a sector whose content is complete refers to
// the one process-wide copy of that content until a later program or
// Corrupt gives it a private copy again. A sector is complete when one
// program covers it whole, or when a page that ends on its last byte is
// programmed (completion sharing): then the content table takes the
// chip's own buffer as the shared copy (adoption) or, holding the
// content already, lets the chip drop its buffer, which goes back to a
// pool for the next private sector (recycling). All of it is a
// host-side economy only. Every erase, page program and page read is
// still performed, counted, charged to the clock and offered to fault
// injection exactly as if the chip were one dense array — including
// programs of 0xFF into an erased sector and erases of an already-erased
// one, which the modelled device does pay for.
package flash

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"upkit/internal/simclock"
)

// Errors reported by flash operations.
var (
	// ErrOutOfRange is returned for accesses beyond the chip size or
	// not aligned as required.
	ErrOutOfRange = errors.New("flash: access out of range")
	// ErrNotErased is returned when a program operation tries to set a
	// bit from 0 to 1, which NOR flash cannot do without an erase.
	ErrNotErased = errors.New("flash: programming would set bits without erase")
	// ErrPowerLoss is returned once the injected fault triggers; the
	// device simulation treats it as an unexpected reset.
	ErrPowerLoss = errors.New("flash: simulated power loss")
)

// Geometry describes one flash chip and its operation costs.
type Geometry struct {
	// Name labels the chip in logs and stats ("nrf52840-internal").
	Name string
	// Size is the chip capacity in bytes; must be a multiple of SectorSize.
	Size int
	// SectorSize is the erase granularity in bytes.
	SectorSize int
	// PageSize is the program granularity in bytes; must divide SectorSize.
	PageSize int

	// EraseSector is the modelled duration of one sector erase.
	EraseSector time.Duration
	// ProgramPage is the modelled duration of one page program.
	ProgramPage time.Duration
	// ReadPage is the modelled duration of reading one page (external
	// SPI flash is much slower than memory-mapped internal flash).
	ReadPage time.Duration

	// External marks off-chip (SPI) flash, which cannot hold a bootable
	// slot because the CPU cannot execute from it.
	External bool
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.Size <= 0 || g.SectorSize <= 0 || g.PageSize <= 0:
		return fmt.Errorf("flash: geometry %q: sizes must be positive", g.Name)
	case g.Size%g.SectorSize != 0:
		return fmt.Errorf("flash: geometry %q: size %d not a multiple of sector size %d", g.Name, g.Size, g.SectorSize)
	case g.SectorSize%g.PageSize != 0:
		return fmt.Errorf("flash: geometry %q: sector size %d not a multiple of page size %d", g.Name, g.SectorSize, g.PageSize)
	default:
		return nil
	}
}

// Stats counts physical operations since the chip was created. The
// energy model converts these into charge estimates.
type Stats struct {
	SectorErases int
	PagePrograms int
	BytesRead    int
	BytesWritten int
}

// Memory is one simulated flash chip. All methods are safe for
// concurrent use.
type Memory struct {
	mu  sync.Mutex
	geo Geometry
	// sectors holds the content of each erase sector; nil means erased
	// (every byte 0xFF). A chunk appears on the first program that
	// clears a bit and goes away on the next erase.
	sectors []*chunk
	// shared[sec] marks sectors[sec] as the content table's canonical
	// copy: the sector is read-only until writableLocked copies it. A
	// sector that is not shared owns its chunk, and pool takes the chunk
	// back when the sector drops it.
	shared []bool
	pool   *sync.Pool
	clock  *simclock.Clock
	stats  Stats

	// eraseCounts tracks wear per sector (diagnostics and tests).
	eraseCounts []int

	// failAfter < 0 disables fault injection; otherwise it is the number
	// of remaining program/erase operations before ErrPowerLoss.
	failAfter int
}

// New creates a chip with the given geometry, fully erased. A nil clock
// disables timing (operations are instantaneous).
func New(geo Geometry, clock *simclock.Clock) (*Memory, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	sectors := geo.Size / geo.SectorSize
	return &Memory{
		geo:         geo,
		sectors:     make([]*chunk, sectors),
		shared:      make([]bool, sectors),
		pool:        poolFor(geo.SectorSize),
		clock:       clock,
		eraseCounts: make([]int, sectors),
		failAfter:   -1,
	}, nil
}

// Geometry returns the chip description.
func (m *Memory) Geometry() Geometry { return m.geo }

// Stats returns a snapshot of the operation counters.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// EraseCount reports how many times sector has been erased.
func (m *Memory) EraseCount(sector int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sector < 0 || sector >= len(m.eraseCounts) {
		return 0
	}
	return m.eraseCounts[sector]
}

// FailAfter arms fault injection: after n more program/erase operations
// every subsequent operation returns ErrPowerLoss. n = 0 fails the next
// operation. Pass a negative n to disarm.
func (m *Memory) FailAfter(n int) {
	m.mu.Lock()
	m.failAfter = n
	m.mu.Unlock()
}

// ClearFault disarms fault injection, as if power returned.
func (m *Memory) ClearFault() { m.FailAfter(-1) }

// consumeFaultLocked decrements the fault counter and reports whether
// this operation must fail. Callers hold m.mu.
func (m *Memory) consumeFaultLocked() bool {
	if m.failAfter < 0 {
		return false
	}
	if m.failAfter == 0 {
		return true
	}
	m.failAfter--
	return false
}

// consumeFaultsLocked consumes n operations at once if none of them
// would fail, as n calls of consumeFaultLocked returning false would,
// and reports whether it did; otherwise it consumes nothing. Callers
// hold m.mu.
func (m *Memory) consumeFaultsLocked(n int) bool {
	switch {
	case m.failAfter < 0:
		return true
	case m.failAfter < n:
		return false
	}
	m.failAfter -= n
	return true
}

func (m *Memory) advance(d time.Duration) {
	if m.clock != nil {
		m.clock.Advance(d)
	}
}

// EraseSector erases the sector containing offset, resetting it to 0xFF.
// The offset must be sector-aligned.
func (m *Memory) EraseSector(offset int) error {
	if offset < 0 || offset >= m.geo.Size || offset%m.geo.SectorSize != 0 {
		return fmt.Errorf("%w: erase at %#x", ErrOutOfRange, offset)
	}
	m.mu.Lock()
	if m.consumeFaultLocked() {
		m.mu.Unlock()
		return ErrPowerLoss
	}
	sec := offset / m.geo.SectorSize
	m.dropLocked(sec) // erased: no buffer
	m.stats.SectorErases++
	m.eraseCounts[sec]++
	m.mu.Unlock()
	m.advance(m.geo.EraseSector)
	return nil
}

// Program writes data at offset. The write may span pages but not the
// chip end, and may only clear bits: each target byte b and source byte
// s must satisfy b&s == s. On an injected power loss the write stops at
// an arbitrary page boundary, leaving a torn write behind — exactly the
// hazard UpKit's bootloader verification exists to catch.
func (m *Memory) Program(offset int, data []byte) error {
	if offset < 0 || offset+len(data) > m.geo.Size {
		return fmt.Errorf("%w: program [%#x,%#x)", ErrOutOfRange, offset, offset+len(data))
	}
	if len(data) == 0 {
		return nil
	}
	m.mu.Lock()
	// Pre-check NOR semantics before touching anything.
	if i := m.firstSetBitLocked(offset, data); i >= 0 {
		m.mu.Unlock()
		return fmt.Errorf("%w: at %#x", ErrNotErased, offset+i)
	}
	ss, perSector := m.geo.SectorSize, m.geo.SectorSize/m.geo.PageSize
	pages := 0
	written := 0
	torn := false
	for start := 0; start < len(data); {
		// A whole erased sector whose pages all clear fault injection
		// takes the shared copy of its content in one step; a fault due
		// inside it tears it page by page below.
		if at := offset + start; at%ss == 0 && len(data)-start >= ss &&
			m.sectors[at/ss] == nil && m.consumeFaultsLocked(perSector) {
			m.shareLocked(at/ss, data[start:start+ss])
			written += ss
			pages += perSector
			start += ss
			continue
		}
		if m.consumeFaultLocked() {
			torn = true
			break
		}
		pageEnd := ((offset+start)/m.geo.PageSize + 1) * m.geo.PageSize
		end := min(len(data), pageEnd-offset)
		m.programPageLocked(offset+start, data[start:end])
		if at := offset + end; at%ss == 0 {
			m.completeLocked(at/ss - 1)
		}
		written += end - start
		pages++
		start = end
	}
	m.stats.PagePrograms += pages
	m.stats.BytesWritten += written
	m.mu.Unlock()
	m.advance(time.Duration(pages) * m.geo.ProgramPage)
	if torn {
		return ErrPowerLoss
	}
	return nil
}

// Read copies len(buf) bytes starting at offset into buf. Reads never
// fail from injected power loss (the bus is passive), only from range
// errors.
func (m *Memory) Read(offset int, buf []byte) error {
	if offset < 0 || offset+len(buf) > m.geo.Size {
		return fmt.Errorf("%w: read [%#x,%#x)", ErrOutOfRange, offset, offset+len(buf))
	}
	m.mu.Lock()
	m.readLocked(offset, buf)
	m.stats.BytesRead += len(buf)
	m.mu.Unlock()
	pages := (len(buf) + m.geo.PageSize - 1) / m.geo.PageSize
	m.advance(time.Duration(pages) * m.geo.ReadPage)
	return nil
}

// Snapshot returns a copy of the chip content (test helper).
func (m *Memory) Snapshot() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]byte, m.geo.Size)
	m.readLocked(0, out)
	return out
}

// Corrupt flips the bits of mask at offset, bypassing NOR semantics.
// It models radiation/attack-induced corruption for verifier tests.
func (m *Memory) Corrupt(offset int, mask byte) error {
	if offset < 0 || offset >= m.geo.Size {
		return fmt.Errorf("%w: corrupt at %#x", ErrOutOfRange, offset)
	}
	if mask == 0 {
		return nil
	}
	m.mu.Lock()
	m.writableLocked(offset / m.geo.SectorSize)[offset%m.geo.SectorSize] ^= mask
	m.mu.Unlock()
	return nil
}

// The sparse store. Apart from EraseSector dropping a buffer, everything
// above reaches sector content only through these accessors; callers
// hold m.mu. Only writableLocked hands out a buffer that may be written.

// erased is a block of erased flash: what a sector without a buffer
// reads as. It is never written after initialisation.
var erased = func() (b [4096]byte) {
	for i := range b {
		b[i] = 0xFF
	}
	return b
}()

// fillErased sets every byte of b to 0xFF.
func fillErased(b []byte) {
	for len(b) > 0 {
		b = b[copy(b, erased[:]):]
	}
}

// isErased reports whether every byte of b is 0xFF.
func isErased(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(erased))
		if !bytes.Equal(b[:n], erased[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// writableLocked returns a private buffer of sector sec, giving an
// erased sector one and copying a shared one first.
func (m *Memory) writableLocked(sec int) []byte {
	switch c := m.sectors[sec]; {
	case c == nil:
		own := m.newChunk()
		fillErased(own.b)
		m.sectors[sec] = own
	case m.shared[sec]:
		own := m.newChunk()
		copy(own.b, c.b)
		m.sectors[sec], m.shared[sec] = own, false
	}
	return m.sectors[sec].b
}

// newChunk returns a private chunk of one sector, a recycled one if the
// pool has it. Its content is whatever it held last.
func (m *Memory) newChunk() *chunk {
	if c, _ := m.pool.Get().(*chunk); c != nil {
		return c
	}
	return &chunk{b: make([]byte, m.geo.SectorSize)}
}

// dropLocked leaves sector sec erased. A private chunk goes back to the
// pool; a shared one is only let go.
func (m *Memory) dropLocked(sec int) {
	if c := m.sectors[sec]; c != nil && !m.shared[sec] {
		m.pool.Put(c)
	}
	m.sectors[sec], m.shared[sec] = nil, false
}

// shareLocked makes erased sector sec hold content, a whole sector, by
// reference to the content table. Blank content keeps it erased.
func (m *Memory) shareLocked(sec int, content []byte) {
	if isErased(content) {
		return
	}
	m.sectors[sec], m.shared[sec] = intern(content), true
}

// completeLocked offers sector sec, whose last page a program has just
// written, to the content table. A private sector whose content the
// table holds takes the canonical copy and recycles its own chunk; one
// whose content is new becomes the canonical copy itself.
func (m *Memory) completeLocked(sec int) {
	own := m.sectors[sec]
	if own == nil || m.shared[sec] {
		return
	}
	if c := adopt(own); c != own {
		m.pool.Put(own)
		m.sectors[sec] = c
	}
	m.shared[sec] = true
}

// readLocked copies the content at [offset, offset+len(buf)) into buf.
func (m *Memory) readLocked(offset int, buf []byte) {
	ss := m.geo.SectorSize
	for len(buf) > 0 {
		o := offset % ss
		n := min(len(buf), ss-o)
		if c := m.sectors[offset/ss]; c != nil {
			copy(buf[:n], c.b[o:])
		} else {
			fillErased(buf[:n])
		}
		buf, offset = buf[n:], offset+n
	}
}

// firstSetBitLocked returns the index into data of the first byte that
// programming at offset could not store — one with a bit set where the
// flash has it cleared — or -1. An erased sector accepts anything.
func (m *Memory) firstSetBitLocked(offset int, data []byte) int {
	ss := m.geo.SectorSize
	for done := 0; done < len(data); {
		o := (offset + done) % ss
		n := min(len(data)-done, ss-o)
		if c := m.sectors[(offset+done)/ss]; c != nil {
			if i := firstSetBit(c.b[o:o+n], data[done:done+n]); i >= 0 {
				return done + i
			}
		}
		done += n
	}
	return -1
}

// programPageLocked ANDs src into the flash at offset. src lies within
// one page and therefore within one sector. A sector gets a buffer of
// its own only if src clears a bit it has set.
func (m *Memory) programPageLocked(offset int, src []byte) {
	ss := m.geo.SectorSize
	sec, o := offset/ss, offset%ss
	switch c := m.sectors[sec]; {
	case c == nil:
		if isErased(src) {
			return
		}
	case m.shared[sec]:
		if firstSetBit(src, c.b[o:o+len(src)]) < 0 {
			return // clears nothing: the shared copy stays right
		}
	}
	andBytes(m.writableLocked(sec)[o:o+len(src)], src)
}

// loadLocked replaces the chip content with raw followed by erased
// flash, bypassing NOR semantics. Blank sectors get no buffer, whole
// ones share their content, and a short last one gets its own.
func (m *Memory) loadLocked(raw []byte) {
	ss := m.geo.SectorSize
	for sec := range m.sectors {
		m.dropLocked(sec)
		lo := sec * ss
		switch {
		case lo+ss <= len(raw):
			m.shareLocked(sec, raw[lo:lo+ss])
		case lo < len(raw) && !isErased(raw[lo:]):
			copy(m.writableLocked(sec), raw[lo:])
		}
	}
}

// firstSetBit returns the index of the first byte of src with a bit set
// that the byte of dst at the same index has cleared, or -1, comparing
// eight bytes at a time. len(dst) must equal len(src).
func firstSetBit(dst, src []byte) int {
	dst = dst[:len(src)]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		if binary.LittleEndian.Uint64(src[i:])&^binary.LittleEndian.Uint64(dst[i:]) != 0 {
			break // the byte loop names the offender
		}
	}
	for ; i < len(src); i++ {
		if src[i]&^dst[i] != 0 {
			return i
		}
	}
	return -1
}

// andBytes clears every bit of dst that is clear in src, eight bytes at
// a time. len(dst) must equal len(src).
func andBytes(dst, src []byte) {
	dst = dst[:len(src)]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])&binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < len(src); i++ {
		dst[i] &= src[i]
	}
}
