package flash

import (
	"fmt"
	"sync"
	"time"

	"upkit/internal/simclock"
)

// The dense reference model: the implementation of Memory as it stood
// before the sparse store replaced it — one 0xFF-filled array for the
// whole chip, erased and programmed byte by byte — moved here verbatim
// under a new type name. It exists only so the differential and fuzz
// tests can hold the sparse store to it operation by operation:
// returned errors, bytes read, Stats, EraseCount and every clock charge.

// denseMemory is the dense model.
type denseMemory struct {
	mu    sync.Mutex
	geo   Geometry
	data  []byte
	clock *simclock.Clock
	stats Stats

	// eraseCounts tracks wear per sector (diagnostics and tests).
	eraseCounts []int

	// failAfter < 0 disables fault injection; otherwise it is the number
	// of remaining program/erase operations before ErrPowerLoss.
	failAfter int
}

// newDense creates a dense chip with the given geometry, fully erased.
func newDense(geo Geometry, clock *simclock.Clock) (*denseMemory, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	data := make([]byte, geo.Size)
	for i := range data {
		data[i] = 0xFF
	}
	return &denseMemory{
		geo:         geo,
		data:        data,
		clock:       clock,
		eraseCounts: make([]int, geo.Size/geo.SectorSize),
		failAfter:   -1,
	}, nil
}

// Geometry returns the chip description.
func (m *denseMemory) Geometry() Geometry { return m.geo }

// Stats returns a snapshot of the operation counters.
func (m *denseMemory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// EraseCount reports how many times sector has been erased.
func (m *denseMemory) EraseCount(sector int) int {
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
func (m *denseMemory) FailAfter(n int) {
	m.mu.Lock()
	m.failAfter = n
	m.mu.Unlock()
}

// ClearFault disarms fault injection, as if power returned.
func (m *denseMemory) ClearFault() { m.FailAfter(-1) }

// consumeFaultLocked decrements the fault counter and reports whether
// this operation must fail. Callers hold m.mu.
func (m *denseMemory) consumeFaultLocked() bool {
	if m.failAfter < 0 {
		return false
	}
	if m.failAfter == 0 {
		return true
	}
	m.failAfter--
	return false
}

func (m *denseMemory) advance(d time.Duration) {
	if m.clock != nil {
		m.clock.Advance(d)
	}
}

// EraseSector erases the sector containing offset, resetting it to 0xFF.
// The offset must be sector-aligned.
func (m *denseMemory) EraseSector(offset int) error {
	if offset < 0 || offset >= m.geo.Size || offset%m.geo.SectorSize != 0 {
		return fmt.Errorf("%w: erase at %#x", ErrOutOfRange, offset)
	}
	m.mu.Lock()
	if m.consumeFaultLocked() {
		m.mu.Unlock()
		return ErrPowerLoss
	}
	for i := offset; i < offset+m.geo.SectorSize; i++ {
		m.data[i] = 0xFF
	}
	m.stats.SectorErases++
	m.eraseCounts[offset/m.geo.SectorSize]++
	m.mu.Unlock()
	m.advance(m.geo.EraseSector)
	return nil
}

// Program writes data at offset. The write may span pages but not the
// chip end, and may only clear bits: each target byte b and source byte
// s must satisfy b&s == s. On an injected power loss the write stops at
// an arbitrary page boundary, leaving a torn write behind — exactly the
// hazard UpKit's bootloader verification exists to catch.
func (m *denseMemory) Program(offset int, data []byte) error {
	if offset < 0 || offset+len(data) > m.geo.Size {
		return fmt.Errorf("%w: program [%#x,%#x)", ErrOutOfRange, offset, offset+len(data))
	}
	if len(data) == 0 {
		return nil
	}
	m.mu.Lock()
	// Pre-check NOR semantics before touching anything.
	for i, s := range data {
		if m.data[offset+i]&s != s {
			m.mu.Unlock()
			return fmt.Errorf("%w: at %#x", ErrNotErased, offset+i)
		}
	}
	pages := 0
	written := 0
	torn := false
	for start := 0; start < len(data); {
		if m.consumeFaultLocked() {
			torn = true
			break
		}
		pageEnd := ((offset+start)/m.geo.PageSize + 1) * m.geo.PageSize
		end := min(len(data), pageEnd-offset)
		for i := start; i < end; i++ {
			m.data[offset+i] &= data[i]
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
func (m *denseMemory) Read(offset int, buf []byte) error {
	if offset < 0 || offset+len(buf) > m.geo.Size {
		return fmt.Errorf("%w: read [%#x,%#x)", ErrOutOfRange, offset, offset+len(buf))
	}
	m.mu.Lock()
	copy(buf, m.data[offset:offset+len(buf)])
	m.stats.BytesRead += len(buf)
	m.mu.Unlock()
	pages := (len(buf) + m.geo.PageSize - 1) / m.geo.PageSize
	m.advance(time.Duration(pages) * m.geo.ReadPage)
	return nil
}

// Snapshot returns a copy of the chip content (test helper).
func (m *denseMemory) Snapshot() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]byte, len(m.data))
	copy(out, m.data)
	return out
}

// Corrupt flips the bits of mask at offset, bypassing NOR semantics.
// It models radiation/attack-induced corruption for verifier tests.
func (m *denseMemory) Corrupt(offset int, mask byte) error {
	if offset < 0 || offset >= m.geo.Size {
		return fmt.Errorf("%w: corrupt at %#x", ErrOutOfRange, offset)
	}
	m.mu.Lock()
	m.data[offset] ^= mask
	m.mu.Unlock()
	return nil
}
