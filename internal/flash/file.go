package flash

import (
	"fmt"
	"os"

	"upkit/internal/framelog"
)

// The paper's memory interface "allows assigning a Linux file to each
// slot, which gives the ability to work with devices supporting a file
// system, as well as to test the modules without the need of a
// simulator" (§V). LoadFromFile and (*Memory).SaveToFile provide that
// binding: a chip image persists as a plain file.

// LoadFromFile creates a Memory with the given geometry whose initial
// content is read from path. A missing file yields a fully erased chip;
// shorter content is padded with 0xFF; longer content is an error.
func LoadFromFile(path string, geo Geometry) (*Memory, error) {
	mem, err := New(geo, nil)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return mem, nil
	}
	if err != nil {
		return nil, fmt.Errorf("flash: load %s: %w", path, err)
	}
	if len(raw) > geo.Size {
		return nil, fmt.Errorf("flash: load %s: file is %d bytes, chip is %d", path, len(raw), geo.Size)
	}
	mem.mu.Lock()
	mem.loadLocked(raw)
	mem.mu.Unlock()
	return mem, nil
}

// SaveToFile persists the chip content to path, so a simulated device
// can be stopped and resumed — and so host-side tools can inspect slots
// with standard binary utilities.
//
// The dump replaces path atomically (framelog.WriteFile): a crash
// mid-save must leave the previous dump intact, never a truncated chip
// image that a later LoadFromFile would silently pad with erased flash.
func (m *Memory) SaveToFile(path string) error {
	if err := framelog.WriteFile(path, m.Snapshot()); err != nil {
		return fmt.Errorf("flash: save %s: %w", path, err)
	}
	return nil
}

// RestoreFromFile overwrites the chip content with a previously saved
// image (shorter images leave the tail erased). It bypasses NOR
// semantics — this is the programmer restoring a dump, not firmware
// writing — and resets no statistics.
func (m *Memory) RestoreFromFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("flash: restore %s: %w", path, err)
	}
	if len(raw) > m.geo.Size {
		return fmt.Errorf("flash: restore %s: image is %d bytes, chip is %d", path, len(raw), m.geo.Size)
	}
	m.mu.Lock()
	m.loadLocked(raw)
	m.mu.Unlock()
	return nil
}
