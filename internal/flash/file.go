package flash

import (
	"fmt"
	"os"

	"upkit/internal/framelog"
)

// The paper's memory interface "allows assigning a Linux file to each
// slot, which gives the ability to work with devices supporting a file
// system, as well as to test the modules without the need of a
// simulator" (§V). SaveToFile and RestoreFromFile provide that binding:
// a chip image persists as a plain file.

// SaveToFile persists the chip content to path, so a simulated device
// can be stopped and resumed — and so host-side tools can inspect slots
// with standard binary utilities.
//
// The dump replaces path atomically (framelog.WriteFile): a crash
// mid-save must leave the previous dump intact, never a truncated chip
// image that a later RestoreFromFile would silently pad with erased
// flash.
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
