package slot

import (
	"fmt"
)

// CopyTo copies this slot's content (manifest, firmware, trailer) into
// dst, sector by sector: read source, erase destination, program. This
// is the static-update path the bootloader uses to install an image
// from a non-bootable slot into the bootable one.
//
// Both slots must have the same capacity; the flash geometries may
// differ (internal vs external flash).
func (s *Slot) CopyTo(dst *Slot) error {
	if s.region.Length != dst.region.Length {
		return fmt.Errorf("slot: copy %s -> %s: size mismatch (%d vs %d)",
			s.Name, dst.Name, s.region.Length, dst.region.Length)
	}
	srcSector := s.region.Mem.Geometry().SectorSize
	dstSector := dst.region.Mem.Geometry().SectorSize
	step := max(srcSector, dstSector)
	if step%srcSector != 0 || step%dstSector != 0 {
		return fmt.Errorf("slot: copy %s -> %s: incompatible sector sizes (%d vs %d)",
			s.Name, dst.Name, srcSector, dstSector)
	}
	buf := make([]byte, step)
	for off := 0; off < s.region.Length; off += step {
		if err := s.region.ReadAt(off, buf); err != nil {
			return fmt.Errorf("slot: copy read %s: %w", s.Name, err)
		}
		for e := 0; e < step; e += dstSector {
			if err := dst.region.EraseSectorAt(off + e); err != nil {
				return fmt.Errorf("slot: copy erase %s: %w", dst.Name, err)
			}
		}
		if err := dst.region.ProgramAt(off, buf); err != nil {
			return fmt.Errorf("slot: copy program %s: %w", dst.Name, err)
		}
	}
	return nil
}
