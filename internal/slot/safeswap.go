package slot

import (
	"encoding/binary"
	"errors"
	"fmt"

	"upkit/internal/flash"
)

// SafeSwap exchanges two slots in a power-loss-safe way, the technique
// real static-update bootloaders (e.g. mcuboot) use: each sector pair is
// rotated through a scratch sector, and a journal records per-sector
// progress with bit-clearing writes so an interrupted swap can resume
// after reboot instead of leaving both slots torn.
//
// Per sector i the phases are:
//
//	phase 1: A[i] → scratch        (journal byte 0xFF → 0x7F)
//	phase 2: B[i] → A[i]           (journal byte 0x7F → 0x3F)
//	phase 3: scratch → B[i]        (journal byte 0x3F → 0x1F)
//
// A power loss during any phase leaves enough intact state to redo that
// phase: the journal byte is only advanced after the phase's data is
// durably written. This costs three erases and three programs per
// sector — which is exactly why the paper's static loading phase is so
// much slower than A/B loading (Fig. 8c).

// Journal byte values (progressive bit clearing).
const (
	swapPending  byte = 0xFF
	swapScratch  byte = 0x7F // phase 1 done
	swapAWritten byte = 0x3F // phase 2 done
	swapDone     byte = 0x1F // phase 3 done
)

// swapJournalMagic marks an in-progress swap journal.
const swapJournalMagic uint32 = 0x5553574A // "USWJ"

// SafeSwap errors.
var (
	ErrScratchTooSmall = errors.New("slot: scratch region smaller than a sector")
	ErrJournalTooSmall = errors.New("slot: journal region too small")
	ErrGeometry        = errors.New("slot: safe swap requires matching sector sizes")
)

// SwapInProgress reports whether journal records an interrupted swap
// that must be resumed before the slots can be trusted.
func SwapInProgress(journal flash.Region) (bool, error) {
	var hdr [4]byte
	if err := journal.ReadAt(0, hdr[:]); err != nil {
		return false, err
	}
	return binary.BigEndian.Uint32(hdr[:]) == swapJournalMagic, nil
}

// SafeSwap swaps the contents of a and b through scratch, journaling
// progress. If journal already records an interrupted swap of the same
// geometry, the swap resumes where it stopped. On success the journal
// is erased.
func SafeSwap(a, b *Slot, scratch, journal flash.Region) error {
	sector := a.region.Mem.Geometry().SectorSize
	if b.region.Mem.Geometry().SectorSize != sector ||
		scratch.Mem.Geometry().SectorSize != sector {
		return ErrGeometry
	}
	if a.region.Length != b.region.Length {
		return fmt.Errorf("slot: safe swap %s <-> %s: size mismatch", a.Name, b.Name)
	}
	if scratch.Length < sector {
		return ErrScratchTooSmall
	}
	sectors := a.region.Length / sector
	if journal.Length < 4+sectors {
		return fmt.Errorf("%w: need %d bytes, have %d", ErrJournalTooSmall, 4+sectors, journal.Length)
	}

	resuming, err := SwapInProgress(journal)
	if err != nil {
		return err
	}
	if !resuming {
		if err := journal.Erase(); err != nil {
			return fmt.Errorf("slot: journal erase: %w", err)
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], swapJournalMagic)
		if err := journal.ProgramAt(0, hdr[:]); err != nil {
			return fmt.Errorf("slot: journal init: %w", err)
		}
	}

	mark := func(i int, state byte) error {
		if err := journal.ProgramAt(4+i, []byte{state}); err != nil {
			return fmt.Errorf("slot: journal mark sector %d: %w", i, err)
		}
		return nil
	}
	state := func(i int) (byte, error) {
		var buf [1]byte
		if err := journal.ReadAt(4+i, buf[:]); err != nil {
			return 0, err
		}
		return buf[0], nil
	}
	copySector := func(srcRead func(int, []byte) error, srcOff int,
		dst flash.Region, dstOff int, buf []byte) error {
		if err := srcRead(srcOff, buf); err != nil {
			return err
		}
		if err := dst.EraseSectorAt(dstOff); err != nil {
			return err
		}
		return dst.ProgramAt(dstOff, buf)
	}

	buf := make([]byte, sector)
	for i := range sectors {
		st, err := state(i)
		if err != nil {
			return err
		}
		off := i * sector
		// A torn journal byte can only have *more* bits cleared than the
		// last durable phase; treating unknown patterns as the previous
		// phase and redoing is always safe because each phase is
		// idempotent given the prior phase's postcondition.
		if st == swapPending {
			if err := copySector(a.region.ReadAt, off, scratch, 0, buf); err != nil {
				return fmt.Errorf("slot: swap phase 1 sector %d: %w", i, err)
			}
			if err := mark(i, swapScratch); err != nil {
				return err
			}
			st = swapScratch
		}
		if st == swapScratch {
			if err := copySector(b.region.ReadAt, off, a.region, off, buf); err != nil {
				return fmt.Errorf("slot: swap phase 2 sector %d: %w", i, err)
			}
			if err := mark(i, swapAWritten); err != nil {
				return err
			}
			st = swapAWritten
		}
		if st == swapAWritten {
			if err := copySector(scratch.ReadAt, 0, b.region, off, buf); err != nil {
				return fmt.Errorf("slot: swap phase 3 sector %d: %w", i, err)
			}
			if err := mark(i, swapDone); err != nil {
				return err
			}
		}
	}
	if err := journal.Erase(); err != nil {
		return fmt.Errorf("slot: journal clear: %w", err)
	}
	return nil
}
