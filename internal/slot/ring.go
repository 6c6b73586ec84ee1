package slot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"upkit/internal/flash"
)

// ring is the device's one NOR-flash log, shared by the reception
// journal and the security counter: a ring of fixed-size frames across
// at least two sectors of a region, each holding one payload under a
// monotonically increasing sequence number. A user sets the region and
// the format fields (name, magic, frameSize, sized, valid) and keeps its
// payload codec.
//
// NOR flash cannot rewrite in place, so a write programs the next free
// frame, and entering a sector's first frame erases that sector — and
// only that sector. The frame holding the latest valid payload therefore
// always lives in a sector that is not being erased, and a power loss at
// any flash operation leaves the old or the new payload readable. Torn
// frames fail their CRC: the scan skips them (the valid frame with the
// highest sequence number wins), and the write only programs blank
// frames.
//
// Frame layout (big endian); len is present only in sized rings:
//
//	magic uint32 | seq uint32 | [len uint32] | payload | crc32
//
// The cursor and sequence cache are rebuilt from flash whenever they are
// unknown (fresh ring or after a failed write), so a ring holds no
// durable state of its own.
type ring struct {
	region    flash.Region
	name      string // prefixes errors: "slot: <name> write: ..."
	magic     uint32
	frameSize int  // clamped to the sector size by newRing
	sized     bool // a len field follows seq; else the payload fills the frame
	// valid, if set, rejects CRC-valid payloads the user cannot decode;
	// the scan skips them like torn frames.
	valid func(payload []byte) bool

	frames, perSector int
	scanned           bool
	nextSeq           uint32
	cursor            int
	blankBuf          []byte // blank's read buffer, one frame
}

// newRing completes r, whose user has set its region and format fields.
func newRing(r ring) ring {
	sector := r.region.Mem.Geometry().SectorSize
	r.frameSize = min(r.frameSize, sector)
	r.frames, r.perSector = r.region.Length/r.frameSize, sector/r.frameSize
	return r
}

// frameAt reads and validates frame i, returning its sequence number and
// payload, or a nil payload for a blank, torn or corrupt frame. A sized
// frame is read header first, then only as far as its CRC.
func (r *ring) frameAt(i int) (seq uint32, payload []byte) {
	off := i * r.frameSize
	hdr, n := 4+4, r.frameSize-4-4-4 // magic | seq, payload up to the CRC
	if r.sized {
		head := make([]byte, 4+4+4)
		if r.region.ReadAt(off, head) != nil || binary.BigEndian.Uint32(head) != r.magic {
			return 0, nil
		}
		hdr, n = len(head), int(binary.BigEndian.Uint32(head[8:]))
		if n < 0 || hdr+n+4 > r.frameSize {
			return 0, nil
		}
	}
	frame := make([]byte, hdr+n+4)
	if r.region.ReadAt(off, frame) != nil || binary.BigEndian.Uint32(frame) != r.magic ||
		crc32.ChecksumIEEE(frame[:hdr+n]) != binary.BigEndian.Uint32(frame[hdr+n:]) ||
		r.valid != nil && !r.valid(frame[hdr:hdr+n]) {
		return 0, nil
	}
	return binary.BigEndian.Uint32(frame[4:]), frame[hdr : hdr+n]
}

// scan walks all frames, rebuilds the cursor and sequence cache, and
// returns the payload of the latest valid frame, or nil if there is none.
func (r *ring) scan() []byte {
	var best []byte
	var bestSeq uint32
	r.cursor = 0
	for i := range r.frames {
		if seq, payload := r.frameAt(i); payload != nil && (best == nil || seq > bestSeq) {
			best, bestSeq, r.cursor = payload, seq, (i+1)%r.frames
		}
	}
	r.nextSeq = bestSeq + 1
	r.scanned = true
	return best
}

// write persists payload as the new latest frame. On success earlier
// frames are superseded (not erased — the ring reclaims them lazily).
func (r *ring) write(payload []byte) error {
	if !r.scanned {
		r.scan()
	}
	frame := binary.BigEndian.AppendUint32(nil, r.magic)
	frame = binary.BigEndian.AppendUint32(frame, r.nextSeq)
	if r.sized {
		frame = binary.BigEndian.AppendUint32(frame, uint32(len(payload)))
	}
	frame = append(frame, payload...)
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))

	// Until the frame lands the cache is suspect: a failed write leaves
	// the next one to rescan. Find a programmable frame: entering a
	// sector erases it whole; within a sector, torn frames (not blank,
	// e.g. a previous write hit by a power loss) are skipped. Bounded:
	// every perSector-th step erases, so at most frames+perSector probes.
	r.scanned = false
	for probe := 0; probe <= r.frames+r.perSector; probe++ {
		at := r.cursor
		r.cursor = (at + 1) % r.frames
		if at%r.perSector == 0 {
			if err := r.region.EraseSectorAt(at * r.frameSize); err != nil {
				return fmt.Errorf("slot: %s erase: %w", r.name, err)
			}
		} else if !r.blank(at) {
			continue
		}
		if err := r.region.ProgramAt(at*r.frameSize, frame); err != nil {
			return fmt.Errorf("slot: %s write: %w", r.name, err)
		}
		r.nextSeq++
		r.scanned = true
		return nil
	}
	return fmt.Errorf("slot: %s has no free frame", r.name)
}

// blank reports whether frame i is fully erased.
func (r *ring) blank(i int) bool {
	if r.blankBuf == nil {
		r.blankBuf = make([]byte, r.frameSize)
	}
	buf := r.blankBuf
	if err := r.region.ReadAt(i*r.frameSize, buf); err != nil {
		return false
	}
	for _, b := range buf {
		if b != 0xFF {
			return false
		}
	}
	return true
}

// invalidateRing discards every payload, erasing only sectors that are
// not already blank (the common post-update case costs zero erases). It
// is a function rather than a method so that embedding a ring never
// hands its user an erase path: the security counter must have none.
func invalidateRing(r *ring) error {
	r.scanned = false
	sector := r.region.Mem.Geometry().SectorSize
	for off := 0; off < r.region.Length; off += sector {
		for f := off / r.frameSize; f < (off+sector)/r.frameSize; f++ {
			if r.blank(f) {
				continue
			}
			if err := r.region.EraseSectorAt(off); err != nil {
				return fmt.Errorf("slot: %s invalidate: %w", r.name, err)
			}
			break
		}
	}
	return nil
}
