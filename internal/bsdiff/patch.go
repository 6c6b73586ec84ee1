package bsdiff

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Patch container format (sequentially applicable, see package doc):
//
//	header:  magic "UPBSDIF1" | oldSize uint32 | newSize uint32
//	record:  diffLen uint32 | extraLen uint32 | seek int32
//	         diffLen bytes (new minus old, bytewise)
//	         extraLen bytes (literal new data)
//
// Records repeat until exactly newSize output bytes have been produced.
const (
	patchMagic       = "UPBSDIF1"
	patchHeaderSize  = len(patchMagic) + 4 + 4
	recordHeaderSize = 4 + 4 + 4
)

// Patch stream errors.
var (
	ErrBadPatchHeader  = errors.New("bsdiff: bad patch header")
	ErrPatchCorrupt    = errors.New("bsdiff: corrupt patch")
	ErrPatchTrailing   = errors.New("bsdiff: data after end of patch")
	ErrPatchIncomplete = errors.New("bsdiff: patch ended early")
)

// patchWriter accumulates an encoded patch.
type patchWriter struct {
	buf bytes.Buffer
}

func (w *patchWriter) writeHeader(oldSize, newSize int) {
	w.buf.WriteString(patchMagic)
	var sz [8]byte
	binary.BigEndian.PutUint32(sz[0:4], uint32(oldSize))
	binary.BigEndian.PutUint32(sz[4:8], uint32(newSize))
	w.buf.Write(sz[:])
}

func (w *patchWriter) writeRecord(diff, extra []byte, seek int) {
	var hdr [recordHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(diff)))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(extra)))
	binary.BigEndian.PutUint32(hdr[8:12], uint32(int32(seek)))
	w.buf.Write(hdr[:])
	w.buf.Write(diff)
	w.buf.Write(extra)
}

// applierState enumerates what the Applier expects next.
type applierState int

const (
	applierHeader applierState = iota + 1
	applierRecord
	applierDiff
	applierExtra
	applierDone
)

// Applier applies a patch as it streams in, reading the old image from
// an io.ReaderAt (on a device: the other flash slot) and emitting new
// image bytes incrementally.
type Applier struct {
	old io.ReaderAt

	state  applierState
	hdr    [patchHeaderSize]byte
	hdrN   int
	record [recordHeaderSize]byte
	recN   int

	oldSize, newSize int
	oldPos, emitted  int

	diffLeft, extraLeft int
	seek                int

	// oldBuf and diffBuf are reusable working buffers: oldBuf batches
	// old-image reads to the flash sector size, diffBuf holds the
	// in-flight diff chunk so Feed allocates nothing per call. Neither
	// is part of the checkpoint.
	oldBuf  []byte
	diffBuf []byte
}

// NewApplier returns an applier that reads old-image bytes from old.
func NewApplier(old io.ReaderAt) *Applier {
	return &Applier{old: old, state: applierHeader, oldBuf: make([]byte, 4096)}
}

// Done reports whether the full new image has been produced.
func (a *Applier) Done() bool { return a.state == applierDone }

// Feed consumes a chunk of patch bytes, invoking emit with new-image
// bytes as they become available. The slice passed to emit is only valid
// during the call.
func (a *Applier) Feed(chunk []byte, emit func([]byte) error) error {
	for len(chunk) > 0 {
		switch a.state {
		case applierHeader:
			n := copy(a.hdr[a.hdrN:], chunk)
			a.hdrN += n
			chunk = chunk[n:]
			if a.hdrN < patchHeaderSize {
				continue
			}
			if string(a.hdr[:len(patchMagic)]) != patchMagic {
				return fmt.Errorf("%w: magic %q", ErrBadPatchHeader, a.hdr[:len(patchMagic)])
			}
			a.oldSize = int(binary.BigEndian.Uint32(a.hdr[len(patchMagic):]))
			a.newSize = int(binary.BigEndian.Uint32(a.hdr[len(patchMagic)+4:]))
			if a.newSize == 0 {
				a.state = applierDone
			} else {
				a.state = applierRecord
			}
		case applierRecord:
			n := copy(a.record[a.recN:], chunk)
			a.recN += n
			chunk = chunk[n:]
			if a.recN < recordHeaderSize {
				continue
			}
			a.recN = 0
			a.diffLeft = int(binary.BigEndian.Uint32(a.record[0:4]))
			a.extraLeft = int(binary.BigEndian.Uint32(a.record[4:8]))
			a.seek = int(int32(binary.BigEndian.Uint32(a.record[8:12])))
			if a.emitted+a.diffLeft+a.extraLeft > a.newSize {
				return fmt.Errorf("%w: record overruns new size", ErrPatchCorrupt)
			}
			a.advanceState()
		case applierDiff:
			n := min(len(chunk), a.diffLeft)
			if cap(a.diffBuf) < n {
				a.diffBuf = make([]byte, n)
			}
			out := a.diffBuf[:n]
			copy(out, chunk[:n])
			if err := a.addOldBytes(out); err != nil {
				return err
			}
			if err := emit(out); err != nil {
				return err
			}
			a.emitted += n
			a.oldPos += n
			a.diffLeft -= n
			chunk = chunk[n:]
			a.advanceState()
		case applierExtra:
			n := min(len(chunk), a.extraLeft)
			if err := emit(chunk[:n]); err != nil {
				return err
			}
			a.emitted += n
			a.extraLeft -= n
			chunk = chunk[n:]
			a.advanceState()
		case applierDone:
			return ErrPatchTrailing
		}
	}
	return nil
}

// advanceState moves between diff, extra, and record states as the
// current record drains, applying the seek once the record completes.
func (a *Applier) advanceState() {
	if a.diffLeft > 0 {
		a.state = applierDiff
		return
	}
	if a.extraLeft > 0 {
		a.state = applierExtra
		return
	}
	// Record complete: apply the old-position seek.
	a.oldPos += a.seek
	a.seek = 0
	if a.emitted == a.newSize {
		a.state = applierDone
	} else {
		a.state = applierRecord
	}
}

// addOldBytes adds old[oldPos+i] to out[i] in place. Positions outside
// the old image contribute zero, matching canonical bspatch.
func (a *Applier) addOldBytes(out []byte) error {
	for i := 0; i < len(out); {
		pos := a.oldPos + i
		if pos < 0 || pos >= a.oldSize {
			i++
			continue
		}
		n := min(len(out)-i, a.oldSize-pos, len(a.oldBuf))
		if _, err := a.old.ReadAt(a.oldBuf[:n], int64(pos)); err != nil {
			return fmt.Errorf("bsdiff: read old image: %w", err)
		}
		for k := range n {
			out[i+k] += a.oldBuf[k]
		}
		i += n
	}
	return nil
}

// Checkpoint serialization: the applier's state is a handful of
// cursors (patch-header/record parse position, old-image offset, diff
// and extra byte counts left in the current record), so the reception
// journal can snapshot it cheaply at every buffer flush.
const (
	ckptVersion = 1
	// CheckpointSize is the exact size of a serialized applier state.
	CheckpointSize = 4 + 1 + 1 + 1 + patchHeaderSize + 1 + recordHeaderSize + 4 + 4 + 8 + 4 + 4 + 4 + 4
)

var ckptMagic = [4]byte{'B', 'S', 'C', 'K'}

// ErrBadCheckpoint reports an unusable serialized applier state.
var ErrBadCheckpoint = errors.New("bsdiff: bad checkpoint")

// Checkpoint serializes the applier's full state. The old-image reader
// is not part of the snapshot: Restore into an applier constructed over
// the same old image.
func (a *Applier) Checkpoint() []byte {
	buf := make([]byte, 0, CheckpointSize)
	buf = append(buf, ckptMagic[:]...)
	buf = append(buf, ckptVersion, byte(a.state), byte(a.hdrN))
	buf = append(buf, a.hdr[:]...)
	buf = append(buf, byte(a.recN))
	buf = append(buf, a.record[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.oldSize))
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.newSize))
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(a.oldPos)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.emitted))
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.diffLeft))
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.extraLeft))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(a.seek)))
	return buf
}

// Restore overwrites the applier's state from a Checkpoint snapshot.
func (a *Applier) Restore(blob []byte) error {
	if len(blob) != CheckpointSize || [4]byte(blob[:4]) != ckptMagic || blob[4] != ckptVersion {
		return ErrBadCheckpoint
	}
	state := applierState(blob[5])
	if state < applierHeader || state > applierDone {
		return fmt.Errorf("%w: state %d", ErrBadCheckpoint, state)
	}
	hdrN := int(blob[6])
	if hdrN > patchHeaderSize {
		return fmt.Errorf("%w: hdrN %d", ErrBadCheckpoint, hdrN)
	}
	p := 7
	copy(a.hdr[:], blob[p:p+patchHeaderSize])
	p += patchHeaderSize
	recN := int(blob[p])
	p++
	if recN > recordHeaderSize {
		return fmt.Errorf("%w: recN %d", ErrBadCheckpoint, recN)
	}
	copy(a.record[:], blob[p:p+recordHeaderSize])
	p += recordHeaderSize
	oldSize := int(binary.BigEndian.Uint32(blob[p:]))
	newSize := int(binary.BigEndian.Uint32(blob[p+4:]))
	oldPos := int(int64(binary.BigEndian.Uint64(blob[p+8:])))
	emitted := int(binary.BigEndian.Uint32(blob[p+16:]))
	diffLeft := int(binary.BigEndian.Uint32(blob[p+20:]))
	extraLeft := int(binary.BigEndian.Uint32(blob[p+24:]))
	seek := int(int32(binary.BigEndian.Uint32(blob[p+28:])))
	if emitted > newSize || emitted+diffLeft+extraLeft > newSize {
		return fmt.Errorf("%w: inconsistent cursors", ErrBadCheckpoint)
	}
	a.state = state
	a.hdrN = hdrN
	a.recN = recN
	a.oldSize, a.newSize = oldSize, newSize
	a.oldPos, a.emitted = oldPos, emitted
	a.diffLeft, a.extraLeft = diffLeft, extraLeft
	a.seek = seek
	return nil
}

// Close checks that the patch was complete.
func (a *Applier) Close() error {
	if a.state != applierDone {
		return fmt.Errorf("%w: emitted %d of %d bytes", ErrPatchIncomplete, a.emitted, a.newSize)
	}
	return nil
}
