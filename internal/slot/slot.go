// Package slot implements UpKit's memory module (§IV-C): the
// organisation of persistent memory into update-image slots.
//
// A slot is a sector-aligned flash region holding one update image:
//
//	┌────────────────────┬──────────────────┬───────────────┐
//	│ manifest (1 page)  │ firmware ...     │ trailer page  │
//	└────────────────────┴──────────────────┴───────────────┘
//
// The trailer records the slot lifecycle in a NOR-friendly way: each
// state transition only clears bits, so no erase is needed between
// Receiving → Complete → Confirmed → Invalid, and a power loss can
// never make a slot look *more* finished than it was.
//
// Slots are either bootable (the CPU can execute in place) or
// non-bootable (e.g. on external SPI flash — the CC2650 configuration);
// a non-bootable image must be copied to a bootable slot before use.
// Configuration A of the paper (A/B updates) uses two bootable slots;
// Configuration B (static updates) uses one bootable plus one
// non-bootable slot.
package slot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"upkit/internal/flash"
	"upkit/internal/manifest"
)

// Kind says whether a slot's image can be executed in place.
type Kind int

const (
	// Bootable slots hold directly executable images (internal flash).
	Bootable Kind = iota + 1
	// NonBootable slots only stage images (e.g. external SPI flash).
	NonBootable
)

// String renders the paper's B / NB notation.
func (k Kind) String() string {
	switch k {
	case Bootable:
		return "B"
	case NonBootable:
		return "NB"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// State is the slot lifecycle, encoded so transitions only clear bits.
type State byte

const (
	// StateEmpty: erased, no image.
	StateEmpty State = 0xFF
	// StateReceiving: an update is being written.
	StateReceiving State = 0x7F
	// StateComplete: the agent wrote and digest-verified the image.
	StateComplete State = 0x3F
	// StateConfirmed: the bootloader verified and booted the image.
	StateConfirmed State = 0x1F
	// StateInvalid: the image failed verification or was superseded.
	StateInvalid State = 0x00
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateEmpty:
		return "empty"
	case StateReceiving:
		return "receiving"
	case StateComplete:
		return "complete"
	case StateConfirmed:
		return "confirmed"
	case StateInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("State(%#02x)", byte(s))
	}
}

// HasImage reports whether the slot holds a fully received image.
func (s State) HasImage() bool { return s == StateComplete || s == StateConfirmed }

// trailerMagic marks an initialised trailer.
const trailerMagic uint32 = 0x55534C54 // "USLT"

// AnyLink is the LinkBase wildcard for position-independent images.
const AnyLink uint32 = 0xFFFFFFFF

// Slot errors.
var (
	ErrTooSmall      = errors.New("slot: region too small")
	ErrNoImage       = errors.New("slot: no complete image")
	ErrImageTooLarge = errors.New("slot: image exceeds capacity")
	ErrBadTransition = errors.New("slot: invalid state transition")
)

// Slot is one update-image slot on a flash region.
type Slot struct {
	// Name labels the slot ("A", "B", "recovery") in logs.
	Name string
	// Kind distinguishes bootable from staging slots.
	Kind Kind
	// LinkBase is the memory address images in this slot execute from;
	// the verifier compares it with the manifest's link offset. Use
	// AnyLink for position-independent images.
	LinkBase uint32

	region flash.Region
	// manifestArea and trailerOff are derived layout offsets.
	manifestArea int
	trailerOff   int
}

// New creates a slot over region. The region must fit at least the
// manifest page, one firmware sector, and the trailer page.
func New(name string, region flash.Region, kind Kind, linkBase uint32) (*Slot, error) {
	geo := region.Mem.Geometry()
	manifestArea := (manifest.EncodedSize + geo.PageSize - 1) / geo.PageSize * geo.PageSize
	trailerOff := region.Length - geo.PageSize
	if trailerOff <= manifestArea {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooSmall, region.Length)
	}
	return &Slot{
		Name:         name,
		Kind:         kind,
		LinkBase:     linkBase,
		region:       region,
		manifestArea: manifestArea,
		trailerOff:   trailerOff,
	}, nil
}

// Capacity is the maximum firmware size the slot can hold.
func (s *Slot) Capacity() int { return s.trailerOff - s.manifestArea }

// Region exposes the underlying flash region (for the device memory map).
func (s *Slot) Region() flash.Region { return s.region }

// Sectors reports the number of erase sectors the slot spans.
func (s *Slot) Sectors() int { return s.region.Sectors() }

// State reads the slot state from the trailer. A trailer without the
// magic is reported as StateEmpty if erased, StateInvalid otherwise
// (garbage from a previous layout must never look like an image).
func (s *Slot) State() (State, error) {
	var buf [5]byte
	if err := s.region.ReadAt(s.trailerOff, buf[:]); err != nil {
		return StateInvalid, err
	}
	magic := binary.BigEndian.Uint32(buf[:4])
	switch magic {
	case trailerMagic:
		st := State(buf[4])
		switch st {
		case StateReceiving, StateComplete, StateConfirmed, StateInvalid:
			return st, nil
		default:
			// A torn trailer write: treat as invalid.
			return StateInvalid, nil
		}
	case 0xFFFFFFFF:
		return StateEmpty, nil
	default:
		return StateInvalid, nil
	}
}

// setState programs the trailer. Transitions must only clear bits.
func (s *Slot) setState(st State) error {
	var buf [5]byte
	binary.BigEndian.PutUint32(buf[:4], trailerMagic)
	buf[4] = byte(st)
	if err := s.region.ProgramAt(s.trailerOff, buf[:]); err != nil {
		return fmt.Errorf("slot %s: set state %v: %w", s.Name, st, err)
	}
	return nil
}

// Erase wipes the slot entirely.
func (s *Slot) Erase() error {
	if err := s.region.Erase(); err != nil {
		return fmt.Errorf("slot %s: erase: %w", s.Name, err)
	}
	return nil
}

// BeginReceive erases the slot and marks it Receiving. It returns a
// Writer positioned at the firmware area.
func (s *Slot) BeginReceive() (*Writer, error) {
	if err := s.Erase(); err != nil {
		return nil, err
	}
	if err := s.setState(StateReceiving); err != nil {
		return nil, err
	}
	return &Writer{slot: s}, nil
}

// ResumeReceive returns a Writer positioned pos bytes into the
// firmware area of a slot that is already Receiving — the reception
// journal's resume path after a power loss. Unlike BeginReceive it
// erases nothing: the bytes up to pos are the durable prefix the
// journal vouches for, and the resumed stream may legally re-program
// identical bytes beyond pos (NOR programming is idempotent for equal
// data).
func (s *Slot) ResumeReceive(pos int) (*Writer, error) {
	st, err := s.State()
	if err != nil {
		return nil, err
	}
	if st != StateReceiving {
		return nil, fmt.Errorf("%w: resume receive in state %v", ErrBadTransition, st)
	}
	if pos < 0 || pos > s.Capacity() {
		return nil, fmt.Errorf("%w: resume at %d of %d", ErrImageTooLarge, pos, s.Capacity())
	}
	return &Writer{slot: s, pos: pos}, nil
}

// WriteManifest programs the encoded manifest into the manifest area.
// The slot must be Receiving.
func (s *Slot) WriteManifest(m *manifest.Manifest) error {
	st, err := s.State()
	if err != nil {
		return err
	}
	if st != StateReceiving {
		return fmt.Errorf("%w: write manifest in state %v", ErrBadTransition, st)
	}
	enc, err := m.MarshalBinary()
	if err != nil {
		return fmt.Errorf("slot %s: encode manifest: %w", s.Name, err)
	}
	if err := s.region.ProgramAt(0, enc); err != nil {
		return fmt.Errorf("slot %s: write manifest: %w", s.Name, err)
	}
	return nil
}

// Manifest reads and decodes the manifest stored in the slot.
func (s *Slot) Manifest() (*manifest.Manifest, error) {
	buf := make([]byte, manifest.EncodedSize)
	if err := s.region.ReadAt(0, buf); err != nil {
		return nil, err
	}
	m, err := manifest.Unmarshal(buf)
	if err != nil {
		return nil, fmt.Errorf("slot %s: %w", s.Name, err)
	}
	return m, nil
}

// MarkComplete transitions Receiving → Complete after the agent's
// digest verification.
func (s *Slot) MarkComplete() error {
	return s.transition(StateReceiving, StateComplete)
}

// MarkConfirmed transitions Complete → Confirmed after the bootloader
// verified and booted the image.
func (s *Slot) MarkConfirmed() error {
	return s.transition(StateComplete, StateConfirmed)
}

// Invalidate marks the slot Invalid from any state.
func (s *Slot) Invalidate() error {
	return s.setState(StateInvalid)
}

func (s *Slot) transition(from, to State) error {
	st, err := s.State()
	if err != nil {
		return err
	}
	if st != from {
		return fmt.Errorf("%w: %v -> %v (slot is %v)", ErrBadTransition, from, to, st)
	}
	return s.setState(to)
}

// Version reports the image version, or 0 if the slot has no complete
// image.
func (s *Slot) Version() uint16 {
	st, err := s.State()
	if err != nil || !st.HasImage() {
		return 0
	}
	m, err := s.Manifest()
	if err != nil {
		return 0
	}
	return m.Version
}

// FirmwareReader returns a reader over the firmware area, bounded to
// the size recorded in the manifest.
func (s *Slot) FirmwareReader() (*Reader, error) {
	m, err := s.Manifest()
	if err != nil {
		return nil, err
	}
	if int(m.Size) > s.Capacity() {
		return nil, fmt.Errorf("%w: manifest claims %d bytes, capacity %d", ErrImageTooLarge, m.Size, s.Capacity())
	}
	return &Reader{slot: s, size: int(m.Size)}, nil
}

// Writer appends firmware bytes sequentially into the firmware area.
type Writer struct {
	slot *Slot
	pos  int
}

// Write programs p at the current firmware position.
func (w *Writer) Write(p []byte) (int, error) {
	if w.pos+len(p) > w.slot.Capacity() {
		return 0, fmt.Errorf("%w: write to %d of %d", ErrImageTooLarge, w.pos+len(p), w.slot.Capacity())
	}
	if err := w.slot.region.ProgramAt(w.slot.manifestArea+w.pos, p); err != nil {
		return 0, err
	}
	w.pos += len(p)
	return len(p), nil
}

// Written reports how many firmware bytes have been written.
func (w *Writer) Written() int { return w.pos }

// Reader reads firmware bytes; it implements io.Reader and io.ReaderAt
// (the latter is what the bspatch stage uses for old-image access), and
// io.WriterTo, so that io.Copy — the verifier's digest — streams it
// through a pooled buffer instead of allocating one per copy.
type Reader struct {
	slot *Slot
	size int
	pos  int
}

var _ io.WriterTo = (*Reader)(nil)

// sectorBufs holds the read buffers of Reader.WriteTo, one flash sector
// each.
var sectorBufs sync.Pool

// WriteTo implements io.WriterTo: it writes the rest of the firmware to
// w one sector-sized read at a time. Every chunk but the last is a whole
// number of pages, so the reads are charged exactly the pages io.Copy's
// own buffer would have been.
func (r *Reader) WriteTo(w io.Writer) (int64, error) {
	sector := r.slot.region.Mem.Geometry().SectorSize
	bp, _ := sectorBufs.Get().(*[]byte)
	if bp == nil || len(*bp) < sector {
		b := make([]byte, sector)
		bp = &b
	}
	defer sectorBufs.Put(bp)
	buf := (*bp)[:sector]
	var total int64
	for r.pos < r.size {
		n, err := r.Read(buf)
		if err != nil {
			return total, err
		}
		m, err := w.Write(buf[:n])
		total += int64(m)
		if err != nil {
			return total, err
		}
		if m != n {
			return total, io.ErrShortWrite
		}
	}
	return total, nil
}

// Size reports the firmware size from the manifest.
func (r *Reader) Size() int { return r.size }

// Read implements io.Reader over the firmware area.
func (r *Reader) Read(p []byte) (int, error) {
	if r.pos >= r.size {
		return 0, io.EOF
	}
	n := min(len(p), r.size-r.pos)
	if err := r.slot.region.ReadAt(r.slot.manifestArea+r.pos, p[:n]); err != nil {
		return 0, err
	}
	r.pos += n
	return n, nil
}

// ReadAt implements io.ReaderAt over the firmware area.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(r.size) {
		return 0, io.EOF
	}
	n := min(len(p), r.size-int(off))
	if err := r.slot.region.ReadAt(r.slot.manifestArea+int(off), p[:n]); err != nil {
		return 0, err
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
