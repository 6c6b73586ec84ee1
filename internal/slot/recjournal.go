package slot

import (
	"encoding/binary"
	"errors"
	"fmt"

	"upkit/internal/flash"
	"upkit/internal/manifest"
)

// ReceptionJournal is the reception-side mirror of the safeswap journal:
// a small flash region where the update agent persists the progress of
// an in-flight firmware download, so a power loss mid-transfer costs
// only the bytes since the last checkpoint instead of the whole image.
//
// It is a ring (ring.go) of sized frames: each Save programs one record
// as the next frame's payload, and the record in the valid frame with
// the highest sequence number wins on load. The payload is:
//
//	device token (10 B) | nameLen uint8 | slot name | manifest version
//	uint16 | received uint32 | pipeLen uint16 | pipeline checkpoint

// recFrameSize is the record frame granularity: one frame per sector on
// small-sector parts (CC2538), two on 4 KiB-sector parts.
const recFrameSize = 2048

// recMagic marks a programmed record frame.
const recMagic uint32 = 0x5552584A // "URXJ"

// recHeaderSize is a record frame's magic | seq | len.
const recHeaderSize = 4 + 4 + 4

// Reception journal errors.
var (
	ErrRecJournalTooSmall = errors.New("slot: reception journal needs at least two sectors")
	ErrRecRecordTooLarge  = errors.New("slot: reception record exceeds frame size")
)

// ReceptionRecord is one persisted download-progress snapshot.
type ReceptionRecord struct {
	// Token is the device token of the in-flight request; its nonce is
	// what lets the double-signature check pass again after a reboot.
	Token manifest.DeviceToken
	// SlotName names the target slot holding the partial image.
	SlotName string
	// ManifestVersion is the accepted manifest's version (a cheap
	// staleness check against the server's advertised latest).
	ManifestVersion uint16
	// Received counts the payload (wire) bytes durably consumed.
	Received int
	// Pipeline is the serialized pipeline checkpoint matching Received.
	Pipeline []byte
}

// ReceptionJournal manages the journal region. Like every ring it holds
// no durable state of its own.
type ReceptionJournal struct {
	ring
}

// NewReceptionJournal wraps region, which must span at least two
// sectors so the latest record survives the ring's sector erases.
func NewReceptionJournal(region flash.Region) (*ReceptionJournal, error) {
	if region.Sectors() < 2 {
		return nil, ErrRecJournalTooSmall
	}
	return &ReceptionJournal{newRing(ring{
		region:    region,
		name:      "reception journal",
		magic:     recMagic,
		frameSize: recFrameSize,
		sized:     true,
		valid:     func(p []byte) bool { _, err := decodeReceptionRecord(p); return err == nil },
	})}, nil
}

// ReceptionPending reports whether region holds a valid reception
// record — the bootloader's cue to preserve a Receiving slot across a
// reboot instead of invalidating it. Read errors report false: an
// unreadable journal must never keep a bad image alive.
func ReceptionPending(region flash.Region) bool {
	j, err := NewReceptionJournal(region)
	if err != nil {
		return false
	}
	rec, err := j.Load()
	return err == nil && rec != nil
}

// Load returns the latest valid record, or nil if the journal holds
// none.
func (j *ReceptionJournal) Load() (*ReceptionRecord, error) {
	payload := j.scan()
	if payload == nil {
		return nil, nil
	}
	return decodeReceptionRecord(payload)
}

// Save persists rec as the new latest record. On success earlier
// records are superseded (not erased — the ring reclaims them lazily).
func (j *ReceptionJournal) Save(rec *ReceptionRecord) error {
	payload, err := encodeReceptionRecord(rec)
	if err != nil {
		return err
	}
	if n := recHeaderSize + len(payload) + 4; n > j.frameSize {
		return fmt.Errorf("%w: %d > %d bytes", ErrRecRecordTooLarge, n, j.frameSize)
	}
	return j.write(payload)
}

// Invalidate discards all records, erasing only sectors that are not
// already blank (the common post-update case costs zero erases).
func (j *ReceptionJournal) Invalidate() error {
	return invalidateRing(&j.ring)
}

// encodeReceptionRecord renders the record payload.
func encodeReceptionRecord(rec *ReceptionRecord) ([]byte, error) {
	if len(rec.SlotName) > 255 {
		return nil, fmt.Errorf("slot: reception record: slot name %q too long", rec.SlotName)
	}
	if rec.Received < 0 {
		return nil, fmt.Errorf("slot: reception record: negative received count")
	}
	tok, err := rec.Token.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := append(tok, byte(len(rec.SlotName)))
	buf = append(buf, rec.SlotName...)
	buf = binary.BigEndian.AppendUint16(buf, rec.ManifestVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(rec.Received))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(rec.Pipeline)))
	buf = append(buf, rec.Pipeline...)
	return buf, nil
}

// decodeReceptionRecord parses the record payload.
func decodeReceptionRecord(buf []byte) (*ReceptionRecord, error) {
	rec := &ReceptionRecord{}
	if len(buf) < manifest.TokenEncodedSize+1 {
		return nil, errors.New("slot: reception record truncated")
	}
	if err := rec.Token.UnmarshalBinary(buf[:manifest.TokenEncodedSize]); err != nil {
		return nil, err
	}
	p, nameLen := manifest.TokenEncodedSize+1, int(buf[manifest.TokenEncodedSize])
	if p+nameLen+2+4+2 > len(buf) {
		return nil, errors.New("slot: reception record truncated")
	}
	rec.SlotName = string(buf[p : p+nameLen])
	rest := buf[p+nameLen:] // version u16 | received u32 | pipeLen u16 | pipeline
	rec.ManifestVersion = binary.BigEndian.Uint16(rest)
	rec.Received = int(binary.BigEndian.Uint32(rest[2:]))
	if 2+4+2+int(binary.BigEndian.Uint16(rest[6:])) != len(rest) {
		return nil, errors.New("slot: reception record length mismatch")
	}
	rec.Pipeline = append([]byte(nil), rest[2+4+2:]...)
	return rec, nil
}
