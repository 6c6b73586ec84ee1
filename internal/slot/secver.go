package slot

import (
	"encoding/binary"
	"errors"

	"upkit/internal/flash"
)

// SecurityCounter is the device's persisted anti-rollback state: the
// highest manifest security version the device has ever accepted. The
// agent advances it *before* marking a staged image complete, so by the
// time the bootloader considers swapping, the counter already covers the
// new image — a power loss anywhere in between leaves the device either
// on the old image with the counter advanced (safe: equal-or-newer
// images still install) or on the new image, never in a state where a
// rolled-back image would be accepted.
//
// It is a ring (ring.go) of fixed 16-byte frames with magic "UPSV" whose
// 4-byte payload is the value. Unlike the reception journal it has no
// Invalidate: nothing can discard the value, so there is no rollback
// primitive.
const (
	secFrameSize = 16
	secMagic     = uint32(0x55505356) // "UPSV"
)

// ErrSecCounterTooSmall is returned when the counter region spans fewer
// than two sectors.
var ErrSecCounterTooSmall = errors.New("slot: security counter needs at least two sectors")

// SecurityCounter manages the counter region. Like every ring it holds
// no durable state of its own.
type SecurityCounter struct {
	ring
	value uint32 // the latest frame's payload, valid while scanned
}

// NewSecurityCounter wraps region, which must span at least two sectors.
func NewSecurityCounter(region flash.Region) (*SecurityCounter, error) {
	if region.Sectors() < 2 {
		return nil, ErrSecCounterTooSmall
	}
	return &SecurityCounter{ring: newRing(ring{
		region:    region,
		name:      "security counter",
		magic:     secMagic,
		frameSize: secFrameSize,
	})}, nil
}

// Value returns the persisted counter, or zero when none has ever been
// written (factory state).
func (c *SecurityCounter) Value() uint32 {
	if !c.scanned {
		c.value = 0
		if payload := c.scan(); payload != nil {
			c.value = binary.BigEndian.Uint32(payload)
		}
	}
	return c.value
}

// Advance persists v as the new counter value if it is greater than the
// current one; lower or equal values are a no-op (the counter is
// monotonic by construction). The write is durable before Advance
// returns.
func (c *SecurityCounter) Advance(v uint32) error {
	if v <= c.Value() {
		return nil
	}
	if err := c.write(binary.BigEndian.AppendUint32(nil, v)); err != nil {
		return err
	}
	c.value = v
	return nil
}
