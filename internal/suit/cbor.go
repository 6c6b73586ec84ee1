// Package suit implements UpKit's planned interoperation with the IETF
// SUIT manifest standard (§VIII: "Future work includes ... the support
// of the upcoming IETF SUIT standard, in order to allow inter-operation
// with a larger range of IoT solutions").
//
// It provides a minimal CBOR codec (the RFC 8949 subset SUIT needs) and
// an exporter/importer between UpKit manifests and SUIT-shaped
// envelopes modelled on draft-ietf-suit-manifest: a CBOR map with an
// authentication wrapper (COSE_Sign1-shaped) and a manifest carrying
// sequence number, component identifier, image digest, and size.
//
// Scope note: the envelope layout follows the draft's structure and key
// numbering so that SUIT-aware tooling can parse the skeleton, but the
// authentication wrapper signs the manifest digest directly rather than
// the full COSE Sig_structure; see envelope.go for the exact contract.
package suit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// CBOR major types (RFC 8949 §3.1).
const (
	majorUint  = 0
	majorNint  = 1
	majorBytes = 2
	majorText  = 3
	majorArray = 4
	majorMap   = 5
	majorTag   = 6
	majorOther = 7
)

// CBOR decode errors.
var (
	ErrCBORTruncated   = errors.New("suit: truncated cbor")
	ErrCBORUnsupported = errors.New("suit: unsupported cbor item")
	ErrCBORType        = errors.New("suit: unexpected cbor type")
)

// cborEncoder appends CBOR items to a buffer.
type cborEncoder struct {
	buf []byte
}

// head appends the type/argument header.
func (e *cborEncoder) head(major byte, arg uint64) {
	switch {
	case arg < 24:
		e.buf = append(e.buf, major<<5|byte(arg))
	case arg <= math.MaxUint8:
		e.buf = append(e.buf, major<<5|24, byte(arg))
	case arg <= math.MaxUint16:
		e.buf = append(e.buf, major<<5|25)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(arg))
	case arg <= math.MaxUint32:
		e.buf = append(e.buf, major<<5|26)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(arg))
	default:
		e.buf = append(e.buf, major<<5|27)
		e.buf = binary.BigEndian.AppendUint64(e.buf, arg)
	}
}

func (e *cborEncoder) Uint(v uint64) { e.head(majorUint, v) }
func (e *cborEncoder) Bytes(b []byte) {
	e.head(majorBytes, uint64(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *cborEncoder) Array(n int) { e.head(majorArray, uint64(n)) }
func (e *cborEncoder) Map(n int)   { e.head(majorMap, uint64(n)) }
func (e *cborEncoder) Null()       { e.buf = append(e.buf, majorOther<<5|22) }

// Int encodes a possibly negative integer.
func (e *cborEncoder) Int(v int64) {
	if v >= 0 {
		e.head(majorUint, uint64(v))
	} else {
		e.head(majorNint, uint64(-v-1))
	}
}

// cborDecoder reads CBOR items from a buffer.
type cborDecoder struct {
	buf []byte
	pos int
}

// head reads a type/argument header.
func (d *cborDecoder) head() (major byte, arg uint64, err error) {
	if d.pos >= len(d.buf) {
		return 0, 0, ErrCBORTruncated
	}
	b := d.buf[d.pos]
	d.pos++
	major = b >> 5
	info := b & 0x1F
	switch {
	case info < 24:
		return major, uint64(info), nil
	case info == 24:
		if d.pos+1 > len(d.buf) {
			return 0, 0, ErrCBORTruncated
		}
		arg = uint64(d.buf[d.pos])
		d.pos++
	case info == 25:
		if d.pos+2 > len(d.buf) {
			return 0, 0, ErrCBORTruncated
		}
		arg = uint64(binary.BigEndian.Uint16(d.buf[d.pos:]))
		d.pos += 2
	case info == 26:
		if d.pos+4 > len(d.buf) {
			return 0, 0, ErrCBORTruncated
		}
		arg = uint64(binary.BigEndian.Uint32(d.buf[d.pos:]))
		d.pos += 4
	case info == 27:
		if d.pos+8 > len(d.buf) {
			return 0, 0, ErrCBORTruncated
		}
		arg = binary.BigEndian.Uint64(d.buf[d.pos:])
		d.pos += 8
	default:
		return 0, 0, fmt.Errorf("%w: additional info %d", ErrCBORUnsupported, info)
	}
	return major, arg, nil
}

// Uint reads an unsigned integer.
func (d *cborDecoder) Uint() (uint64, error) {
	major, arg, err := d.head()
	if err != nil {
		return 0, err
	}
	if major != majorUint {
		return 0, fmt.Errorf("%w: major %d, want uint", ErrCBORType, major)
	}
	return arg, nil
}

// Int reads a signed integer.
func (d *cborDecoder) Int() (int64, error) {
	major, arg, err := d.head()
	if err != nil {
		return 0, err
	}
	switch major {
	case majorUint:
		if arg > math.MaxInt64 {
			return 0, fmt.Errorf("%w: uint overflows int64", ErrCBORUnsupported)
		}
		return int64(arg), nil
	case majorNint:
		if arg > math.MaxInt64-1 {
			return 0, fmt.Errorf("%w: nint overflows int64", ErrCBORUnsupported)
		}
		return -int64(arg) - 1, nil
	default:
		return 0, fmt.Errorf("%w: major %d, want int", ErrCBORType, major)
	}
}

// Bytes reads a byte string.
func (d *cborDecoder) Bytes() ([]byte, error) {
	major, arg, err := d.head()
	if err != nil {
		return nil, err
	}
	if major != majorBytes {
		return nil, fmt.Errorf("%w: major %d, want bstr", ErrCBORType, major)
	}
	if arg > uint64(len(d.buf)-d.pos) {
		return nil, ErrCBORTruncated
	}
	out := make([]byte, arg)
	copy(out, d.buf[d.pos:])
	d.pos += int(arg)
	return out, nil
}

// Array reads an array header and returns its length.
func (d *cborDecoder) Array() (int, error) {
	major, arg, err := d.head()
	if err != nil {
		return 0, err
	}
	if major != majorArray {
		return 0, fmt.Errorf("%w: major %d, want array", ErrCBORType, major)
	}
	if arg > uint64(len(d.buf)-d.pos) {
		return 0, ErrCBORTruncated // each element needs >= 1 byte
	}
	return int(arg), nil
}

// Map reads a map header and returns its pair count.
func (d *cborDecoder) Map() (int, error) {
	major, arg, err := d.head()
	if err != nil {
		return 0, err
	}
	if major != majorMap {
		return 0, fmt.Errorf("%w: major %d, want map", ErrCBORType, major)
	}
	if arg > uint64(len(d.buf)-d.pos)/2 {
		return 0, ErrCBORTruncated // each pair needs >= 2 bytes
	}
	return int(arg), nil
}

// Null consumes a null item.
func (d *cborDecoder) Null() error {
	if d.pos >= len(d.buf) {
		return ErrCBORTruncated
	}
	if d.buf[d.pos] != majorOther<<5|22 {
		return fmt.Errorf("%w: want null", ErrCBORType)
	}
	d.pos++
	return nil
}

// Skip consumes one item of any supported type (recursively).
func (d *cborDecoder) Skip() error {
	major, arg, err := d.head()
	if err != nil {
		return err
	}
	switch major {
	case majorUint, majorNint, majorOther:
		return nil
	case majorBytes, majorText:
		if arg > uint64(len(d.buf)-d.pos) {
			return ErrCBORTruncated
		}
		d.pos += int(arg)
		return nil
	case majorArray:
		for range arg {
			if err := d.Skip(); err != nil {
				return err
			}
		}
		return nil
	case majorMap:
		for range 2 * arg {
			if err := d.Skip(); err != nil {
				return err
			}
		}
		return nil
	case majorTag:
		return d.Skip()
	default:
		return fmt.Errorf("%w: major %d", ErrCBORUnsupported, major)
	}
}
