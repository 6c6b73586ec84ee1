// Package coap implements the subset of the Constrained Application
// Protocol (RFC 7252) plus blockwise transfer (RFC 7959) that UpKit's
// pull interface needs: CON/ACK exchanges, Uri-Path/Uri-Query options,
// and Block2 transfers for the update image. The paper's pull
// implementations sit on each OS's CoAP library (Zoap, libcoap,
// er-coap); here a single codec plays that role.
package coap

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Version is the only CoAP protocol version (RFC 7252 §3).
const Version = 1

// Type is the CoAP message type.
type Type uint8

// Message types.
const (
	Confirmable     Type = 0
	NonConfirmable  Type = 1
	Acknowledgement Type = 2
	Reset           Type = 3
)

// Code is a CoAP method or response code (class.detail packed in a
// byte, RFC 7252 §12.1).
type Code uint8

// Method and response codes used by UpKit.
const (
	CodeEmpty    Code = 0
	CodeGET      Code = 1
	CodePOST     Code = 2
	CodeContent  Code = 0x45 // 2.05
	CodeChanged  Code = 0x44 // 2.04
	CodeBadReq   Code = 0x80 // 4.00
	CodeNotFound Code = 0x84 // 4.04
	CodeIntErr   Code = 0xA0 // 5.00
)

// Class returns the code class (0 request, 2 success, 4/5 error).
func (c Code) Class() uint8 { return uint8(c) >> 5 }

// String renders the dotted code notation ("2.05").
func (c Code) String() string { return fmt.Sprintf("%d.%02d", c.Class(), uint8(c)&0x1F) }

// Option numbers used by UpKit.
const (
	OptUriPath  uint16 = 11
	OptUriQuery uint16 = 15
	OptBlock2   uint16 = 23
	OptBlock1   uint16 = 27
	OptSize2    uint16 = 28
)

// Option is one CoAP option instance.
type Option struct {
	Number uint16
	Value  []byte
}

// Codec errors.
var (
	ErrTruncatedMessage = errors.New("coap: truncated message")
	ErrBadVersion       = errors.New("coap: bad protocol version")
	ErrBadToken         = errors.New("coap: token longer than 8 bytes")
	ErrBadOption        = errors.New("coap: malformed option")
)

// Message is one CoAP message.
type Message struct {
	Type      Type
	Code      Code
	MessageID uint16
	Token     []byte
	Options   []Option
	Payload   []byte
}

// AddOption appends an option.
func (m *Message) AddOption(number uint16, value []byte) {
	m.Options = append(m.Options, Option{Number: number, Value: value})
}

// Option returns the first option with the given number.
func (m *Message) Option(number uint16) ([]byte, bool) {
	for _, o := range m.Options {
		if o.Number == number {
			return o.Value, true
		}
	}
	return nil, false
}

// SetPath adds Uri-Path options for each segment of path.
func (m *Message) SetPath(path string) {
	for _, seg := range strings.Split(strings.Trim(path, "/"), "/") {
		if seg != "" {
			m.AddOption(OptUriPath, []byte(seg))
		}
	}
}

// Path joins the Uri-Path options back into "/a/b" form.
func (m *Message) Path() string {
	var segs []string
	for _, o := range m.Options {
		if o.Number == OptUriPath {
			segs = append(segs, string(o.Value))
		}
	}
	return "/" + strings.Join(segs, "/")
}

// PathIs reports whether Path() == path without building that string:
// each Uri-Path option must spell the next "/segment" of path. Request
// routing asks this several times per message.
func (m *Message) PathIs(path string) bool {
	rest, segments := path, 0
	for _, o := range m.Options {
		if o.Number != OptUriPath {
			continue
		}
		n := 1 + len(o.Value)
		if len(rest) < n || rest[0] != '/' || rest[1:n] != string(o.Value) {
			return false
		}
		rest = rest[n:]
		segments++
	}
	if segments == 0 {
		return path == "/"
	}
	return rest == ""
}

// Query returns the first Uri-Query option with prefix "key=".
func (m *Message) Query(key string) (string, bool) {
	v, ok := m.query(key)
	return string(v), ok
}

// query is Query without the string: the value aliases the option, for
// the handlers that parse it where it lies.
func (m *Message) query(key string) ([]byte, bool) {
	for _, o := range m.Options {
		v := o.Value
		if o.Number == OptUriQuery && len(v) > len(key) && v[len(key)] == '=' && string(v[:len(key)]) == key {
			return v[len(key)+1:], true
		}
	}
	return nil, false
}

// Marshal encodes the message per RFC 7252 §3 into a fresh datagram.
func (m *Message) Marshal() ([]byte, error) { return m.AppendTo(nil) }

// AppendTo appends the RFC 7252 §3 encoding of the message to buf and
// returns the extended slice, growing buf at most once. It is the one
// encoder: an exchanger that owns its datagram passes that buffer's
// [:0] and allocates nothing.
func (m *Message) AppendTo(buf []byte) ([]byte, error) {
	if len(m.Token) > 8 {
		return nil, ErrBadToken
	}
	// Options travel in ascending number order. Every builder in the
	// tree adds them that way, so sorting (a copy, stably) is the
	// exception.
	opts := m.Options
	byNumber := func(a, b Option) int { return cmp.Compare(a.Number, b.Number) }
	if !slices.IsSortedFunc(opts, byNumber) {
		opts = slices.Clone(opts)
		slices.SortStableFunc(opts, byNumber)
	}
	size := 4 + len(m.Token) + 1 + len(m.Payload)
	for _, o := range opts {
		size += 5 + len(o.Value) // header byte + two 2-byte extensions
	}
	if cap(buf)-len(buf) < size {
		buf = append(make([]byte, 0, len(buf)+size), buf...)
	}
	buf = append(buf, Version<<6|byte(m.Type)<<4|byte(len(m.Token)))
	buf = append(buf, byte(m.Code))
	buf = binary.BigEndian.AppendUint16(buf, m.MessageID)
	buf = append(buf, m.Token...)

	var prev uint16
	for _, o := range opts {
		delta := int(o.Number) - int(prev)
		prev = o.Number
		buf = appendOptionHeader(buf, delta, len(o.Value))
		buf = append(buf, o.Value...)
	}
	if len(m.Payload) > 0 {
		buf = append(buf, 0xFF)
		buf = append(buf, m.Payload...)
	}
	return buf, nil
}

// appendOptionHeader encodes the delta/length nibbles with 13/14
// extensions (RFC 7252 §3.1).
func appendOptionHeader(buf []byte, delta, length int) []byte {
	dn, ln := nibble(delta), nibble(length)
	buf = append(buf, dn<<4|ln)
	buf = appendExt(buf, dn, delta)
	return appendExt(buf, ln, length)
}

// nibble returns the 4-bit encoding of v: the value itself, or 13/14
// announcing a one- or two-byte extension.
func nibble(v int) byte {
	switch {
	case v < 13:
		return byte(v)
	case v < 269:
		return 13
	default:
		return 14
	}
}

// appendExt appends the extension bytes nibble nib announces for v.
func appendExt(buf []byte, nib byte, v int) []byte {
	switch nib {
	case 13:
		return append(buf, byte(v-13))
	case 14:
		return binary.BigEndian.AppendUint16(buf, uint16(v-269))
	default:
		return buf
	}
}

// Unmarshal decodes a message per RFC 7252 §3. The message never
// aliases data: token, option values and payload are sub-slices of one
// private copy of the datagram.
func Unmarshal(data []byte) (*Message, error) {
	m := new(Message)
	if err := m.decode(slices.Clone(data)); err != nil {
		return nil, err
	}
	return m, nil
}

// decode is the one decoder. It overwrites every field of m with the
// message in data, in place: token, option values and payload are
// sub-slices of data, each with its capacity capped at its length so
// that appending to one field cannot reach the next, and the options
// reuse the array m.Options already has. Whatever m held before leaves
// no trace — the result equals a fresh Unmarshal of the same bytes — so
// an exchanger that owns both data and m decodes without allocating. On
// error m is unspecified.
func (m *Message) decode(data []byte) error {
	opts := m.Options[:0]
	*m = Message{}
	if len(data) < 4 {
		return ErrTruncatedMessage
	}
	if data[0]>>6 != Version {
		return ErrBadVersion
	}
	tkl := int(data[0] & 0x0F)
	if tkl > 8 {
		return ErrBadToken
	}
	m.Type = Type(data[0] >> 4 & 0x3)
	m.Code = Code(data[1])
	m.MessageID = binary.BigEndian.Uint16(data[2:4])
	pos := 4
	if len(data) < pos+tkl {
		return ErrTruncatedMessage
	}
	if tkl > 0 {
		m.Token = data[pos : pos+tkl : pos+tkl]
	}
	pos += tkl

	var prev uint16
	for pos < len(data) {
		if data[pos] == 0xFF {
			pos++
			if pos == len(data) {
				return fmt.Errorf("%w: empty payload after marker", ErrTruncatedMessage)
			}
			m.Payload = data[pos:len(data):len(data)]
			break
		}
		dn := int(data[pos] >> 4)
		ln := int(data[pos] & 0x0F)
		pos++
		delta, n, err := readExt(data, pos, dn)
		if err != nil {
			return err
		}
		pos += n
		length, n, err := readExt(data, pos, ln)
		if err != nil {
			return err
		}
		pos += n
		if pos+length > len(data) {
			return ErrTruncatedMessage
		}
		prev += uint16(delta)
		if cap(opts) == 0 {
			// The UpKit requests carry four options (two path segments,
			// query, Block2); one allocation covers them.
			opts = make([]Option, 0, 4)
		}
		opts = append(opts, Option{Number: prev, Value: data[pos : pos+length : pos+length]})
		pos += length
	}
	if len(opts) > 0 {
		m.Options = opts
	}
	return nil
}

// readExt decodes a 13/14-extended nibble at data[pos:].
func readExt(data []byte, pos, nib int) (value, consumed int, err error) {
	switch nib {
	case 15:
		return 0, 0, fmt.Errorf("%w: reserved nibble 15", ErrBadOption)
	case 14:
		if pos+2 > len(data) {
			return 0, 0, ErrTruncatedMessage
		}
		return int(binary.BigEndian.Uint16(data[pos:])) + 269, 2, nil
	case 13:
		if pos+1 > len(data) {
			return 0, 0, ErrTruncatedMessage
		}
		return int(data[pos]) + 13, 1, nil
	default:
		return nib, 0, nil
	}
}

// Block is a decoded Block1/Block2 option value (RFC 7959 §2.2).
type Block struct {
	// Num is the block number.
	Num uint32
	// More indicates further blocks follow.
	More bool
	// SZX encodes the block size as 2^(SZX+4); valid values are 0..6.
	SZX uint8
}

// Size returns the block size in bytes.
func (b Block) Size() int { return 1 << (b.SZX + 4) }

// SZXForSize returns the SZX encoding a block size (16..1024, a power
// of two).
func SZXForSize(size int) (uint8, error) {
	for szx := uint8(0); szx <= 6; szx++ {
		if 1<<(szx+4) == size {
			return szx, nil
		}
	}
	return 0, fmt.Errorf("coap: invalid block size %d", size)
}

// Marshal encodes the block option value in minimal length.
func (b Block) Marshal() []byte { return b.AppendTo(nil) }

// AppendTo appends the block option value, in minimal length (one to
// three bytes), to buf.
func (b Block) AppendTo(buf []byte) []byte {
	v := b.Num<<4 | uint32(b.SZX)
	if b.More {
		v |= 0x8
	}
	switch {
	case v < 1<<8:
		return append(buf, byte(v))
	case v < 1<<16:
		return append(buf, byte(v>>8), byte(v))
	default:
		return append(buf, byte(v>>16), byte(v>>8), byte(v))
	}
}

// ParseBlock decodes a block option value. SZX 7 is reserved by RFC
// 7959 §2.2 and rejected here, so every accepted block encodes a real
// size in 16..1024 — handlers can trust Block.Size without their own
// bounds check.
func ParseBlock(data []byte) (Block, error) {
	if len(data) > 3 {
		return Block{}, fmt.Errorf("%w: block option %d bytes", ErrBadOption, len(data))
	}
	var v uint32
	for _, b := range data {
		v = v<<8 | uint32(b)
	}
	if v&0x7 == 7 {
		return Block{}, fmt.Errorf("%w: reserved SZX 7", ErrBadOption)
	}
	return Block{Num: v >> 4, More: v&0x8 != 0, SZX: uint8(v & 0x7)}, nil
}
