package coap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The codec as it stood before it stopped producing per-message
// garbage — Marshal copying and reflect-sorting the options on every
// call, Unmarshal cloning every field separately — kept as the
// reference the wire format is held to: same bytes out, same message
// in.

func referenceMarshal(m *Message) ([]byte, error) {
	if len(m.Token) > 8 {
		return nil, ErrBadToken
	}
	buf := make([]byte, 0, 4+len(m.Token)+len(m.Payload)+4*len(m.Options))
	buf = append(buf, Version<<6|byte(m.Type)<<4|byte(len(m.Token)))
	buf = append(buf, byte(m.Code))
	buf = binary.BigEndian.AppendUint16(buf, m.MessageID)
	buf = append(buf, m.Token...)

	opts := make([]Option, len(m.Options))
	copy(opts, m.Options)
	sort.SliceStable(opts, func(i, j int) bool { return opts[i].Number < opts[j].Number })

	referenceNibble := func(v int) (byte, []byte) {
		switch {
		case v < 13:
			return byte(v), nil
		case v < 269:
			return 13, []byte{byte(v - 13)}
		default:
			ext := make([]byte, 2)
			binary.BigEndian.PutUint16(ext, uint16(v-269))
			return 14, ext
		}
	}
	var prev uint16
	for _, o := range opts {
		dn, dext := referenceNibble(int(o.Number) - int(prev))
		ln, lext := referenceNibble(len(o.Value))
		prev = o.Number
		buf = append(buf, dn<<4|ln)
		buf = append(buf, dext...)
		buf = append(buf, lext...)
		buf = append(buf, o.Value...)
	}
	if len(m.Payload) > 0 {
		buf = append(buf, 0xFF)
		buf = append(buf, m.Payload...)
	}
	return buf, nil
}

func referenceUnmarshal(data []byte) (*Message, error) {
	if len(data) < 4 {
		return nil, ErrTruncatedMessage
	}
	if data[0]>>6 != Version {
		return nil, ErrBadVersion
	}
	tkl := int(data[0] & 0x0F)
	if tkl > 8 {
		return nil, ErrBadToken
	}
	m := &Message{
		Type:      Type(data[0] >> 4 & 0x3),
		Code:      Code(data[1]),
		MessageID: binary.BigEndian.Uint16(data[2:4]),
	}
	pos := 4
	if len(data) < pos+tkl {
		return nil, ErrTruncatedMessage
	}
	if tkl > 0 {
		m.Token = append([]byte{}, data[pos:pos+tkl]...)
	}
	pos += tkl

	var prev uint16
	for pos < len(data) {
		if data[pos] == 0xFF {
			pos++
			if pos == len(data) {
				return nil, fmt.Errorf("%w: empty payload after marker", ErrTruncatedMessage)
			}
			m.Payload = append([]byte{}, data[pos:]...)
			return m, nil
		}
		dn := int(data[pos] >> 4)
		ln := int(data[pos] & 0x0F)
		pos++
		delta, n, err := readExt(data, pos, dn)
		if err != nil {
			return nil, err
		}
		pos += n
		length, n, err := readExt(data, pos, ln)
		if err != nil {
			return nil, err
		}
		pos += n
		if pos+length > len(data) {
			return nil, ErrTruncatedMessage
		}
		prev += uint16(delta)
		m.Options = append(m.Options, Option{
			Number: prev,
			Value:  append([]byte{}, data[pos:pos+length]...),
		})
		pos += length
	}
	return m, nil
}

// randomMessage draws a message whose options are ascending (as every
// builder in the tree adds them), shuffled, or full of repeats, with
// values long enough to need both extension sizes.
func randomMessage(rng *rand.Rand) *Message {
	m := &Message{
		Type:      Type(rng.Intn(4)),
		Code:      Code(rng.Intn(256)),
		MessageID: uint16(rng.Intn(1 << 16)),
	}
	if n := rng.Intn(10); n > 0 { // 9 is one too long
		m.Token = make([]byte, n)
		rng.Read(m.Token)
	}
	segments := []string{"upkit", "blocks", "image", "", "a/b", "version"}
	for i, n := 0, rng.Intn(7); i < n; i++ {
		var number uint16
		var value []byte
		switch rng.Intn(4) {
		case 0:
			number, value = OptUriPath, []byte(segments[rng.Intn(len(segments))])
		case 1:
			number = uint16(rng.Intn(40))
		default:
			number = uint16(rng.Intn(1 << 16))
		}
		if value == nil {
			value = make([]byte, []int{0, 1, 12, 13, 268, 269, 700}[rng.Intn(7)])
			rng.Read(value)
		}
		m.AddOption(number, value)
	}
	if rng.Intn(3) == 0 {
		sort.SliceStable(m.Options, func(i, j int) bool { return m.Options[i].Number < m.Options[j].Number })
	}
	if rng.Intn(2) == 0 {
		m.Payload = make([]byte, 1+rng.Intn(128))
		rng.Read(m.Payload)
	}
	return m
}

func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 5000; i++ {
		m := randomMessage(rng)
		before := append([]Option(nil), m.Options...)
		want, wantErr := referenceMarshal(m)
		got, err := m.Marshal()
		if !reflect.DeepEqual(m.Options, before) {
			t.Fatalf("message %d: Marshal reordered the caller's options", i)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
			t.Fatalf("message %d: Marshal = %x, %v; reference %x, %v", i, got, err, want, wantErr)
		}
		if err != nil {
			continue
		}
		// Decode the wire bytes, and a truncation and a corruption of
		// them, with both decoders.
		for _, wire := range [][]byte{want, want[:rng.Intn(len(want)+1)], flipByte(rng, want)} {
			wantMsg, wantErr := referenceUnmarshal(wire)
			gotMsg, err := Unmarshal(wire)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotMsg, wantMsg) {
				t.Fatalf("message %d: Unmarshal(%x) = %+v, %v; reference %+v, %v", i, wire, gotMsg, err, wantMsg, wantErr)
			}
			if err == nil {
				if p := gotMsg.Path(); !gotMsg.PathIs(p) || gotMsg.PathIs(p+"/") || gotMsg.PathIs(p[:len(p)-1]) {
					t.Fatalf("message %d: PathIs disagrees with Path() = %q", i, p)
				}
				for _, p := range []string{PathBlocks, PathImage, "/", "/upkit", "/a/b", "//blocks", ""} {
					if gotMsg.PathIs(p) != (gotMsg.Path() == p) {
						t.Fatalf("message %d: PathIs(%q) = %v with Path() = %q", i, p, gotMsg.PathIs(p), gotMsg.Path())
					}
				}
			}
		}
	}
}

func flipByte(rng *rand.Rand, b []byte) []byte {
	out := bytes.Clone(b)
	out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
	return out
}

// TestUnmarshalFieldsAreIsolated pins the two properties the shared
// backing copy must keep: a decoded message never aliases the datagram
// it was decoded from, and growing one field cannot overwrite the next.
func TestUnmarshalFieldsAreIsolated(t *testing.T) {
	m := &Message{Type: Confirmable, Code: CodeGET, MessageID: 9, Token: []byte{1, 2, 3}, Payload: []byte("payload")}
	m.SetPath(PathImage)
	m.AddOption(OptUriQuery, []byte("d=1"))
	m.AddOption(OptBlock2, nil)
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 0xAA // the caller reuses its receive buffer
	}
	want, err := referenceUnmarshal(must(m.Marshal()))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("message changed with the caller's buffer: %+v", got)
	}

	got.Token = append(got.Token, 0xEE, 0xEE, 0xEE, 0xEE)
	for i := range got.Options {
		got.Options[i].Value = append(got.Options[i].Value, 0xEE, 0xEE, 0xEE, 0xEE)
	}
	got.Payload = append(got.Payload, 0xEE)
	for i, o := range want.Options {
		if !bytes.Equal(got.Options[i].Value[:len(o.Value)], o.Value) {
			t.Fatalf("option %d overwritten by an append to its neighbour: %q", i, got.Options[i].Value)
		}
	}
	if !bytes.Equal(got.Payload[:len(want.Payload)], want.Payload) || !bytes.Equal(got.Token[:3], want.Token) {
		t.Fatalf("token or payload overwritten: %x %q", got.Token, got.Payload)
	}
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// TestCodecAllocations pins the codec round trip of a block response —
// one allocation for the datagram, three for the decoded message (the
// struct, the private copy, the option slice); it was eight.
func TestCodecAllocations(t *testing.T) {
	resp := &Message{Type: Acknowledgement, Code: CodeContent, MessageID: 7, Token: []byte{1, 2, 3, 4}, Payload: make([]byte, 64)}
	resp.AddOption(OptBlock2, Block{Num: 9, More: true, SZX: DefaultSZX}.Marshal())
	got := testing.AllocsPerRun(200, func() {
		if _, err := Unmarshal(must(resp.Marshal())); err != nil {
			t.Fatal(err)
		}
	})
	if got > 4 {
		t.Fatalf("marshal + unmarshal: %.0f allocations, want ≤ 4", got)
	}
}
