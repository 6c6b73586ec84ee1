package coap

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The CoAP decoder faces attacker-controlled datagrams from the open
// network; it must never panic and never allocate absurdly, only return
// errors. These tests hammer it with mutated and random inputs.

func FuzzUnmarshal(f *testing.F) {
	valid := &Message{Type: Confirmable, Code: CodeGET, MessageID: 7, Token: []byte{1, 2}}
	valid.SetPath("/upkit/version")
	valid.AddOption(OptUriQuery, []byte("app=2a"))
	valid.AddOption(OptBlock2, Block{Num: 3, SZX: 2}.Marshal())
	valid.Payload = []byte("payload")
	enc, _ := valid.Marshal()
	f.Add(enc)
	f.Add([]byte{})
	f.Add([]byte{0x40, 0x01, 0x00, 0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode without panicking.
		if _, err := m.Marshal(); err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		_ = m.Path()
		_, _ = m.Query("app")
	})
}

// FuzzDecodeReuse holds the in-place codec an exchanger runs over its
// own buffers to the copying one everybody else calls: decoding
// datagram b into a message that last held datagram a gives what a
// fresh Unmarshal(b) gives, field for field and error for error, and
// AppendTo after arbitrary bytes appends exactly what Marshal returns.
func FuzzDecodeReuse(f *testing.F) {
	block := &Message{Type: Acknowledgement, Code: CodeContent, MessageID: 7, Token: []byte{1, 2}, Payload: []byte("payload")}
	block.AddOption(OptBlock2, Block{Num: 3, More: true, SZX: 2}.Marshal())
	block.AddOption(OptSize2, []byte{0, 0, 8, 0})
	request := &Message{Type: Confirmable, Code: CodeGET, MessageID: 8, Token: []byte{1, 2, 3, 4}}
	request.SetPath(PathBlocks)
	request.AddOption(OptUriQuery, []byte("b=00"))
	request.AddOption(OptBlock2, nil)
	bare := []byte{0x40, 0x84, 0x00, 0x09} // 4.04, no token, options or payload
	f.Add(must(block.Marshal()), must(request.Marshal()))
	f.Add(must(request.Marshal()), must(block.Marshal()))
	f.Add(must(request.Marshal()), bare)
	f.Add(bare, must(block.Marshal()))
	f.Add(must(block.Marshal()), []byte{0x40, 0x01, 0x00, 0x00, 0xFF})
	f.Add([]byte{0x40, 0x01, 0x00, 0x00, 0x03, 'a'}, must(block.Marshal()))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var reused Message
		_ = reused.decode(bytes.Clone(a))
		err := reused.decode(bytes.Clone(b))
		fresh, freshErr := Unmarshal(b)
		if fmt.Sprint(err) != fmt.Sprint(freshErr) {
			t.Fatalf("decode over %x: error %v, fresh Unmarshal %v", a, err, freshErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(&reused, fresh) {
			t.Fatalf("decode over %x = %+v, fresh Unmarshal %+v", a, &reused, fresh)
		}
		enc, err := fresh.Marshal()
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		got, err := fresh.AppendTo(bytes.Clone(a))
		if err != nil || !bytes.Equal(got, append(bytes.Clone(a), enc...)) {
			t.Fatalf("AppendTo(%x) = %x, %v; want the prefix then %x", a, got, err, enc)
		}
	})
}

// Property: single-byte mutations of valid messages never panic the
// decoder, and decode-re-encode-decode is stable when they do parse.
func TestQuickMutatedMessages(t *testing.T) {
	valid := &Message{Type: Confirmable, Code: CodePOST, MessageID: 99, Token: []byte{9}}
	valid.SetPath("/upkit/request")
	valid.Payload = make([]byte, 10)
	enc, err := valid.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint16, val byte) bool {
		data := append([]byte{}, enc...)
		data[int(pos)%len(data)] = val
		m, err := Unmarshal(data)
		if err != nil {
			return true
		}
		re, err := m.Marshal()
		if err != nil {
			return false
		}
		m2, err := Unmarshal(re)
		if err != nil {
			return false
		}
		return m2.Code == m.Code && m2.MessageID == m.MessageID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The UpKit pull server must answer garbage requests with error codes,
// never panic, and never corrupt its sessions.
func TestPullServerSurvivesGarbage(t *testing.T) {
	srv := NewPullServer(nil) // nil update server: worst case
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		m := &Message{
			Type:      Type(rng.Intn(4)),
			Code:      Code(rng.Intn(256)),
			MessageID: uint16(rng.Intn(65536)),
		}
		for j := 0; j < rng.Intn(4); j++ {
			val := make([]byte, rng.Intn(20))
			rng.Read(val)
			m.AddOption(uint16(rng.Intn(40)), val)
		}
		if rng.Intn(2) == 0 {
			m.Payload = make([]byte, rng.Intn(64))
			rng.Read(m.Payload)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("request %d panicked: %v", i, r)
				}
			}()
			resp := srv.Handle(m)
			if resp == nil {
				t.Fatalf("request %d: nil response", i)
			}
			if resp.Code.Class() != 4 && resp.Code.Class() != 5 && resp.Code.Class() != 2 {
				t.Fatalf("request %d: odd response code %v", i, resp.Code)
			}
		}()
	}
}
