package lzss

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := Encode(src)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(dec), len(src))
	}
	return enc
}

func TestRoundTripEmpty(t *testing.T) {
	enc := roundTrip(t, nil)
	if len(enc) != headerSize {
		t.Fatalf("empty encoding = %d bytes, want %d", len(enc), headerSize)
	}
}

func TestRoundTripSmall(t *testing.T) {
	roundTrip(t, []byte("a"))
	roundTrip(t, []byte("ab"))
	roundTrip(t, []byte("abc"))
	roundTrip(t, []byte("hello, world"))
}

func TestRoundTripRepetitive(t *testing.T) {
	src := bytes.Repeat([]byte("firmware-update-"), 4096)
	enc := roundTrip(t, src)
	if len(enc) >= len(src)/4 {
		t.Fatalf("repetitive input compressed to %d of %d bytes; expected strong compression", len(enc), len(src))
	}
}

func TestRoundTripRandomIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 32*1024)
	rng.Read(src)
	enc := roundTrip(t, src)
	// Random data cannot compress; the flag-byte overhead is 1/8.
	if len(enc) > len(src)+len(src)/7+headerSize {
		t.Fatalf("incompressible expansion too large: %d of %d bytes", len(enc), len(src))
	}
}

func TestRoundTripOverlappingMatches(t *testing.T) {
	// "aaaa..." forces matches whose distance is smaller than their
	// length (the classic LZ overlap case).
	roundTrip(t, bytes.Repeat([]byte{'a'}, 1000))
	// Period-2 and period-3 repeats.
	roundTrip(t, bytes.Repeat([]byte{'x', 'y'}, 500))
	roundTrip(t, bytes.Repeat([]byte{1, 2, 3}, 400))
}

func TestRoundTripLongRangeMatches(t *testing.T) {
	// A block that repeats at a distance near the window size.
	block := make([]byte, windowSize-100)
	rng := rand.New(rand.NewSource(2))
	rng.Read(block)
	src := append(append([]byte{}, block...), block...)
	roundTrip(t, src)
}

func TestRoundTripFirmwareLike(t *testing.T) {
	// Synthetic firmware: mostly structured repeats with sparse noise,
	// like ARM code sections.
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 0, 100*1024)
	instr := []byte{0x70, 0xB5, 0x04, 0x46}
	for len(src) < 100*1024 {
		if rng.Intn(4) == 0 {
			src = append(src, byte(rng.Intn(256)))
		} else {
			src = append(src, instr...)
			instr[rng.Intn(4)] = byte(rng.Intn(256))
		}
	}
	roundTrip(t, src)
}

func TestStreamingFeedChunkSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := make([]byte, 10000)
	for i := range src {
		src[i] = byte(rng.Intn(8)) // compressible
	}
	enc := Encode(src)
	for _, chunk := range []int{1, 2, 7, 64, 333, len(enc)} {
		d := NewDecoder()
		var out []byte
		for i := 0; i < len(enc); i += chunk {
			end := min(i+chunk, len(enc))
			if err := d.Feed(enc[i:end], func(p []byte) error {
				out = append(out, p...)
				return nil
			}); err != nil {
				t.Fatalf("chunk=%d: Feed: %v", chunk, err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatalf("chunk=%d: Close: %v", chunk, err)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("chunk=%d: output mismatch", chunk)
		}
	}
}

func TestDecoderReportsLength(t *testing.T) {
	src := []byte("payload")
	enc := Encode(src)
	// The header's declared length, not the end of input, decides when
	// the decoder is done.
	d := NewDecoder()
	var out []byte
	emit := func(p []byte) error { out = append(out, p...); return nil }
	if err := d.Feed(enc[:len(enc)-1], emit); err != nil {
		t.Fatal(err)
	}
	if d.Done() {
		t.Fatal("decoder done before the declared length was produced")
	}
	if err := d.Feed(enc[len(enc)-1:], emit); err != nil {
		t.Fatal(err)
	}
	if !d.Done() || len(out) != len(src) {
		t.Fatalf("done=%v after %d bytes, want done after %d", d.Done(), len(out), len(src))
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	enc := Encode([]byte("x"))
	enc[0] = 'X'
	if _, err := Decode(enc); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("error = %v, want ErrBadHeader", err)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	enc := Encode(bytes.Repeat([]byte("abc"), 100))
	if _, err := Decode(enc[:len(enc)-3]); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("error = %v, want ErrIncomplete", err)
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	enc := Encode([]byte("abc"))
	enc = append(enc, 0xAA)
	if _, err := Decode(enc); !errors.Is(err, ErrTrailing) {
		t.Fatalf("error = %v, want ErrTrailing", err)
	}
}

func TestDecodeRejectsBadMatchDistance(t *testing.T) {
	// Handcraft a stream whose first token is a match — there is no
	// prior output, so any distance is invalid.
	var enc []byte
	enc = append(enc, magic[:]...)
	enc = append(enc, 0, 0, 0, 10) // declared length 10
	enc = append(enc, 0x00)        // flag byte: first token is a match
	enc = append(enc, 0x00, 0x00)  // match: distance 1, length 3
	if _, err := Decode(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsOverrun(t *testing.T) {
	// Declared length 2 but a literal + match would exceed it.
	var enc []byte
	enc = append(enc, magic[:]...)
	enc = append(enc, 0, 0, 0, 2) // declared length 2
	enc = append(enc, 0x01)       // literal then match
	enc = append(enc, 'a')
	enc = append(enc, 0x00, 0x00) // match len 3 -> overruns
	if _, err := Decode(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error = %v, want ErrCorrupt", err)
	}
}

func TestEmitErrorPropagates(t *testing.T) {
	enc := Encode([]byte("some data"))
	d := NewDecoder()
	sentinel := errors.New("sink full")
	err := d.Feed(enc, func([]byte) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("error = %v, want sentinel", err)
	}
}

// Property: Decode(Encode(x)) == x for arbitrary byte strings.
func TestQuickRoundTrip(t *testing.T) {
	f := func(src []byte) bool {
		dec, err := Decode(Encode(src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: streaming and one-shot decoding agree for any chunking.
func TestQuickStreamingEquivalence(t *testing.T) {
	f := func(src []byte, cut uint16) bool {
		enc := Encode(src)
		split := 0
		if len(enc) > 0 {
			split = int(cut) % len(enc)
		}
		d := NewDecoder()
		var out []byte
		sink := func(p []byte) error { out = append(out, p...); return nil }
		if err := d.Feed(enc[:split], sink); err != nil {
			return false
		}
		if err := d.Feed(enc[split:], sink); err != nil {
			return false
		}
		return d.Close() == nil && bytes.Equal(out, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode100kB(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	src := make([]byte, 100*1024)
	for i := range src {
		src[i] = byte(rng.Intn(16))
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for range b.N {
		Encode(src)
	}
}

func BenchmarkDecode100kB(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	src := make([]byte, 100*1024)
	for i := range src {
		src[i] = byte(rng.Intn(16))
	}
	enc := Encode(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for range b.N {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzLZSSDecoderRaw feeds the device-side decoder streams the encoder
// could not have written, in fuzzed chunk sizes. Each Feed runs under a
// watchdog, so a stalled decoder fails the input instead of hanging the
// run; what is emitted never exceeds the header's declared length, and
// a stream Close accepts has emitted exactly that length.
func FuzzLZSSDecoderRaw(f *testing.F) {
	enc := Encode(bytes.Repeat([]byte("lzss-raw-fuzz "), 40))
	f.Add(enc, uint8(7))
	f.Add(enc[:len(enc)/2], uint8(0))
	f.Add(enc[:headerSize], uint8(255))
	f.Add([]byte("LZSS\x00\x00\x10\x00\x00\xff\xff"), uint8(1))         // match before any output
	f.Add([]byte("LZSS\xff\xff\xff\xff\xfe\x00\xfb\xff\xff"), uint8(2)) // huge declared length
	f.Fuzz(func(t *testing.T, stream []byte, cut uint8) {
		declared := -1
		if len(stream) >= headerSize && [4]byte(stream[:4]) == magic {
			declared = int(binary.BigEndian.Uint32(stream[4:headerSize]))
		}
		d := NewDecoder()
		emitted := 0
		emit := func(p []byte) error {
			emitted += len(p)
			if declared < 0 || emitted > declared {
				t.Errorf("emitted %d bytes, header declares %d", emitted, declared)
			}
			return nil
		}
		step := int(cut)%64 + 1
		for len(stream) > 0 {
			n := min(step, len(stream))
			done := make(chan error, 1)
			go func(chunk []byte) { done <- d.Feed(chunk, emit) }(stream[:n])
			select {
			case err := <-done:
				if err != nil {
					return // rejected: the property is only that it returned
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Feed of %d bytes did not return", n)
			}
			stream = stream[n:]
		}
		if d.Close() == nil && emitted != declared {
			t.Fatalf("accepted a stream after emitting %d of %d bytes", emitted, declared)
		}
	})
}

// TestRestoreRejectsOutputBeforeHeader: a checkpoint taken before the
// header is parsed has emitted nothing. One that claims otherwise is
// rejected, since the header's length would replace the total it was
// checked against.
func TestRestoreRejectsOutputBeforeHeader(t *testing.T) {
	cp := NewDecoder().Checkpoint()
	binary.BigEndian.PutUint32(cp[7+headerSize:], 1000) // total
	binary.BigEndian.PutUint32(cp[7+headerSize+4:], 10) // emitted
	if err := NewDecoder().Restore(cp); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("Restore: %v, want ErrBadCheckpoint", err)
	}
}
