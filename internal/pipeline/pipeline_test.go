package pipeline

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"upkit/internal/bsdiff"
	"upkit/internal/lzss"
)

// countingSink records writes and their sizes.
type countingSink struct {
	bytes.Buffer
	writes []int
	failAt int // fail the nth write (1-based); 0 disables
	n      int
}

func (s *countingSink) Write(p []byte) (int, error) {
	s.n++
	if s.failAt != 0 && s.n >= s.failAt {
		return 0, errors.New("sink failure")
	}
	s.writes = append(s.writes, len(p))
	return s.Buffer.Write(p)
}

func feedChunked(t *testing.T, p *Pipeline, data []byte, chunk int) {
	t.Helper()
	for i := 0; i < len(data); i += chunk {
		end := min(i+chunk, len(data))
		if _, err := p.Write(data[i:end]); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestFullPipelinePassesThrough(t *testing.T) {
	fw := bytes.Repeat([]byte("firmware"), 3000)
	for _, chunk := range []int{1, 13, 100, 4096, len(fw)} {
		var sink countingSink
		p := NewFull(&sink, 4096)
		feedChunked(t, p, fw, chunk)
		if !bytes.Equal(sink.Bytes(), fw) {
			t.Fatalf("chunk=%d: output mismatch", chunk)
		}
		if p.BytesIn() != len(fw) || p.DurableBytes() != len(fw) {
			t.Fatalf("chunk=%d: counters in=%d out=%d, want %d", chunk, p.BytesIn(), p.DurableBytes(), len(fw))
		}
	}
}

func TestBufferStageBatchesWrites(t *testing.T) {
	fw := make([]byte, 10000)
	var sink countingSink
	p := NewFull(&sink, 4096)
	feedChunked(t, p, fw, 100)
	// 10000 bytes with a 4096 buffer: two full flushes + final 1808.
	want := []int{4096, 4096, 1808}
	if len(sink.writes) != len(want) {
		t.Fatalf("writes = %v, want %v", sink.writes, want)
	}
	for i := range want {
		if sink.writes[i] != want[i] {
			t.Fatalf("writes = %v, want %v", sink.writes, want)
		}
	}
}

// TestDurableVsBufferedBytes pins the resume contract: DurableBytes
// counts only sink-accepted bytes, never the sector-buffer residue,
// until Sync flushes it.
func TestDurableVsBufferedBytes(t *testing.T) {
	var sink countingSink
	p := NewFull(&sink, 4096)
	if _, err := p.Write(make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	if p.DurableBytes() != 4096 || sink.Len() != 4096 {
		t.Fatalf("durable=%d sink=%d, want 4096 with 904 bytes buffered", p.DurableBytes(), sink.Len())
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if p.DurableBytes() != 5000 || sink.Len() != 5000 {
		t.Fatalf("after Sync: durable=%d sink=%d, want 5000", p.DurableBytes(), sink.Len())
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFullSectorFastPath verifies that sector-aligned input bypasses
// the copy: whole buffer-multiples reach the sink as one Write call.
func TestFullSectorFastPath(t *testing.T) {
	fw := make([]byte, 3*4096+100)
	for i := range fw {
		fw[i] = byte(i)
	}
	var sink countingSink
	p := NewFull(&sink, 4096)
	feedChunked(t, p, fw, len(fw)) // single Write spanning 3 sectors
	want := []int{3 * 4096, 100}
	if len(sink.writes) != len(want) || sink.writes[0] != want[0] || sink.writes[1] != want[1] {
		t.Fatalf("writes = %v, want %v", sink.writes, want)
	}
	if !bytes.Equal(sink.Bytes(), fw) {
		t.Fatal("output mismatch through fast path")
	}
	// A partially filled buffer must disable the bypass so ordering holds.
	var sink2 countingSink
	p2 := NewFull(&sink2, 4096)
	if _, err := p2.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Write(make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	if sink2.Len() != 10+8192 {
		t.Fatalf("mixed-path output = %d bytes, want %d", sink2.Len(), 10+8192)
	}
	if sink2.writes[0] != 4096 {
		t.Fatalf("first flush = %d, want full sector", sink2.writes[0])
	}
}

func TestDefaultBufferSize(t *testing.T) {
	p := NewFull(&countingSink{}, 0)
	if len(p.buf) != DefaultBufferSize {
		t.Fatalf("buffer = %d, want %d", len(p.buf), DefaultBufferSize)
	}
	if p.IsDifferential() {
		t.Fatal("full pipeline must not report differential")
	}
}

func TestDifferentialPipelineRebuildsImage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	old := make([]byte, 40*1024)
	rng.Read(old)
	new := bytes.Clone(old)
	copy(new[10000:], []byte("this-section-was-patched"))
	new = append(new, []byte("and the image grew")...)

	payload := lzss.Encode(bsdiff.Diff(old, new))

	for _, chunk := range []int{1, 7, 64, 1024, len(payload)} {
		var sink countingSink
		p := NewDifferential(bytes.NewReader(old), &sink, 4096)
		if !p.IsDifferential() {
			t.Fatal("differential pipeline must report differential")
		}
		feedChunked(t, p, payload, chunk)
		if !bytes.Equal(sink.Bytes(), new) {
			t.Fatalf("chunk=%d: patched image mismatch", chunk)
		}
		if p.BytesIn() != len(payload) {
			t.Fatalf("chunk=%d: BytesIn = %d, want %d", chunk, p.BytesIn(), len(payload))
		}
		if p.DurableBytes() != len(new) {
			t.Fatalf("chunk=%d: DurableBytes = %d, want %d", chunk, p.DurableBytes(), len(new))
		}
	}
}

func TestDifferentialSmallerTransfer(t *testing.T) {
	// The entire point of the differential configuration: payload on the
	// wire is much smaller than the firmware that lands in flash.
	old := bytes.Repeat([]byte("stable-os-section"), 4000)
	new := bytes.Clone(old)
	copy(new[100:], []byte("tweak"))
	payload := lzss.Encode(bsdiff.Diff(old, new))
	// LZSS's 18-byte max match caps zero-run compression near 8.6:1.
	if len(payload) > len(new)/8 {
		t.Fatalf("payload = %d bytes for %d-byte image; differential should be <12.5%%", len(payload), len(new))
	}
	var sink countingSink
	p := NewDifferential(bytes.NewReader(old), &sink, 4096)
	feedChunked(t, p, payload, 512)
	if !bytes.Equal(sink.Bytes(), new) {
		t.Fatal("patched image mismatch")
	}
}

func TestCloseDetectsTruncatedStream(t *testing.T) {
	old := []byte("old image contents")
	new := []byte("new image contents!")
	payload := lzss.Encode(bsdiff.Diff(old, new))

	var sink countingSink
	p := NewDifferential(bytes.NewReader(old), &sink, 64)
	if _, err := p.Write(payload[:len(payload)-2]); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := p.Close(); err == nil {
		t.Fatal("Close must fail on a truncated stream")
	}
}

func TestWriteAfterClose(t *testing.T) {
	p := NewFull(&countingSink{}, 64)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("error = %v, want ErrClosed", err)
	}
	if err := p.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close error = %v, want ErrClosed", err)
	}
}

func TestSinkErrorPropagates(t *testing.T) {
	sink := &countingSink{failAt: 1}
	p := NewFull(sink, 16)
	_, err := p.Write(make([]byte, 64))
	if err == nil {
		t.Fatal("sink failure must propagate")
	}
}

func TestCorruptPayloadRejected(t *testing.T) {
	old := bytes.Repeat([]byte("x"), 1000)
	new := bytes.Repeat([]byte("y"), 1000)
	payload := lzss.Encode(bsdiff.Diff(old, new))
	payload[0] ^= 0xFF // break the LZSS magic

	p := NewDifferential(bytes.NewReader(old), &countingSink{}, 64)
	if _, err := p.Write(payload); err == nil {
		t.Fatal("corrupt payload must be rejected")
	}
}

// Property: for any old/new pair and any split point, the differential
// pipeline reproduces new exactly.
func TestQuickDifferentialEquivalence(t *testing.T) {
	f := func(oldSeed, newTail []byte, cut uint16) bool {
		old := append(bytes.Repeat([]byte("base"), 64), oldSeed...)
		new := append(bytes.Clone(old), newTail...)
		if len(new) > 4 {
			new[3] ^= 0x55
		}
		payload := lzss.Encode(bsdiff.Diff(old, new))
		split := int(cut) % (len(payload) + 1)

		var sink bytes.Buffer
		p := NewDifferential(bytes.NewReader(old), &sink, 128)
		if _, err := p.Write(payload[:split]); err != nil {
			return false
		}
		if _, err := p.Write(payload[split:]); err != nil {
			return false
		}
		if err := p.Close(); err != nil {
			return false
		}
		return bytes.Equal(sink.Bytes(), new)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: buffer size never affects the bytes written, only batching.
func TestQuickBufferSizeInvariance(t *testing.T) {
	f := func(data []byte, bufSel uint8) bool {
		bufSize := 1 + int(bufSel)%512
		var sink bytes.Buffer
		p := NewFull(&sink, bufSize)
		if _, err := p.Write(data); err != nil {
			return false
		}
		if err := p.Close(); err != nil {
			return false
		}
		return bytes.Equal(sink.Bytes(), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
