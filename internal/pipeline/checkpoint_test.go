package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"upkit/internal/bsdiff"
	"upkit/internal/lzss"
	"upkit/internal/security"
)

// splitResume runs wire through a pipeline in two halves with a
// checkpoint/restore at the cut, and returns the concatenated sink
// output of both halves.
func splitResume(t *testing.T, build func(sink *bytes.Buffer) *Pipeline, wire []byte, split int) []byte {
	t.Helper()
	var sink1 bytes.Buffer
	p1 := build(&sink1)
	if _, err := p1.Write(wire[:split]); err != nil {
		t.Fatalf("split=%d: first write: %v", split, err)
	}
	cp, err := p1.Checkpoint()
	if err != nil {
		t.Fatalf("split=%d: checkpoint: %v", split, err)
	}
	// Checkpoint syncs: the first sink must hold exactly DurableBytes bytes.
	if sink1.Len() != cp.DurableBytes() {
		t.Fatalf("split=%d: sink has %d bytes, checkpoint says %d", split, sink1.Len(), cp.DurableBytes())
	}
	if cp.BytesIn() != split {
		t.Fatalf("split=%d: checkpoint BytesIn = %d", split, cp.BytesIn())
	}

	// Serialize through the wire format, as the journal does.
	parsed, err := ParseCheckpoint(cp.Marshal())
	if err != nil {
		t.Fatalf("split=%d: parse: %v", split, err)
	}

	var sink2 bytes.Buffer
	p2 := build(&sink2)
	if err := p2.Restore(parsed); err != nil {
		t.Fatalf("split=%d: restore: %v", split, err)
	}
	if _, err := p2.Write(wire[split:]); err != nil {
		t.Fatalf("split=%d: resumed write: %v", split, err)
	}
	if err := p2.Close(); err != nil {
		t.Fatalf("split=%d: close: %v", split, err)
	}
	return append(sink1.Bytes(), sink2.Bytes()...)
}

func checkSplits(t *testing.T, build func(sink *bytes.Buffer) *Pipeline, wire, want []byte) {
	t.Helper()
	splits := []int{0, 1, 7, len(wire) / 3, len(wire) / 2, len(wire) - 1}
	for _, split := range splits {
		if split < 0 || split > len(wire) {
			continue
		}
		got := splitResume(t, build, wire, split)
		if !bytes.Equal(got, want) {
			t.Fatalf("split=%d: output mismatch: got %d bytes, want %d", split, len(got), len(want))
		}
	}
}

func TestCheckpointResumeFull(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	fw := make([]byte, 10000)
	rng.Read(fw)
	checkSplits(t, func(sink *bytes.Buffer) *Pipeline {
		return NewFull(sink, 1024)
	}, fw, fw)
}

func TestCheckpointResumeFullEncrypted(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fw := make([]byte, 10000)
	rng.Read(fw)
	key := bytes.Repeat([]byte{0x11}, 16)
	wire, err := security.EncryptPayload(key, fw, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkSplits(t, func(sink *bytes.Buffer) *Pipeline {
		p := NewFull(sink, 1024)
		if err := p.EnableDecryption(key); err != nil {
			t.Fatal(err)
		}
		return p
	}, wire, fw)
}

func diffWire(t *testing.T) (old, new, wire []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	old = make([]byte, 12000)
	rng.Read(old)
	new = bytes.Clone(old)
	copy(new[4000:], bytes.Repeat([]byte{0xAB}, 500))
	new = append(new, []byte("tail-growth")...)
	return old, new, lzss.Encode(bsdiff.Diff(old, new))
}

func TestCheckpointResumeDifferential(t *testing.T) {
	old, new, wire := diffWire(t)
	checkSplits(t, func(sink *bytes.Buffer) *Pipeline {
		return NewDifferential(bytes.NewReader(old), sink, 1024)
	}, wire, new)
}

func TestCheckpointResumeDifferentialEncrypted(t *testing.T) {
	old, new, wire := diffWire(t)
	key := bytes.Repeat([]byte{0x22}, 16)
	rng := rand.New(rand.NewSource(43))
	enc, err := security.EncryptPayload(key, wire, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkSplits(t, func(sink *bytes.Buffer) *Pipeline {
		p := NewDifferential(bytes.NewReader(old), sink, 1024)
		if err := p.EnableDecryption(key); err != nil {
			t.Fatal(err)
		}
		return p
	}, enc, new)
}

func TestRestoreRejectsKindMismatch(t *testing.T) {
	var sink bytes.Buffer
	full := NewFull(&sink, 256)
	cp, err := full.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	diff := NewDifferential(bytes.NewReader(nil), &sink, 256)
	if err := diff.Restore(cp); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("full checkpoint into differential pipeline: error = %v, want ErrCheckpointMismatch", err)
	}
	enc := NewFull(&sink, 256)
	if err := enc.EnableDecryption(bytes.Repeat([]byte{9}, 16)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Restore(cp); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("cleartext checkpoint into encrypted pipeline: error = %v, want ErrCheckpointMismatch", err)
	}
}

func TestRestoreRejectsUsedPipeline(t *testing.T) {
	var sink bytes.Buffer
	p := NewFull(&sink, 256)
	cp, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewFull(&sink, 256)
	if _, err := p2.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := p2.Restore(cp); err == nil {
		t.Fatal("restore into a pipeline that has consumed data must fail")
	}
}

func TestParseCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ParseCheckpoint(nil); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("nil blob: error = %v, want ErrBadCheckpoint", err)
	}
	var sink bytes.Buffer
	cp, err := NewFull(&sink, 256).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob := cp.Marshal()
	blob[0] = 'X'
	if _, err := ParseCheckpoint(blob); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("bad magic: error = %v, want ErrBadCheckpoint", err)
	}
	blob = append(cp.Marshal(), 0xFF)
	if _, err := ParseCheckpoint(blob); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("trailing byte: error = %v, want ErrBadCheckpoint", err)
	}
}

// applierCursors reads the declared new-image size and the bytes
// emitted so far from a bsdiff.Applier checkpoint, whose last 28 bytes
// are newSize, oldPos (8 bytes), emitted, diffLeft, extraLeft and seek.
func applierCursors(blob []byte) (newSize, emitted int) {
	tail := blob[len(blob)-28:]
	return int(binary.BigEndian.Uint32(tail)), int(binary.BigEndian.Uint32(tail[12:]))
}

// within runs call on its own goroutine and fails t if it has not
// returned after 5 s.
func within(t *testing.T, what string, call func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

// FuzzCheckpointRestoreRaw feeds raw bytes to ParseCheckpoint: the blob
// a device reads back from its reception journal after a power loss. An
// accepted checkpoint is restored into a fresh differential, encrypted
// pipeline over a small base, which then takes a few chunks of the
// payload from the position the checkpoint claims. Every call runs
// under a watchdog. Properties: no call panics or stalls, and the
// firmware bytes out never exceed the size the patch declares.
func FuzzCheckpointRestoreRaw(f *testing.F) {
	rng := rand.New(rand.NewSource(44))
	base := make([]byte, 2048)
	rng.Read(base)
	target := append(bytes.Clone(base), "grown"...)
	copy(target[700:], bytes.Repeat([]byte{0xCD}, 64))
	key := bytes.Repeat([]byte{0x33}, 16)
	wire, err := security.EncryptPayload(key, lzss.Encode(bsdiff.Diff(base, target)), rng)
	if err != nil {
		f.Fatal(err)
	}
	build := func(t testing.TB, sink io.Writer) *Pipeline {
		p := NewDifferential(bytes.NewReader(base), sink, 256)
		if err := p.EnableDecryption(key); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, split := range []int{0, 5, security.PayloadIVSize + 1, len(wire) / 2, len(wire)} {
		p := build(f, io.Discard)
		if _, err := p.Write(wire[:split]); err != nil {
			f.Fatal(err)
		}
		c, err := p.Checkpoint()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(c.Marshal(), uint8(split))
	}
	f.Fuzz(func(t *testing.T, blob []byte, cut uint8) {
		var c *Checkpoint
		if within(t, "ParseCheckpoint", func() (err error) { c, err = ParseCheckpoint(blob); return err }) != nil {
			return
		}
		var sink bytes.Buffer
		p := build(t, &sink)
		if within(t, "Restore", func() error { return p.Restore(c) }) != nil {
			return
		}
		_, emitted0 := applierCursors(p.app.Checkpoint())
		rest := wire[min(c.BytesIn(), len(wire)):]
		step := int(cut)%200 + 1
		for range 4 {
			n := min(step, len(rest))
			err := within(t, fmt.Sprintf("Write of %d bytes", n), func() error { _, err := p.Write(rest[:n]); return err })
			newSize, emitted := applierCursors(p.app.Checkpoint())
			if out := sink.Len() + p.n; out != emitted-emitted0 || out > 0 && emitted > newSize {
				t.Fatalf("%d bytes out, %d emitted past the restored %d, patch declares %d", out, emitted-emitted0, emitted0, newSize)
			}
			if err != nil || n == len(rest) {
				return
			}
			rest = rest[n:]
		}
	})
}
