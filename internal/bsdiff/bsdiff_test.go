package bsdiff

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"upkit/internal/lzss"
)

func diffApply(t *testing.T, old, new []byte) []byte {
	t.Helper()
	patch := Diff(old, new)
	got, err := Apply(old, patch)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !bytes.Equal(got, new) {
		t.Fatalf("patched output mismatch: got %d bytes, want %d", len(got), len(new))
	}
	return patch
}

func TestDiffApplyIdentical(t *testing.T) {
	data := bytes.Repeat([]byte("firmware"), 1000)
	// An identity patch is one record of all-zero diff bytes (canonical
	// bsdiff); it is the LZSS stage that shrinks it to almost nothing.
	patch := diffApply(t, data, data)
	if c := lzss.Encode(patch); len(c) > len(data)/8 {
		t.Fatalf("compressed identity patch = %d bytes for %d-byte image", len(c), len(data))
	}
}

func TestDiffApplyEmptyCases(t *testing.T) {
	diffApply(t, nil, nil)
	diffApply(t, nil, []byte("brand new image"))
	diffApply(t, []byte("old image"), nil)
}

func TestDiffApplySmallChange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	old := make([]byte, 64*1024)
	rng.Read(old)
	new := bytes.Clone(old)
	// A localized 1000-byte application change, as in Fig. 8b.
	copy(new[30000:], bytes.Repeat([]byte{0xEE}, 1000))
	patch := diffApply(t, old, new)
	if c := lzss.Encode(patch); len(c) > 12*1024 {
		t.Fatalf("1000-byte change compressed to a %d-byte patch; want small", len(c))
	}
}

func TestDiffApplyInsertion(t *testing.T) {
	old := bytes.Repeat([]byte("ABCDEFGH"), 2000)
	new := append([]byte{}, old[:5000]...)
	new = append(new, []byte("inserted-section-inserted-section")...)
	new = append(new, old[5000:]...)
	diffApply(t, old, new)
}

func TestDiffApplyDeletion(t *testing.T) {
	old := bytes.Repeat([]byte("ABCDEFGH"), 2000)
	new := append([]byte{}, old[:3000]...)
	new = append(new, old[7000:]...)
	diffApply(t, old, new)
}

func TestDiffApplyCompletelyDifferent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	old := make([]byte, 10000)
	new := make([]byte, 12000)
	rng.Read(old)
	rng.Read(new)
	diffApply(t, old, new)
}

func TestDiffApplyShiftedContent(t *testing.T) {
	// Code shifted by a few bytes (a classic relinked-firmware pattern):
	// bsdiff's seek control handles this far better than naive diffs.
	rng := rand.New(rand.NewSource(3))
	body := make([]byte, 50000)
	rng.Read(body)
	old := append([]byte("HDR1"), body...)
	new := append([]byte("HEADER2"), body...)
	// Raw bsdiff patches are roughly image-sized but consist almost
	// entirely of zero diff bytes; the size win appears after the LZSS
	// stage, exactly as in the paper's pipeline.
	patch := diffApply(t, old, new)
	// LZSS's 18-byte max match bounds the zero-run ratio near 9:1.
	if compressed := lzss.Encode(patch); len(compressed) > len(old)/5 {
		t.Fatalf("compressed shifted-content patch = %d bytes of %d; want small", len(compressed), len(old))
	}
}

func TestPatchCompressesWellWithLZSS(t *testing.T) {
	// The pipeline's whole premise: diff bytes are mostly zeros, so the
	// combined bsdiff+lzss transfer is much smaller than the image.
	rng := rand.New(rand.NewSource(4))
	old := make([]byte, 100*1024)
	rng.Read(old)
	new := bytes.Clone(old)
	for i := 0; i < 40; i++ {
		off := rng.Intn(len(new) - 16)
		copy(new[off:], []byte("patchedpatch"))
	}
	patch := Diff(old, new)
	compressed := lzss.Encode(patch)
	if len(compressed) > len(new)/5 {
		t.Fatalf("compressed patch = %d bytes for a %d-byte image; want < 20%%", len(compressed), len(new))
	}
}

func TestApplierStreamingChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	old := make([]byte, 20000)
	rng.Read(old)
	new := bytes.Clone(old)
	copy(new[5000:], []byte("modified-section"))
	new = append(new, []byte("appended tail")...)
	patch := Diff(old, new)

	for _, chunk := range []int{1, 3, 17, 256, len(patch)} {
		a := NewApplier(bytes.NewReader(old))
		var out []byte
		for i := 0; i < len(patch); i += chunk {
			end := min(i+chunk, len(patch))
			if err := a.Feed(patch[i:end], func(p []byte) error {
				out = append(out, p...)
				return nil
			}); err != nil {
				t.Fatalf("chunk=%d: Feed: %v", chunk, err)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatalf("chunk=%d: Close: %v", chunk, err)
		}
		if !bytes.Equal(out, new) {
			t.Fatalf("chunk=%d: output mismatch", chunk)
		}
	}
}

// TestApplierNewSize checks that the new size declared in the patch
// header, not the end of input, decides when the applier is done.
func TestApplierNewSize(t *testing.T) {
	old := []byte("aaaa")
	new := []byte("aaaabbbb")
	patch := Diff(old, new)
	a := NewApplier(bytes.NewReader(old))
	var out []byte
	emit := func(p []byte) error { out = append(out, p...); return nil }
	if err := a.Feed(patch[:len(patch)-1], emit); err != nil {
		t.Fatal(err)
	}
	if a.Done() {
		t.Fatal("applier done before the declared new size was produced")
	}
	if err := a.Feed(patch[len(patch)-1:], emit); err != nil {
		t.Fatal(err)
	}
	if !a.Done() || !bytes.Equal(out, new) {
		t.Fatalf("done=%v with %q, want done with %q", a.Done(), out, new)
	}
}

func TestApplierRejectsBadMagic(t *testing.T) {
	patch := Diff([]byte("a"), []byte("b"))
	patch[0] = 'X'
	if _, err := Apply([]byte("a"), patch); !errors.Is(err, ErrBadPatchHeader) {
		t.Fatalf("error = %v, want ErrBadPatchHeader", err)
	}
}

func TestApplierRejectsTruncated(t *testing.T) {
	patch := Diff([]byte("abcdefgh"), []byte("abcdXfgh12345"))
	if _, err := Apply([]byte("abcdefgh"), patch[:len(patch)-2]); !errors.Is(err, ErrPatchIncomplete) {
		t.Fatalf("error = %v, want ErrPatchIncomplete", err)
	}
}

func TestApplierRejectsTrailing(t *testing.T) {
	patch := Diff([]byte("abc"), []byte("abd"))
	patch = append(patch, 0xFF)
	if _, err := Apply([]byte("abc"), patch); !errors.Is(err, ErrPatchTrailing) {
		t.Fatalf("error = %v, want ErrPatchTrailing", err)
	}
}

func TestApplierRejectsOverrunRecord(t *testing.T) {
	// Handcraft a patch whose record claims more output than newSize.
	var w patchWriter
	w.writeHeader(0, 2)
	w.writeRecord(nil, []byte("toolong"), 0)
	if _, err := Apply(nil, w.buf.Bytes()); !errors.Is(err, ErrPatchCorrupt) {
		t.Fatalf("error = %v, want ErrPatchCorrupt", err)
	}
}

func TestApplierEmitErrorPropagates(t *testing.T) {
	patch := Diff([]byte("aaa"), []byte("bbb"))
	a := NewApplier(bytes.NewReader([]byte("aaa")))
	sentinel := errors.New("flash full")
	if err := a.Feed(patch, func([]byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("error = %v, want sentinel", err)
	}
}

// Property: Apply(old, Diff(old, new)) == new for arbitrary inputs.
func TestQuickDiffApply(t *testing.T) {
	f := func(old, new []byte) bool {
		got, err := Apply(old, Diff(old, new))
		return err == nil && bytes.Equal(got, new)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: derived mutations of a base image round trip (a structured
// workload closer to firmware than uniform random bytes).
func TestQuickDerivedImages(t *testing.T) {
	base := bytes.Repeat([]byte("BASEIMAGEv1.0-section-"), 500)
	f := func(edits []uint16, insert []byte) bool {
		new := bytes.Clone(base)
		for _, e := range edits {
			if len(new) == 0 {
				break
			}
			new[int(e)%len(new)] ^= byte(e >> 8)
		}
		pos := 0
		if len(new) > 0 {
			pos = len(insert) % len(new)
		}
		new = append(new[:pos], append(insert, new[pos:]...)...)
		got, err := Apply(base, Diff(base, new))
		return err == nil && bytes.Equal(got, new)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDiffIndexedAnyInRangeIndex: DiffIndexed over BuildIndex is Diff
// byte for byte, and over any other array of in-range entries — a
// reversed suffix array, all zeros — still reproduces the new image.
func TestDiffIndexedAnyInRangeIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	old := make([]byte, 4096)
	for i := range old {
		old[i] = byte(rng.Intn(16))
	}
	new := bytes.Clone(old)
	copy(new[1000:], "an edit in the middle")
	new = append(new, "and a tail"...)

	sa := BuildIndex(old)
	if !bytes.Equal(DiffIndexed(sa, old, new), Diff(old, new)) {
		t.Fatal("DiffIndexed over BuildIndex differs from Diff")
	}
	reversed := make([]int32, len(sa))
	for i, v := range sa {
		reversed[len(sa)-1-i] = v
	}
	for name, idx := range map[string][]int32{"reversed": reversed, "zeros": make([]int32, len(old))} {
		got, err := Apply(old, DiffIndexed(idx, old, new))
		if err != nil || !bytes.Equal(got, new) {
			t.Fatalf("%s index: patch does not reproduce the new image (err %v)", name, err)
		}
	}
}

// FuzzApplierRawPatch feeds arbitrary bytes to an Applier, in chunks of
// a fuzzed size, over an arbitrary old image: it must never panic,
// never emit more than the header's declared new size, return from
// every Feed, and only accept (Close == nil) after emitting exactly
// that size.
func FuzzApplierRawPatch(f *testing.F) {
	old := bytes.Repeat([]byte("applier-fuzz-old-"), 20)
	new := bytes.Clone(old)
	copy(new[40:], "edited")
	patch := Diff(old, new)
	f.Add(old, patch, uint8(7))
	f.Add(old, patch[:len(patch)/2], uint8(0))
	f.Add([]byte{}, Diff(nil, []byte("from nothing")), uint8(3))
	f.Add(old, patch[:patchHeaderSize], uint8(255))
	f.Add([]byte("x"), []byte("UPBSDIF1\x00\x00\x00\x01\xff\xff\xff\xff\x00\x00\x00\x00"), uint8(1))
	f.Fuzz(func(t *testing.T, old, patch []byte, cut uint8) {
		declared := -1
		if len(patch) >= patchHeaderSize && string(patch[:len(patchMagic)]) == patchMagic {
			declared = int(binary.BigEndian.Uint32(patch[len(patchMagic)+4:]))
		}
		a := NewApplier(bytes.NewReader(old))
		emitted := 0
		emit := func(p []byte) error {
			emitted += len(p)
			if declared < 0 || emitted > declared {
				t.Errorf("emitted %d bytes, header declares %d", emitted, declared)
			}
			return nil
		}
		step := int(cut)%64 + 1
		for len(patch) > 0 {
			n := min(step, len(patch))
			done := make(chan error, 1)
			go func(chunk []byte) { done <- a.Feed(chunk, emit) }(patch[:n])
			select {
			case err := <-done:
				if err != nil {
					return // rejected: the property is only that it returned
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Feed of %d bytes did not return", n)
			}
			patch = patch[n:]
		}
		if a.Close() == nil && emitted != declared {
			t.Fatalf("accepted a patch after emitting %d of %d bytes", emitted, declared)
		}
	})
}

func BenchmarkDiff64kB(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	old := make([]byte, 64*1024)
	rng.Read(old)
	new := bytes.Clone(old)
	copy(new[1000:], []byte("changed"))
	b.SetBytes(int64(len(old)))
	b.ResetTimer()
	for range b.N {
		Diff(old, new)
	}
}

func BenchmarkApply64kB(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	old := make([]byte, 64*1024)
	rng.Read(old)
	new := bytes.Clone(old)
	copy(new[1000:], []byte("changed"))
	patch := Diff(old, new)
	b.SetBytes(int64(len(new)))
	b.ResetTimer()
	for range b.N {
		if _, err := Apply(old, patch); err != nil {
			b.Fatal(err)
		}
	}
}
