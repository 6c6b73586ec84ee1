package bsdiff_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"upkit/internal/bsdiff"
	"upkit/internal/testbed"
)

// The suffix array of a string is unique, so SA-IS must reproduce the
// prefix-doubling reference element for element, and Diff over it must
// produce byte-identical patches.

func checkSuffixArray(t *testing.T, label string, data []byte) {
	t.Helper()
	got, want := bsdiff.BuildIndex(data), bsdiff.ReferenceSuffixArray(data)
	if !slices.Equal(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("%s (%d bytes): suffix arrays differ first at rank %d", label, len(data), i)
			}
		}
		t.Fatalf("%s (%d bytes): suffix array has %d entries, want %d", label, len(data), len(got), len(want))
	}
}

func TestSuffixArrayMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	random := func(n, alphabet int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(alphabet))
		}
		return b
	}
	checkSuffixArray(t, "empty", nil)
	checkSuffixArray(t, "one byte", []byte{7})
	for n := 2; n <= 70; n++ {
		checkSuffixArray(t, "all equal", bytes.Repeat([]byte{0xFF}, n))
		ascending := make([]byte, n)
		for i := range ascending {
			ascending[i] = byte(i)
		}
		checkSuffixArray(t, "ascending", ascending)
		checkSuffixArray(t, "period 2", bytes.Repeat([]byte("ab"), n)[:n])
		checkSuffixArray(t, "period 3", bytes.Repeat([]byte("bba"), n)[:n])
	}
	checkSuffixArray(t, "all zero", make([]byte, 5000))
	checkSuffixArray(t, "all equal", bytes.Repeat([]byte{0x41}, 65537))
	checkSuffixArray(t, "periodic", bytes.Repeat([]byte("firmware"), 4000))
	checkSuffixArray(t, "periodic with a defect", append(bytes.Repeat([]byte("abcabd"), 3000), 'a', 'b'))
	checkSuffixArray(t, "extreme symbols", bytes.Repeat([]byte{0xFF, 0x00, 0xFF, 0xFF, 0x00}, 999))
	for _, alphabet := range []int{2, 3, 4, 16, 256} {
		for _, n := range []int{3, 9, 10, 39, 40, 41, 255, 1000, 40_000} {
			checkSuffixArray(t, fmt.Sprintf("random over %d symbols", alphabet), random(n, alphabet))
		}
	}
	for _, kib := range []int{1, 32, 96, 128} {
		checkSuffixArray(t, "firmware", testbed.MakeFirmware(fmt.Sprintf("sa-%d", kib), kib<<10))
	}
	if !testing.Short() {
		checkSuffixArray(t, "firmware", testbed.MakeFirmware("sa-1MiB", 1<<20))
	}
}

// TestSuffixArrayExhaustiveSmall covers every string of up to eight
// symbols over a ternary alphabet, where the recursion bottoms out in
// all its ways.
func TestSuffixArrayExhaustiveSmall(t *testing.T) {
	for n := 0; n <= 8; n++ {
		data := make([]byte, n)
		for {
			checkSuffixArray(t, "exhaustive", data)
			i := 0
			for ; i < n && data[i] == 2; i++ {
				data[i] = 0
			}
			if i == n {
				break
			}
			data[i]++
		}
	}
}

// evolve overwrites sites runs of bytesPerSite random bytes — the
// benchmark's version-to-version change.
func evolve(base []byte, seed int64, sites, bytesPerSite int) []byte {
	out := bytes.Clone(base)
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < sites; s++ {
		off := rng.Intn(len(out) - bytesPerSite + 1)
		rng.Read(out[off : off+bytesPerSite])
	}
	return out
}

// TestPatchesMatchReference diffs the four benchmark workloads' image
// shapes with both suffix sorts: the patches must be the same bytes.
func TestPatchesMatchReference(t *testing.T) {
	shapes := []struct {
		name                     string
		kib, sites, bytesPerSite int
	}{
		{"fleet-diff-small", 32, 1, 1000},
		{"fleet-full-proxy", 128, 1, 1000},
		{"fleet-diff-enc-ab", 128, 400, 60},
		{"prepare-churn", 96, 1, 512},
	}
	for _, sh := range shapes {
		old := testbed.MakeFirmware("patch-"+sh.name, sh.kib<<10)
		next := evolve(old, 2, sh.sites, sh.bytesPerSite)
		got, want := bsdiff.Diff(old, next), bsdiff.ReferenceDiff(old, next)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: patch differs from the reference (%d vs %d bytes)", sh.name, len(got), len(want))
		}
		if out, err := bsdiff.Apply(old, got); err != nil || !bytes.Equal(out, next) {
			t.Fatalf("%s: patch does not rebuild the new image: %v", sh.name, err)
		}
	}
}

func FuzzSuffixArrayMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("banana"))
	f.Add([]byte("mississippi"))
	f.Add(bytes.Repeat([]byte{0xFF, 0x00}, 33))
	f.Add(testbed.MakeFirmware("sa-fuzz", 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSuffixArray(t, "fuzz", data)
	})
}

func BenchmarkSuffixArray128k(b *testing.B) {
	data := testbed.MakeFirmware("sa-bench", 128<<10)
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		bsdiff.BuildIndex(data)
	}
}
