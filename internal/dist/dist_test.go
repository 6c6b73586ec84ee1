package dist

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestNameOfDeterministicAndDistinct(t *testing.T) {
	a := NameOf([]byte("payload-a"))
	if a != NameOf([]byte("payload-a")) {
		t.Fatal("NameOf must be deterministic")
	}
	if a == NameOf([]byte("payload-b")) {
		t.Fatal("different payloads must get different names")
	}
}

func TestParseNameRoundTrip(t *testing.T) {
	n := NameOf([]byte("round-trip"))
	got, err := ParseName(n.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("round trip: got %s, want %s", got, n)
	}
}

func TestParseNameRejectsMalformed(t *testing.T) {
	for _, s := range []string{"", "ab", "zz" + NameOf(nil).String()[2:], NameOf(nil).String() + "00"} {
		if _, err := ParseName(s); !errors.Is(err, ErrBadName) {
			t.Fatalf("ParseName(%q) = %v, want ErrBadName", s, err)
		}
	}
}

func TestRegistryBlocks(t *testing.T) {
	r := NewRegistry(0)
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i)
	}
	name := r.Put(payload)

	// Full reassembly at an odd-fitting block size.
	var got []byte
	for num := uint32(0); ; num++ {
		data, more, err := r.Block(name, num, 32)
		if err != nil {
			t.Fatalf("block %d: %v", num, err)
		}
		got = append(got, data...)
		if !more {
			break
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reassembled payload differs")
	}

	if _, _, err := r.Block(name, 4, 32); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("past-the-end block: %v, want ErrOutOfRange", err)
	}
	if _, _, err := r.Block(NameOf([]byte("absent")), 0, 32); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("unknown name: %v, want ErrUnknownName", err)
	}
}

func TestRegistryPutIdempotent(t *testing.T) {
	r := NewRegistry(0)
	p := []byte("same bytes every device")
	n1 := r.Put(p)
	n2 := r.Put(append([]byte(nil), p...))
	if n1 != n2 {
		t.Fatal("identical payloads must share a name")
	}
	if st := r.Stats(); st.Entries != 1 || st.Puts != 2 {
		t.Fatalf("stats = %+v, want 1 entry from 2 puts", st)
	}
}

func TestRegistryPutCopies(t *testing.T) {
	r := NewRegistry(0)
	p := []byte{1, 2, 3, 4}
	name := r.Put(p)
	p[0] = 99 // caller mutates its copy after Put
	data, _, err := r.Block(name, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 1 {
		t.Fatal("registry must not alias the caller's payload")
	}
}

func TestRegistryEvictsLRUButKeepsNewest(t *testing.T) {
	r := NewRegistry(2 * (1024 + registryOverhead))
	a := r.Put(make([]byte, 1024))
	b := r.Put(bytes.Repeat([]byte{1}, 1024))
	// Touch a so b is the cold end.
	if _, ok := r.Payload(a); !ok {
		t.Fatal("a must be present")
	}
	c := r.Put(bytes.Repeat([]byte{2}, 1024))
	if _, ok := r.Payload(b); ok {
		t.Fatal("b (cold end) must be evicted")
	}
	if _, ok := r.Payload(a); !ok {
		t.Fatal("a (recently used) must survive")
	}
	if _, ok := r.Payload(c); !ok {
		t.Fatal("newest entry must survive")
	}
	// A payload bigger than the whole bound still gets stored.
	huge := r.Put(make([]byte, 8192))
	if _, ok := r.Payload(huge); !ok {
		t.Fatal("oversized newest payload must still be servable")
	}
}

// countingSource counts upstream fetches per chunk.
type countingSource struct {
	inner Source
	mu    sync.Mutex
	calls map[uint32]int
	total int
}

func (s *countingSource) Block(name Name, num uint32, size int) ([]byte, bool, error) {
	s.mu.Lock()
	if s.calls == nil {
		s.calls = make(map[uint32]int)
	}
	s.calls[num]++
	s.total++
	s.mu.Unlock()
	return s.inner.Block(name, num, size)
}

func TestCachingSourceServesAllSZXSizes(t *testing.T) {
	payload := make([]byte, 5000) // not chunk-aligned
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	reg := NewRegistry(0)
	name := reg.Put(payload)
	cs := NewCachingSource(reg, 0)

	for _, size := range []int{16, 64, 512, 1024} {
		var got []byte
		for num := uint32(0); ; num++ {
			data, more, err := cs.Block(name, num, size)
			if err != nil {
				t.Fatalf("size %d block %d: %v", size, num, err)
			}
			got = append(got, data...)
			if !more {
				break
			}
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: reassembled payload differs", size)
		}
	}
	st := cs.Stats()
	// 5 canonical chunks, fetched once each across all four sweeps.
	if st.Fills != 5 {
		t.Fatalf("fills = %d, want 5", st.Fills)
	}
	if st.Hits == 0 {
		t.Fatal("later sweeps must hit the cache")
	}
}

func TestCachingSourceSingleflight(t *testing.T) {
	payload := make([]byte, 4*DefaultChunkBytes)
	reg := NewRegistry(0)
	name := reg.Put(payload)
	upstream := &countingSource{inner: reg}
	cs := NewCachingSource(upstream, 0)

	const devices = 50
	var wg sync.WaitGroup
	errs := make([]error, devices)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for num := uint32(0); ; num++ {
				_, more, err := cs.Block(name, num, 64)
				if err != nil {
					errs[d] = err
					return
				}
				if !more {
					return
				}
			}
		}(d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	upstream.mu.Lock()
	total := upstream.total
	upstream.mu.Unlock()
	if total != 4 {
		t.Fatalf("origin fetches = %d, want one per chunk (4)", total)
	}
}

func TestCachingSourceDoesNotCacheErrors(t *testing.T) {
	reg := NewRegistry(0)
	cs := NewCachingSource(reg, 0)
	ghost := NameOf([]byte("not registered yet"))
	if _, _, err := cs.Block(ghost, 0, 64); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("miss on empty upstream: %v, want ErrUnknownName", err)
	}
	reg.Put([]byte("not registered yet"))
	if _, _, err := cs.Block(ghost, 0, 64); err != nil {
		t.Fatalf("after upstream learned the payload: %v", err)
	}
}

func TestCachingSourceEvicts(t *testing.T) {
	payload := make([]byte, 8*DefaultChunkBytes)
	reg := NewRegistry(0)
	name := reg.Put(payload)
	cs := NewCachingSource(reg, 2*(DefaultChunkBytes+chunkOverhead))
	for num := uint32(0); num < 8; num++ {
		if _, _, err := cs.Block(name, num, 1024); err != nil {
			t.Fatalf("block %d: %v", num, err)
		}
	}
	st := cs.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 under the bound", st.Entries)
	}
	if st.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", st.Evictions)
	}
}

func TestCachingSourceBypassesOddSizes(t *testing.T) {
	payload := make([]byte, 300)
	reg := NewRegistry(0)
	name := reg.Put(payload)
	cs := NewCachingSource(reg, 0)
	// 96 does not divide the 1 KiB chunk: served straight from upstream,
	// not cached.
	data, more, err := cs.Block(name, 0, 96)
	if err != nil || len(data) != 96 || !more {
		t.Fatalf("bypass block: %d bytes, more=%v, err=%v", len(data), more, err)
	}
	if st := cs.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want uncached bypass", st)
	}
	if _, _, err := cs.Block(name, 0, -1); err == nil {
		t.Fatal("non-positive size must be rejected")
	}
}

func TestSliceBlockExamples(t *testing.T) {
	p := []byte("0123456789")
	for _, tc := range []struct {
		num  uint32
		size int
		want string
		more bool
	}{
		{0, 4, "0123", true},
		{1, 4, "4567", true},
		{2, 4, "89", false},
		{0, 16, "0123456789", false},
	} {
		data, more, err := sliceBlock(p, tc.num, tc.size)
		if err != nil {
			t.Fatalf("block %d/%d: %v", tc.num, tc.size, err)
		}
		if string(data) != tc.want || more != tc.more {
			t.Fatalf("block %d/%d = %q more=%v, want %q more=%v",
				tc.num, tc.size, data, more, tc.want, tc.more)
		}
	}
	if _, _, err := sliceBlock(p, 3, 4); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("block past end: %v, want ErrOutOfRange", err)
	}
}

func ExampleNameOf() {
	name := NameOf([]byte("firmware payload"))
	fmt.Println(len(name.String()))
	// Output: 64
}
