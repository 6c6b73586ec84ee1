package flash

import (
	"bytes"
	"hash/maphash"
	"runtime"
	"sync"
	"weak"
)

// The content table. A program that covers a whole erased sector in one
// call — a swap phase copying a sector, an image written past its
// manifest sector, a restored dump — does not give that sector a buffer
// of its own: it takes a reference to the one process-wide copy of that
// content, which every chip holding the same bytes shares. A fleet of
// simulated devices that installed the same image therefore holds each
// of its sectors once, not once per device and slot.
//
// A shared copy is immutable. The chip's next program that would change
// the sector, or a Corrupt of it, copies it first (copy-on-write); an
// erase drops the reference. The table holds weak pointers only, so a
// copy is freed once no chip holds it, and a cleanup then removes its
// entry.

// chunk is one canonical copy of a sector's content. Nothing writes b
// after intern creates it.
type chunk struct{ b []byte }

// contents is the process-wide table: chunks by content hash, each hash
// with its (almost always single) list of chunks, told apart by their
// bytes.
var contents = struct {
	mu      sync.Mutex
	seed    maphash.Seed
	entries map[uint64][]weak.Pointer[chunk]
}{seed: maphash.MakeSeed(), entries: make(map[uint64][]weak.Pointer[chunk])}

// intern returns the canonical chunk holding b's content, adding a copy
// of b if the table has none. A hit allocates nothing.
func intern(b []byte) *chunk {
	h := maphash.Bytes(contents.seed, b)
	contents.mu.Lock()
	defer contents.mu.Unlock()
	for _, wp := range contents.entries[h] {
		if c := wp.Value(); c != nil && bytes.Equal(c.b, b) {
			return c
		}
	}
	c := &chunk{b: bytes.Clone(b)}
	contents.entries[h] = append(contents.entries[h], weak.Make(c))
	runtime.AddCleanup(c, dropDead, h)
	return c
}

// dropDead removes the entries under hash h whose chunk has been freed.
// It runs as the cleanup of every chunk filed under h.
func dropDead(h uint64) {
	contents.mu.Lock()
	defer contents.mu.Unlock()
	live := contents.entries[h][:0]
	for _, wp := range contents.entries[h] {
		if wp.Value() != nil {
			live = append(live, wp)
		}
	}
	if len(live) == 0 {
		delete(contents.entries, h)
		return
	}
	clear(contents.entries[h][len(live):])
	contents.entries[h] = live
}
