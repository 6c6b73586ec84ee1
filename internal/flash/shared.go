package flash

import (
	"bytes"
	"hash/maphash"
	"runtime"
	"sync"
	"weak"
)

// The content table. A sector whose content is complete does not keep a
// buffer of its own: it takes a reference to the one process-wide copy
// of that content, which every chip holding the same bytes shares. A
// fleet of simulated devices that installed the same image therefore
// holds each of its sectors once, not once per device and slot. A
// sector joins the table in one of two ways:
//
//   - a program that covers a whole erased sector in one call — a swap
//     phase copying a sector, a restored dump — looks its content up
//     (intern) and, on a miss, files a copy of it;
//   - completion sharing: a page that ends on a sector boundary
//     completes that sector, however it was written. The update
//     pipeline writes an image page by page at a slot offset past the
//     manifest, so this is how an installed image is shared. A private
//     sector completed this way is looked up (adopt); on a hit the chip
//     takes the reference, and on a miss the table adopts the chip's
//     own buffer as the canonical copy instead of cloning it.
//
// A shared copy is immutable. The chip's next program that would change
// the sector, or a Corrupt of it, copies it first (copy-on-write); an
// erase drops the reference. The table holds weak pointers only, so a
// copy is freed once no chip holds it, and a cleanup then removes its
// entry.
//
// Recycling. A private buffer a chip drops — on a completion hit, on an
// erase, on a restore — goes into a process-wide sync.Pool for its
// sector size, and the next sector that needs a private buffer takes it
// from there. Without it, each completion hit would turn a fresh sector
// buffer into garbage. The pool holds *chunk values, so a Put allocates
// nothing. A chunk filed in the table is never put in a pool.

// chunk is one sector's content. A chip may write a chunk it owns
// privately; nothing writes a chunk once it is filed in the table.
type chunk struct{ b []byte }

// contents is the process-wide table: chunks by content hash, each hash
// with its (almost always single) list of chunks, told apart by their
// bytes.
var contents = struct {
	mu      sync.Mutex
	seed    maphash.Seed
	entries map[uint64][]weak.Pointer[chunk]
}{seed: maphash.MakeSeed(), entries: make(map[uint64][]weak.Pointer[chunk])}

// intern returns the canonical chunk holding b's content, filing a copy
// of b if the table has none. A hit allocates nothing.
func intern(b []byte) *chunk { return file(b, nil) }

// adopt returns the canonical chunk holding own's content. On a miss own
// itself becomes that chunk, and its owner must neither write nor
// recycle it again. A hit allocates nothing.
func adopt(own *chunk) *chunk { return file(own.b, own) }

// file looks b's content up and, on a miss, files own — or a copy of b
// if own is nil — as its canonical chunk.
func file(b []byte, own *chunk) *chunk {
	h := maphash.Bytes(contents.seed, b)
	contents.mu.Lock()
	defer contents.mu.Unlock()
	for _, wp := range contents.entries[h] {
		if c := wp.Value(); c != nil && bytes.Equal(c.b, b) {
			return c
		}
	}
	if own == nil {
		own = &chunk{b: bytes.Clone(b)}
	}
	contents.entries[h] = append(contents.entries[h], weak.Make(own))
	runtime.AddCleanup(own, dropDead, h)
	return own
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

// pools holds the recycled private chunks, one pool per sector size.
var pools = struct {
	mu     sync.Mutex
	bySize map[int]*sync.Pool
}{bySize: make(map[int]*sync.Pool)}

// poolFor returns the pool of private chunks of size bytes.
func poolFor(size int) *sync.Pool {
	pools.mu.Lock()
	defer pools.mu.Unlock()
	p := pools.bySize[size]
	if p == nil {
		p = new(sync.Pool)
		pools.bySize[size] = p
	}
	return p
}
