package updateserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"upkit/internal/framelog"
	"upkit/internal/lru"
	"upkit/internal/security"
)

// PatchStore is the durable tier behind the in-memory patch cache:
// every differential payload the server computes is appended to a
// framelog.Log, so a restarted server serves warm patches without
// redoing a single bsdiff. Beside the patches it keeps each base
// release's bsdiff index (its suffix array, bsdiff.BuildIndex), so a
// cold pair from a known base reads the index back instead of
// rebuilding it — the larger part of a diff. A Put is fsynced before
// the patch becomes visible to Get, replay truncates a torn tail, and
// dead records are compacted away under framelog's rule.
//
// On-disk format, one file (`patches.log`) of framelog records with
// magic "UPPD", in write order, whose payload is (big endian):
//
//	appID u32 | from u16 | to u16 | flags u8 | baseDigest 32 |
//	targetDigest 32 | patch bytes
//
// flags bit 0 records viability: a pair whose best patch is no smaller
// than the full image is a result worth persisting too — recomputing a
// useless diff per restart would be just as wasteful. The two firmware
// digests pin the record to the exact release bytes it was computed
// from: a Get whose digests differ (the release store changed under
// the same version numbers) is a miss and drops the stale entry.
//
// flags bit 1 marks an index record: the bsdiff index of release
// `from`, keyed (appID, from, from) with both digests the release's,
// whose bytes are its suffix array as u32 entries. No patch has from ==
// to, so the two kinds never share a key. An index record sets bit 0
// too, so a reader that predates bit 1 indexes it as a patch for a pair
// nobody requests instead of rejecting it and truncating the log there.
// A stored index is used only when its length is the release's and
// every entry lies inside the release; anything else is a miss.
//
// The index (key → record frame) is an lru.Cache bounded by live
// record bytes, patches and indexes alike; record bytes stay on disk
// and are re-read and CRC-checked on every hit, so a corrupted record
// degrades to a cache miss, never to a wrong patch. Nothing read back
// is kept in memory. Compaction writes the live records least recently
// used first, so a replay restores the same recency order.
type PatchStore struct {
	mu     sync.Mutex
	dir    string
	log    *framelog.Log
	index  *lru.Cache[patchKey, *diskEntry]
	closed bool

	hits, misses, puts, compactions uint64
	tornTails                       int
}

// diskEntry is one indexed record.
type diskEntry struct {
	frame  framelog.Frame
	base   security.Digest
	target security.Digest
	viable bool
	index  bool // a base release's bsdiff index, not a patch
	bytes  int  // record payload bytes past the meta (0 for non-viable)
}

// DefaultPatchStoreBytes bounds a PatchStore opened with n <= 0: room
// for thousands of constrained-device patches.
const DefaultPatchStoreBytes = 64 << 20

const (
	patchRecMagic   uint32 = 0x55505044 // "UPPD"
	patchMetaSize          = 4 + 2 + 2 + 1 + 2*security.DigestSize
	patchFlagViable        = 1 << 0
	patchFlagIndex         = 1 << 1
	patchLogName           = "patches.log"
)

// ErrPatchStoreClosed reports use after Close.
var ErrPatchStoreClosed = errors.New("updateserver: patch store is closed")

// OpenPatchStore opens (creating if needed) the patch store rooted at
// dir, bounded to maxBytes of live patch bytes (<= 0 selects
// DefaultPatchStoreBytes), replaying the log and truncating any torn
// tail. Later records for a key win (a re-publish recomputed the pair).
func OpenPatchStore(dir string, maxBytes int) (*PatchStore, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultPatchStoreBytes
	}
	s := &PatchStore{
		dir:   dir,
		index: lru.New[patchKey, *diskEntry](maxBytes, func(e *diskEntry) int { return e.bytes }),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("updateserver: patch dir: %w", err)
	}
	log, torn, err := framelog.Open(filepath.Join(dir, patchLogName), patchRecMagic, func(p []byte, fr framelog.Frame) bool {
		key, e, _, ok := decodePatch(p)
		if ok {
			e.frame = fr
			s.index.Add(key, e)
		}
		return ok
	})
	if err != nil {
		return nil, fmt.Errorf("updateserver: patch log: %w", err)
	}
	s.log = log
	if torn {
		s.tornTails++
	}
	return s, nil
}

// Dir returns the store's state directory.
func (s *PatchStore) Dir() string { return s.dir }

// patchMeta encodes a record's fixed-size head.
func patchMeta(key patchKey, base, target security.Digest, flags byte) []byte {
	meta := make([]byte, 0, patchMetaSize)
	meta = binary.BigEndian.AppendUint32(meta, key.appID)
	meta = binary.BigEndian.AppendUint16(meta, key.from)
	meta = binary.BigEndian.AppendUint16(meta, key.to)
	meta = append(meta, flags)
	meta = append(meta, base[:]...)
	return append(meta, target[:]...)
}

// decodePatch parses a record payload into its key, index entry (frame
// unset) and patch bytes, or ok=false when it is malformed.
func decodePatch(p []byte) (key patchKey, e *diskEntry, patch []byte, ok bool) {
	if len(p) < patchMetaSize {
		return key, nil, nil, false
	}
	key = patchKey{
		appID: binary.BigEndian.Uint32(p),
		from:  binary.BigEndian.Uint16(p[4:]),
		to:    binary.BigEndian.Uint16(p[6:]),
	}
	patch = p[patchMetaSize:]
	e = &diskEntry{viable: p[8]&patchFlagViable != 0, index: p[8]&patchFlagIndex != 0, bytes: len(patch)}
	copy(e.base[:], p[9:])
	copy(e.target[:], p[9+security.DigestSize:])
	if !e.viable && len(patch) != 0 {
		return key, nil, nil, false // a non-viable record carries no patch
	}
	if e.index && (!e.viable || key.from != key.to || e.base != e.target) {
		return key, nil, nil, false // an index is keyed and pinned to one release
	}
	return key, e, patch, true
}

// indexKey is the record key of release version's index.
func indexKey(appID uint32, version uint16) patchKey {
	return patchKey{appID: appID, from: version, to: version}
}

// decodeIndex parses an index record payload for a release of n bytes
// into its key and suffix array. ok is false unless the record is an
// index of exactly n entries, each in [0, n): an array that passes can
// make a patch larger, never wrong (bsdiff.DiffIndexed).
func decodeIndex(p []byte, n int) (key patchKey, sa []int32, ok bool) {
	key, e, body, ok := decodePatch(p)
	if !ok || !e.index || len(body) != 4*n {
		return key, nil, false
	}
	sa = make([]int32, n)
	for i := range sa {
		v := binary.BigEndian.Uint32(body[4*i:])
		if v >= uint32(n) {
			return key, nil, false
		}
		sa[i] = int32(v)
	}
	return key, sa, true
}

// Put persists res for key, computed from firmware with the given
// digests. The record is fsynced before it becomes visible, so a
// crash never loses an acknowledged patch — at worst it leaves a torn
// tail that replay drops.
func (s *PatchStore) Put(key patchKey, base, target security.Digest, res patchResult) error {
	var flags byte
	if res.viable {
		flags = patchFlagViable
	}
	return s.put(key, &diskEntry{base: base, target: target, viable: res.viable}, flags, res.patch)
}

// PutIndex persists sa, the bsdiff index of release version of appID
// whose firmware digest is dig, fsynced like Put.
func (s *PatchStore) PutIndex(appID uint32, version uint16, dig security.Digest, sa []int32) error {
	e := &diskEntry{base: dig, target: dig, viable: true, index: true}
	return s.put(indexKey(appID, version), e, patchFlagViable|patchFlagIndex, encodeIndex(sa))
}

// encodeIndex is an index record's body: sa's entries as u32.
func encodeIndex(sa []int32) []byte {
	body := make([]byte, 4*len(sa))
	for i, v := range sa {
		binary.BigEndian.PutUint32(body[4*i:], uint32(v))
	}
	return body
}

// put appends one record and indexes it as e.
func (s *PatchStore) put(key patchKey, e *diskEntry, flags byte, body []byte) error {
	meta := patchMeta(key, e.base, e.target, flags)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrPatchStoreClosed
	}
	fr, err := s.log.Append(meta, body)
	if err != nil {
		return fmt.Errorf("updateserver: append patch record: %w", err)
	}
	s.puts++
	e.frame, e.bytes = fr, len(body)
	s.index.Add(key, e)
	s.compactLocked()
	return nil
}

// Get returns the stored result for key if its digests match the
// firmware the caller is diffing — a mismatch means the release bytes
// changed since the record was written, so the entry is dropped and
// the lookup is a miss. The record is re-read and CRC-checked from
// disk on every hit; silent on-disk corruption degrades to a miss.
func (s *PatchStore) Get(key patchKey, base, target security.Digest) (patchResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return patchResult{}, false
	}
	e, ok := s.index.Get(key)
	var patch []byte
	if ok {
		patch, ok = s.readLocked(key, e, base, target)
	}
	if !ok {
		s.index.Remove(key)
		s.misses++
		return patchResult{}, false
	}
	s.hits++
	res := patchResult{viable: e.viable}
	if e.viable {
		res.patch = exactCopy(patch)
	}
	return res, true
}

// GetIndex returns the stored bsdiff index of release version of
// appID if it was built from firmware with digest dig, n bytes long.
// The record is re-read and CRC-checked, and its entries range-checked
// against n; any mismatch drops the entry and is a miss.
func (s *PatchStore) GetIndex(appID uint32, version uint16, dig security.Digest, n int) ([]int32, bool) {
	key := indexKey(appID, version)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	e, ok := s.index.Get(key)
	var sa []int32
	if ok {
		sa, ok = s.readIndexLocked(key, e, dig, n)
	}
	if !ok {
		s.index.Remove(key)
		return nil, false
	}
	return sa, true
}

// readIndexLocked reads e's index back if e is an index built from
// firmware with digest dig and its record still decodes as key's for a
// release of n bytes.
func (s *PatchStore) readIndexLocked(key patchKey, e *diskEntry, dig security.Digest, n int) ([]int32, bool) {
	if !e.index || e.base != dig {
		return nil, false
	}
	p, err := s.log.ReadAt(e.frame)
	if err != nil {
		return nil, false
	}
	k, sa, ok := decodeIndex(p, n)
	return sa, ok && k == key
}

// readLocked reads e's patch back if e was computed from base and
// target and its record still parses as key's.
func (s *PatchStore) readLocked(key patchKey, e *diskEntry, base, target security.Digest) ([]byte, bool) {
	if e.base != base || e.target != target {
		return nil, false
	}
	p, err := s.log.ReadAt(e.frame)
	if err != nil {
		return nil, false
	}
	k, _, patch, ok := decodePatch(p)
	return patch, ok && k == key
}

// compactLocked hands the live records to the log's compaction rule.
func (s *PatchStore) compactLocked() {
	var ents []*diskEntry
	var live []framelog.Frame
	s.index.Walk(func(_ patchKey, e *diskEntry) {
		ents = append(ents, e)
		live = append(live, e.frame)
	})
	if moved, _ := s.log.Compact(live); moved {
		s.compactions++
		for i, e := range ents {
			e.frame = live[i]
		}
	}
}

// PatchStoreStats is a snapshot of the store's counters; its sizes are
// exposed as the upkit_patch_store_* gauges.
type PatchStoreStats struct {
	// Hits and Misses count patch lookups (Get); Puts counts persisted
	// records, indexes included.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Puts   uint64 `json:"puts"`
	// Evictions counts entries dropped by the live-byte bound;
	// Compactions counts log rewrites.
	Evictions   uint64 `json:"evictions"`
	Compactions uint64 `json:"compactions"`
	// TornTails counts torn tail records dropped at startup.
	TornTails int `json:"tornTails"`
	// Entries and Bytes describe the live records, patches and base
	// indexes alike; FileBytes is the log size on disk, dead records
	// included.
	Entries   int `json:"entries"`
	Bytes     int `json:"bytes"`
	FileBytes int `json:"fileBytes"`
}

// Stats snapshots the store's counters.
func (s *PatchStore) Stats() PatchStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.index.Stats()
	return PatchStoreStats{
		Hits:        s.hits,
		Misses:      s.misses,
		Puts:        s.puts,
		Evictions:   st.Evictions,
		Compactions: s.compactions,
		TornTails:   s.tornTails,
		Entries:     st.Entries,
		Bytes:       st.Bytes,
		FileBytes:   int(s.log.Size()),
	}
}

// Close releases the log handle; further Put and Get calls fail (Get
// reports a miss).
func (s *PatchStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}
