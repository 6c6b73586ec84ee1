package dist

import (
	"fmt"
	"sync/atomic"

	"upkit/internal/lru"
)

// The proxy-tier block cache.
//
// A caching proxy sits between a fleet and the origin: every device in
// a wave asks for the same named blocks, so the cache fetches each
// block from upstream once and serves the rest from memory. It is an
// lru.Cache, like the update server's patch cache: LRU by bytes, and
// singleflight so concurrent first requests for a cold block trigger
// exactly one upstream fetch while the rest wait on its result — a
// 1k-device wave costs one origin fetch per block.
//
// Internally the cache stores canonical chunks of DefaultChunkBytes
// (1024, the largest Block2 size) and carves requested blocks out of
// them: every RFC 7959 block size divides 1024, so any requested block
// lies within one chunk, and devices pulling 64-byte radio blocks share
// chunks with proxies pulling 1024-byte ones.

// DefaultChunkBytes is the canonical cached-chunk size: the largest
// CoAP Block2 size (SZX 6), which every smaller SZX divides.
const DefaultChunkBytes = 1024

// DefaultCacheBytes bounds a CachingSource constructed with maxBytes
// <= 0.
const DefaultCacheBytes = 8 << 20

// chunkOverhead approximates per-chunk bookkeeping bytes.
const chunkOverhead = 96

// CacheStats is a snapshot of a CachingSource's counters.
type CacheStats struct {
	// Hits counts requests served from a cached chunk.
	Hits uint64 `json:"hits"`
	// Misses counts requests whose chunk was absent (or uncacheable)
	// and went upstream.
	Misses uint64 `json:"misses"`
	// Fills counts successful upstream chunk fetches; under concurrency
	// the singleflight invariant is Fills == distinct chunks fetched.
	Fills uint64 `json:"fills"`
	// Waits counts requests that piggybacked on an in-flight fill.
	Waits uint64 `json:"waits"`
	// Evictions counts chunks dropped by the LRU size bound.
	Evictions uint64 `json:"evictions"`
	// Entries and Bytes describe the current cache contents.
	Entries int `json:"entries"`
	Bytes   int `json:"bytes"`
}

// chunkKey identifies one canonical chunk of one named payload.
type chunkKey struct {
	name Name
	num  uint32
}

// chunk is one cached canonical chunk: its bytes and whether the
// payload continues past it.
type chunk struct {
	data []byte
	more bool
}

func (c chunk) size() int { return len(c.data) + chunkOverhead }

// CachingSource is a Source that serves blocks from an LRU-by-bytes
// chunk cache, filling from upstream on miss with singleflight dedup.
// It is safe for concurrent use; upstream fetches run outside the
// cache lock.
type CachingSource struct {
	upstream Source
	chunks   *lru.Cache[chunkKey, chunk]

	// bypassed counts requests that skip the cache; fills counts
	// successful upstream chunk fetches.
	bypassed, fills atomic.Uint64
}

// NewCachingSource creates a cache over upstream bounded to maxBytes
// (<= 0 selects DefaultCacheBytes).
func NewCachingSource(upstream Source, maxBytes int) *CachingSource {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &CachingSource{
		upstream: upstream,
		chunks:   lru.New[chunkKey, chunk](maxBytes, chunk.size),
	}
}

// Block implements Source. Requests whose size does not divide the
// chunk size (or exceeds it) bypass the cache and go straight
// upstream.
func (c *CachingSource) Block(name Name, num uint32, size int) ([]byte, bool, error) {
	if size <= 0 {
		return nil, false, fmt.Errorf("dist: invalid block size %d", size)
	}
	if size > DefaultChunkBytes || DefaultChunkBytes%size != 0 {
		c.bypassed.Add(1)
		return c.upstream.Block(name, num, size)
	}
	// The requested block lies entirely within one canonical chunk.
	start := int(num) * size
	cnum := uint32(start / DefaultChunkBytes)
	within := start % DefaultChunkBytes

	// Failed fetches are not cached: the next request retries upstream.
	res, err := c.chunks.Do(chunkKey{name: name, num: cnum}, func() (chunk, error) {
		data, more, err := c.upstream.Block(name, cnum, DefaultChunkBytes)
		if err == nil {
			c.fills.Add(1)
		}
		return chunk{data: data, more: more}, err
	})
	if err != nil {
		return nil, false, err
	}
	if within > len(res.data) || (within == len(res.data) && within > 0) {
		return nil, false, fmt.Errorf("%w: block %d past chunk %d end", ErrOutOfRange, num, cnum)
	}
	end := min(within+size, len(res.data))
	return res.data[within:end], res.more || end < len(res.data), nil
}

// Stats snapshots the cache's counters.
func (c *CachingSource) Stats() CacheStats {
	st := c.chunks.Stats()
	return CacheStats{
		Hits:      st.Hits,
		Misses:    st.Misses + c.bypassed.Load(),
		Fills:     c.fills.Load(),
		Waits:     st.Waits,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Bytes:     st.Bytes,
	}
}
