package updateserver

import (
	"container/list"
	"sync"

	"upkit/internal/bsdiff"
	"upkit/internal/lzss"
	"upkit/internal/security"
)

// The differential-patch cache.
//
// Deriving a differential payload (bsdiff + LZSS, §III-B) is by far the
// most expensive thing the update server does per request, and it is
// also the only per-request work that does not depend on the requesting
// device: the patch for a given (app, fromVersion, toVersion) pair is
// identical for every device on that pair. During a campaign — one new
// release, a whole fleet on the previous one — the naive path recomputes
// the same patch once per device. The cache below computes it once,
// serves every later request from memory, and deduplicates concurrent
// first requests with a singleflight scheme so a thundering herd on a
// cold pair triggers exactly one computation while the rest block on
// its result (never on the server mutex; diffing runs outside all
// locks).
//
// Invalidation is generation-based per app: Publish and retention
// pruning bump the app's generation and drop its entries, and an
// in-flight computation only inserts its result if the generation it
// started under is still current. A computation that raced an
// invalidation still returns a correct patch to its waiters (the key
// pins the exact version pair), it just is not memoised.

// DefaultPatchCacheBytes is the patch-cache bound of a freshly
// constructed Server: a few MB, sized for a handful of hot version
// pairs of constrained-device images (tens of KiB each).
const DefaultPatchCacheBytes = 4 << 20

// cacheEntryOverhead approximates the bookkeeping bytes charged per
// entry on top of the patch itself.
const cacheEntryOverhead = 64

// CacheStats is a snapshot of the patch cache's counters, exposed via
// Server.Stats, the HTTP API (GET /api/v1/stats), and upkit-bench.
type CacheStats struct {
	// Hits counts requests served from a cached patch.
	Hits uint64 `json:"hits"`
	// Misses counts requests that found neither a cached patch nor an
	// in-flight computation and had to compute one.
	Misses uint64 `json:"misses"`
	// Waits counts requests that piggybacked on another request's
	// in-flight computation (the singleflight path).
	Waits uint64 `json:"waits"`
	// Computations counts actual bsdiff+LZSS runs, including those made
	// with the cache disabled. Under concurrency the singleflight
	// invariant is Computations == number of distinct version pairs.
	Computations uint64 `json:"computations"`
	// Evictions counts entries dropped by the LRU size bound.
	Evictions uint64 `json:"evictions"`
	// Invalidations counts entries dropped by Publish or retention
	// pruning.
	Invalidations uint64 `json:"invalidations"`
	// DiskHits counts cold in-memory lookups answered by the durable
	// patch store without a recomputation; DiskMisses counts the ones
	// that had to compute despite a disk tier being attached.
	DiskHits   uint64 `json:"diskHits"`
	DiskMisses uint64 `json:"diskMisses"`
	// Entries and Bytes describe the current cache contents.
	Entries int `json:"entries"`
	Bytes   int `json:"bytes"`
}

// patchKey identifies one differential payload.
type patchKey struct {
	appID uint32
	from  uint16
	to    uint16
}

// patchResult is a computed differential payload: the compressed patch,
// or the decision that no patch beats the full image (viable=false).
// Both outcomes are worth caching — recomputing a useless patch per
// request would be just as wasteful.
type patchResult struct {
	patch  []byte
	viable bool
}

func (r patchResult) size() int { return len(r.patch) + cacheEntryOverhead }

// computePatch derives the LZSS-compressed bsdiff patch from base to
// target. A patch at least as large as the target image is
// counterproductive and reported as non-viable.
func computePatch(base, target []byte) patchResult {
	patch := lzss.Encode(bsdiff.Diff(base, target))
	if len(patch) >= len(target) {
		return patchResult{}
	}
	return patchResult{patch: patch, viable: true}
}

// inflightPatch is one in-progress computation other requests can wait
// on. res is written exactly once, before done is closed.
type inflightPatch struct {
	done chan struct{}
	res  patchResult
}

// cacheEntry is one LRU element.
type cacheEntry struct {
	key patchKey
	res patchResult
}

// patchCache is the size-bounded LRU + singleflight store. It has its
// own mutex, never held while diffing, and independent of Server.mu.
type patchCache struct {
	mu       sync.Mutex
	maxBytes int
	curBytes int
	entries  map[patchKey]*list.Element
	lru      *list.List // front = most recently used
	inflight map[patchKey]*inflightPatch
	gens     map[uint32]uint64 // per-app invalidation generation

	// disk, when set, is the durable tier behind the LRU: memory misses
	// probe it before diffing, and fresh computations are persisted to
	// it, so warm patches survive a server restart. Records are pinned
	// to the firmware digests they were computed from, so the disk tier
	// needs no generation bookkeeping — a stale record simply fails its
	// digest check. Publish-time invalidation deliberately leaves the
	// disk tier alone: a restarted server republishing the same images
	// must find its warm set intact, and records for superseded version
	// pairs are unreachable garbage that the store's size bound
	// reclaims.
	disk *PatchStore

	// compute derives a patch on a miss; it is computePatch outside of
	// tests, which swap it to hold a computation in flight.
	compute func(base, target []byte) patchResult

	hits, misses, waits, computations, evictions, invalidations, diskHits, diskMisses uint64
}

// newPatchCache bounds the LRU to maxBytes (<= 0 disables memoisation
// but keeps singleflight dedup) with disk, when non-nil, as its durable
// tier.
func newPatchCache(maxBytes int, disk *PatchStore) *patchCache {
	return &patchCache{
		maxBytes: maxBytes,
		disk:     disk,
		compute:  computePatch,
		entries:  make(map[patchKey]*list.Element),
		lru:      list.New(),
		inflight: make(map[patchKey]*inflightPatch),
		gens:     make(map[uint32]uint64),
	}
}

// payload returns the differential payload for key, computing it from
// (base, target) at most once per distinct key across concurrent
// callers. baseDig and targetDig are the firmware digests the durable
// tier pins its records to. Callers must not mutate the returned patch
// — clone before handing it out.
func (c *patchCache) payload(key patchKey, baseDig, targetDig security.Digest, base, target []byte) patchResult {
	res, _ := c.resolve(key, baseDig, targetDig, base, target)
	return res
}

// warm is payload for the patch farm: it additionally reports whether
// the result was already resident in the memory tier, so the farm can
// tell precomputation work from no-ops.
func (c *patchCache) warm(key patchKey, baseDig, targetDig security.Digest, base, target []byte) (patchResult, bool) {
	return c.resolve(key, baseDig, targetDig, base, target)
}

// resolve is the cache's single lookup-or-compute path: memory LRU,
// then singleflight, then the durable tier, then bsdiff+LZSS. The
// singleflight dedup runs even with the memory cache disabled
// (maxBytes <= 0): a thundering herd on one cold pair must cost one
// diff, not N — disabling *retention* must not disable *dedup*. The
// disabled path only skips memoisation.
func (c *patchCache) resolve(key patchKey, baseDig, targetDig security.Digest, base, target []byte) (patchResult, bool) {
	c.mu.Lock()
	if c.maxBytes > 0 {
		if el, ok := c.entries[key]; ok {
			c.hits++
			c.lru.MoveToFront(el)
			res := el.Value.(*cacheEntry).res
			c.mu.Unlock()
			return res, true
		}
	}
	if fl, ok := c.inflight[key]; ok {
		c.waits++
		c.mu.Unlock()
		<-fl.done
		return fl.res, false
	}
	c.misses++
	gen := c.gens[key.appID]
	disk := c.disk
	fl := &inflightPatch{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	var res patchResult
	fromDisk := false
	if disk != nil {
		res, fromDisk = disk.Get(key, baseDig, targetDig)
	}
	if !fromDisk {
		res = c.compute(base, target)
	}

	c.mu.Lock()
	if fromDisk {
		c.diskHits++
	} else {
		c.computations++
		if disk != nil {
			c.diskMisses++
		}
	}
	fl.res = res
	delete(c.inflight, key)
	if c.maxBytes > 0 && c.gens[key.appID] == gen {
		c.insertLocked(key, res)
	}
	c.mu.Unlock()
	close(fl.done)
	if !fromDisk && disk != nil {
		// Persist after the waiters are released: disk latency must not
		// extend the herd's wait. A failed append only costs durability
		// of this one patch.
		_ = disk.Put(key, baseDig, targetDig, res)
	}
	return res, false
}

// insertLocked stores res under key and evicts from the cold end until
// the size bound holds. Entries larger than the whole bound are not
// cached at all.
func (c *patchCache) insertLocked(key patchKey, res patchResult) {
	if res.size() > c.maxBytes {
		return
	}
	if el, ok := c.entries[key]; ok { // lost no race, but be idempotent
		c.removeLocked(el)
	}
	for c.curBytes+res.size() > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
	el := c.lru.PushFront(&cacheEntry{key: key, res: res})
	c.entries[key] = el
	c.curBytes += res.size()
}

// removeLocked drops one LRU element.
func (c *patchCache) removeLocked(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.entries, e.key)
	c.curBytes -= e.res.size()
}

// invalidateApp drops every cached patch for app and bumps its
// generation so racing in-flight computations do not re-insert.
func (c *patchCache) invalidateApp(appID uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[appID]++
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEntry).key.appID == appID {
			c.removeLocked(el)
			c.invalidations++
		}
		el = next
	}
}

// stats snapshots the counters.
func (c *patchCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Waits:         c.waits,
		Computations:  c.computations,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		DiskHits:      c.diskHits,
		DiskMisses:    c.diskMisses,
		Entries:       c.lru.Len(),
		Bytes:         c.curBytes,
	}
}
