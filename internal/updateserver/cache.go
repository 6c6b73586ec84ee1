package updateserver

import (
	"sync/atomic"

	"upkit/internal/bsdiff"
	"upkit/internal/lru"
	"upkit/internal/lzss"
	"upkit/internal/security"
	"upkit/internal/vendorserver"
)

// The differential-patch cache.
//
// Deriving a differential payload (bsdiff + LZSS, §III-B) is by far the
// most expensive thing the update server does per request, and it is
// also the only per-request work that does not depend on the requesting
// device: the patch between two releases is identical for every device
// on that pair. During a campaign — one new
// release, a whole fleet on the previous one — the naive path recomputes
// the same patch once per device. The cache below is an lru.Cache: it
// computes each patch once, serves every later request from memory, and
// deduplicates concurrent first requests so a thundering herd on a cold
// pair triggers exactly one computation while the rest wait for its
// result (diffing runs outside all locks).
//
// Entries are keyed by the two firmware digests, like the durable tier:
// a patch is a pure function of the bytes it was computed from, so no
// entry can go stale, and a computation in flight across a Publish is
// memoised like any other. Publish still removes the entries that target
// the superseded latest version, because nothing will ask for them
// again and they would otherwise hold memory until evicted.

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
	// Invalidations counts entries dropped by Publish: the patches to
	// the latest version it superseded, pruned bases included.
	Invalidations uint64 `json:"invalidations"`
	// DiskHits counts cold in-memory lookups answered by the durable
	// patch store without a recomputation; DiskMisses counts the ones
	// that had to compute despite a disk tier being attached.
	DiskHits   uint64 `json:"diskHits"`
	DiskMisses uint64 `json:"diskMisses"`
	// IndexBuilds counts bsdiff indexes (suffix arrays) built for a
	// computation's base; IndexLoads counts the ones read back from the
	// durable patch store instead. Without a store every computation
	// builds one.
	IndexBuilds uint64 `json:"indexBuilds"`
	IndexLoads  uint64 `json:"indexLoads"`
	// Entries and Bytes describe the current cache contents.
	Entries int `json:"entries"`
	Bytes   int `json:"bytes"`
}

// patchKey names one differential payload by app and version pair: the
// durable tier's record key.
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

// size charges the patch's capacity, which is what an entry retains.
func (r patchResult) size() int { return cap(r.patch) + cacheEntryOverhead }

// computePatch derives the LZSS-compressed bsdiff patch from base to
// target, given base's bsdiff index sa. A patch at least as large as
// the target image is counterproductive and reported as non-viable.
// The patch is an exact-length copy: the encoder's buffer is sized for
// the worst case, several times a typical patch.
func computePatch(sa []int32, base, target []byte) patchResult {
	patch := lzss.Encode(bsdiff.DiffIndexed(sa, base, target))
	if len(patch) >= len(target) {
		return patchResult{}
	}
	return patchResult{patch: exactCopy(patch), viable: true}
}

// exactCopy copies b into a slice whose capacity is its length.
func exactCopy(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// digestPair keys the memory tier: the base and target firmware digests.
type digestPair struct{ base, target security.Digest }

// patchCache is the memory tier over the optional durable one.
type patchCache struct {
	mem *lru.Cache[digestPair, patchResult]

	// disk, when set, is the durable tier behind the memory one: memory
	// misses probe it before diffing, and fresh computations are
	// persisted to it, so warm patches survive a server restart. It also
	// holds each base's bsdiff index, so a cold pair from a known base
	// skips the larger part of the diff. Its records are pinned to the
	// same digests. Publish leaves it alone: a restarted server
	// republishing the same images must find its warm set intact, and
	// records for superseded pairs are garbage its own bound reclaims.
	// An index is never kept in memory: at 4 bytes per firmware byte, a
	// window of bases would outweigh the rest of the process.
	disk *PatchStore

	// compute derives a patch on a miss from base's index; it is
	// computePatch outside of tests, which swap it to hold a
	// computation in flight.
	compute func(sa []int32, base, target []byte) patchResult

	computations, invalidations, diskHits, diskMisses atomic.Uint64
	indexBuilds, indexLoads                           atomic.Uint64
}

// newPatchCache bounds the memory tier to maxBytes (<= 0 disables
// memoisation but keeps singleflight dedup) with disk, when non-nil, as
// its durable tier.
func newPatchCache(maxBytes int, disk *PatchStore) *patchCache {
	return &patchCache{
		mem:     lru.New[digestPair, patchResult](maxBytes, patchResult.size),
		disk:    disk,
		compute: computePatch,
	}
}

// resolve returns the differential payload from base to target, whose
// digests are baseDig and targetDig, computing it at most once across
// concurrent callers: memory tier, then the durable tier under key,
// then bsdiff+LZSS over base's index — read back from the durable tier
// when it holds one, else built. Callers must not mutate the returned
// patch — clone before handing it out.
func (c *patchCache) resolve(key patchKey, baseDig, targetDig security.Digest, base, target []byte) patchResult {
	computed := false
	var built []int32 // an index this call built, persisted with the patch
	res, _ := c.mem.Do(digestPair{baseDig, targetDig}, func() (patchResult, error) {
		var sa []int32
		if c.disk != nil {
			if res, ok := c.disk.Get(key, baseDig, targetDig); ok {
				c.diskHits.Add(1)
				return res, nil
			}
			c.diskMisses.Add(1)
			if idx, ok := c.disk.GetIndex(key.appID, key.from, baseDig, len(base)); ok {
				c.indexLoads.Add(1)
				sa = idx
			}
		}
		if sa == nil {
			sa = bsdiff.BuildIndex(base)
			c.indexBuilds.Add(1)
			built = sa
		}
		res := c.compute(sa, base, target)
		c.computations.Add(1)
		computed = true
		return res, nil
	})
	if computed && c.disk != nil {
		// Persist after the waiters are released: disk latency must not
		// extend the herd's wait. A failed append only costs durability
		// of this one patch or index.
		_ = c.disk.Put(key, baseDig, targetDig, res)
		if built != nil {
			_ = c.disk.PutIndex(key.appID, key.from, baseDig, built)
		}
	}
	return res
}

// dropSuperseded removes the cached patches from every earlier release
// of an app to its latest one, given the app's releases oldest first:
// once a Publish supersedes that latest, nothing asks for them again.
func (c *patchCache) dropSuperseded(releases []*vendorserver.Image) {
	if len(releases) == 0 {
		return
	}
	target := releases[len(releases)-1].Manifest.FirmwareDigest
	for _, b := range releases[:len(releases)-1] {
		if c.mem.Remove(digestPair{b.Manifest.FirmwareDigest, target}) {
			c.invalidations.Add(1)
		}
	}
}

// stats snapshots the counters.
func (c *patchCache) stats() CacheStats {
	st := c.mem.Stats()
	return CacheStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Waits:         st.Waits,
		Computations:  c.computations.Load(),
		Evictions:     st.Evictions,
		Invalidations: c.invalidations.Load(),
		DiskHits:      c.diskHits.Load(),
		DiskMisses:    c.diskMisses.Load(),
		IndexBuilds:   c.indexBuilds.Load(),
		IndexLoads:    c.indexLoads.Load(),
		Entries:       st.Entries,
		Bytes:         st.Bytes,
	}
}
