package proxy

import (
	"upkit/internal/coap"
	"upkit/internal/dist"
	"upkit/internal/telemetry"
)

// The caching proxy tier of the content-addressed serve path.
//
// A Cache sits between a device population and the origin: requests for
// named blocks (GET /upkit/blocks) are answered from an LRU-by-bytes
// chunk cache that fills from the origin on miss, with singleflight
// dedup — a 1k-device wave costs the origin one fetch per block instead
// of one per device. Everything else (version polls, update requests,
// name lookups) is forwarded verbatim: those are per-device and tiny,
// and the origin must see them to prepare sessions.
//
// The cache needs no key material and is never trusted: the double
// signature travels in the manifest, so a proxy serving wrong bytes —
// buggy, stale, or hostile — produces a digest failure on the device
// and a failover to the next source, never an installed image.

// CacheOptions configures a Cache.
type CacheOptions struct {
	// MaxBytes bounds the block cache (dist.DefaultCacheBytes when 0).
	MaxBytes int
	// Telemetry, when set, exports the cache's counters as
	// upkit_cache_{hit,miss,fill}_total plus entry/byte gauges.
	Telemetry *telemetry.Registry
	// Instance distinguishes multiple proxies on one registry (label
	// proxy=<instance>); registering two proxies under the same name and
	// instance would silently replace each other's callbacks.
	Instance string
}

// Cache is a caching CoAP proxy for named blocks.
type Cache struct {
	origin coap.Exchanger
	src    *dist.CachingSource
	blocks coap.BlockServer
}

// NewCache creates a caching proxy that fills from the origin reachable
// over origin.
func NewCache(origin coap.Exchanger, opts CacheOptions) *Cache {
	c := &Cache{
		origin: origin,
		src:    dist.NewCachingSource(&coap.ExchangerSource{Ex: origin}, opts.MaxBytes),
	}
	c.blocks = coap.BlockServer{Source: c.src}
	if reg := opts.Telemetry; reg != nil {
		var labels []telemetry.Label
		if opts.Instance != "" {
			labels = []telemetry.Label{telemetry.L("proxy", opts.Instance)}
		}
		stat := func(read func(dist.CacheStats) float64) func() float64 {
			return func() float64 { return read(c.src.Stats()) }
		}
		reg.CounterFunc("upkit_cache_hit_total", "Proxy block requests served from cache.",
			stat(func(s dist.CacheStats) float64 { return float64(s.Hits) }), labels...)
		reg.CounterFunc("upkit_cache_miss_total", "Proxy block requests that missed the cache.",
			stat(func(s dist.CacheStats) float64 { return float64(s.Misses) }), labels...)
		reg.CounterFunc("upkit_cache_fill_total", "Origin fetches that filled the proxy cache.",
			stat(func(s dist.CacheStats) float64 { return float64(s.Fills) }), labels...)
		reg.GaugeFunc("upkit_cache_entries", "Chunks currently cached by the proxy.",
			stat(func(s dist.CacheStats) float64 { return float64(s.Entries) }), labels...)
		reg.GaugeFunc("upkit_cache_bytes", "Bytes currently cached by the proxy.",
			stat(func(s dist.CacheStats) float64 { return float64(s.Bytes) }), labels...)
	}
	return c
}

// Handle is the proxy's CoAP Handler: named-block requests hit the
// cache, everything else forwards to the origin unchanged.
func (c *Cache) Handle(req *coap.Message) *coap.Message {
	if req.Code == coap.CodeGET && req.PathIs(coap.PathBlocks) {
		return c.blocks.Handle(req)
	}
	resp, err := c.origin.Exchange(req)
	if err != nil {
		return &coap.Message{Type: coap.Acknowledgement, Code: coap.CodeIntErr}
	}
	return resp
}

// Stats snapshots the proxy's block-cache counters.
func (c *Cache) Stats() dist.CacheStats { return c.src.Stats() }
