// Package lru is the host side's one bounded cache: a map bounded by
// the bytes of its values, evicting least recently used entries, with
// singleflight dedup so that concurrent first requests for a missing
// key cost one fill. The update server's patch cache and its durable
// patch index, the block registry, the proxy tier's chunk cache and
// the CoAP session table are all one of these.
//
// One eviction rule: an insert evicts least recently used entries until
// the new entry fits, but never the new entry itself, so the newest
// entry is always kept even when it alone exceeds the bound. A bound
// <= 0 stores nothing; Do still deduplicates concurrent fills.
package lru

import "sync"

// Cache is a byte-bounded LRU map, safe for concurrent use. Fills run
// outside its lock.
type Cache[K comparable, V any] struct {
	size     func(V) int
	maxBytes int

	mu    sync.Mutex
	bytes int
	// root links the entries in use order: root.next is the most
	// recently used, root.prev the least.
	root  entry[K, V]
	items map[K]*entry[K, V]
	calls map[K]*call[V]

	hits, misses, waits, evictions uint64
}

// entry is one stored value and its place in the use order; a hit
// touches only its entry and the neighbours it is unlinked from.
type entry[K comparable, V any] struct {
	key        K
	val        V
	size       int
	prev, next *entry[K, V]
}

// call is one in-flight fill other callers wait on. val and err are
// written once, before done is closed.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Stats is a snapshot of a cache's counters.
type Stats struct {
	// Hits and Misses count Get and Do lookups; a Do miss is the one
	// caller that fills. Waits counts Do callers that joined an
	// in-flight fill instead.
	Hits, Misses, Waits uint64
	// Evictions counts entries dropped by the bound.
	Evictions uint64
	// Entries and Bytes describe the current contents.
	Entries, Bytes int
}

// New creates a cache bounded to maxBytes, charging each value
// size(value) bytes.
func New[K comparable, V any](maxBytes int, size func(V) int) *Cache[K, V] {
	c := &Cache[K, V]{
		size:     size,
		maxBytes: maxBytes,
		items:    make(map[K]*entry[K, V]),
		calls:    make(map[K]*call[V]),
	}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value stored under key and marks it most recently
// used.
func (c *Cache[K, V]) Get(key K) (V, bool) { return c.lookup(key, true) }

// Touch is Get without counting a hit or a miss, for lookups that are
// not the traffic Stats describes, such as an owner refreshing an entry
// it was about to add.
func (c *Cache[K, V]) Touch(key K) (V, bool) { return c.lookup(key, false) }

func (c *Cache[K, V]) lookup(key K, count bool) (val V, ok bool) {
	c.mu.Lock()
	e, ok := c.items[key]
	if ok {
		c.touchLocked(e)
		val = e.val
	}
	if count && ok {
		c.hits++
	} else if count {
		c.misses++
	}
	c.mu.Unlock()
	return val, ok
}

// Add stores val under key as the most recently used entry, replacing
// any previous value, and evicts from the least recently used end until
// it fits.
func (c *Cache[K, V]) Add(key K, val V) {
	c.mu.Lock()
	c.addLocked(key, val)
	c.mu.Unlock()
}

func (c *Cache[K, V]) addLocked(key K, val V) {
	if c.maxBytes <= 0 {
		return
	}
	if old, ok := c.items[key]; ok {
		c.removeLocked(old)
	}
	e := &entry[K, V]{key: key, val: val, size: c.size(val)}
	for c.bytes+e.size > c.maxBytes && c.root.prev != &c.root {
		c.removeLocked(c.root.prev)
		c.evictions++
	}
	c.pushFrontLocked(e)
	c.items[key] = e
	c.bytes += e.size
}

// touchLocked makes e the most recently used entry.
func (c *Cache[K, V]) touchLocked(e *entry[K, V]) {
	if c.root.next != e {
		e.prev.next, e.next.prev = e.next, e.prev
		c.pushFrontLocked(e)
	}
}

func (c *Cache[K, V]) pushFrontLocked(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.next.prev = e
	c.root.next = e
}

// Remove drops key's entry, reporting whether there was one. A fill in
// flight for key is not affected.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if ok {
		c.removeLocked(e)
	}
	return ok
}

func (c *Cache[K, V]) removeLocked(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	delete(c.items, e.key)
	c.bytes -= e.size
}

// Do returns the value stored under key, or else calls fill at most
// once across concurrent callers of key: the others wait for its result.
// A successful fill is stored; a failed one is not, and the next caller
// fills again.
func (c *Cache[K, V]) Do(key K, fill func() (V, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		c.hits++
		c.touchLocked(e)
		val := e.val
		c.mu.Unlock()
		return val, nil
	}
	if cl, ok := c.calls[key]; ok {
		c.waits++
		c.mu.Unlock()
		<-cl.done
		return cl.val, cl.err
	}
	c.misses++
	cl := &call[V]{done: make(chan struct{})}
	c.calls[key] = cl
	c.mu.Unlock()

	cl.val, cl.err = fill()

	c.mu.Lock()
	delete(c.calls, key)
	if cl.err == nil {
		c.addLocked(key, cl.val)
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.val, cl.err
}

// Walk calls fn on every entry stored at the time of the call, least
// recently used first. It runs fn outside the cache lock.
func (c *Cache[K, V]) Walk(fn func(key K, val V)) {
	c.mu.Lock()
	entries := make([]*entry[K, V], 0, len(c.items))
	for e := c.root.prev; e != &c.root; e = e.prev {
		entries = append(entries, e)
	}
	c.mu.Unlock()
	for _, e := range entries {
		fn(e.key, e.val)
	}
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Waits:     c.waits,
		Evictions: c.evictions,
		Entries:   len(c.items),
		Bytes:     c.bytes,
	}
}
