// Package dist is the content-addressed distribution seam: firmware
// payloads become immutable sequences of named blocks that any node —
// the origin update server, a caching proxy, an already-updated peer —
// can serve interchangeably.
//
// The name of a payload is the SHA-256 of its bytes. Because UpKit's
// double signature binds the *image* to a device and nonce (not the
// channel it travelled), a block is verifiable no matter who served it:
// the device reassembles the payload, and the existing manifest-digest
// + double-signature pipeline accepts or rejects the result. Every
// intermediary is therefore an untrusted cache by construction — a
// poisoned or stale block can waste a transfer, never install code.
//
// Two Source implementations live here: Registry, the LRU-by-bytes
// store of whole named payloads the origin (and peers) serve from, and
// CachingSource, the proxy-tier block cache that fills from an upstream
// Source on miss with singleflight dedup, so a thousand-device wave
// costs one origin fetch per block.
//
// The package is dependency-free (stdlib only); CoAP framing, telemetry
// bridging, and transport live in the layers above.
package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"

	"upkit/internal/lru"
)

// NameSize is the size of a block name in bytes (SHA-256).
const NameSize = 32

// Name is the content address of a payload: the SHA-256 of its bytes.
// Identical payloads — every device of an unencrypted campaign pulls
// byte-identical patch bytes — share one name, which is what makes
// in-network caching effective.
type Name [NameSize]byte

// NameOf computes the content address of payload.
func NameOf(payload []byte) Name { return sha256.Sum256(payload) }

// String renders the name as lowercase hex — the wire form used in
// CoAP query options.
func (n Name) String() string { return hex.EncodeToString(n[:]) }

// Source errors.
var (
	// ErrUnknownName reports that the source does not hold the payload.
	ErrUnknownName = errors.New("dist: unknown payload name")
	// ErrOutOfRange reports a block number past the payload's end.
	ErrOutOfRange = errors.New("dist: block out of range")
	// ErrBadName reports a malformed name encoding.
	ErrBadName = errors.New("dist: malformed name")
)

// ParseName decodes the hex form produced by Name.String, from a string
// or — without copying them — from the bytes of a CoAP query option.
func ParseName[S string | []byte](s S) (Name, error) {
	var n Name
	if len(s) != 2*NameSize {
		return n, fmt.Errorf("%w: %d chars, want %d", ErrBadName, len(s), 2*NameSize)
	}
	if _, err := hex.Decode(n[:], []byte(s)); err != nil {
		return n, fmt.Errorf("%w: %v", ErrBadName, err)
	}
	return n, nil
}

// Source serves blocks of named payloads. Block returns size bytes of
// the payload starting at num*size (the final block may be shorter) and
// whether further blocks follow. Callers must not mutate the returned
// slice; implementations may alias internal storage.
type Source interface {
	Block(name Name, num uint32, size int) (data []byte, more bool, err error)
}

// MultiSource chains sources: Block asks each in order and serves from
// the first that knows the name. Sources that hold disjoint payload
// populations — the origin's fleet-shared registry and its per-device
// private registry — compose into one serve surface this way. Errors
// other than ErrUnknownName stop the chain (the source knows the name
// but cannot serve the block, e.g. ErrOutOfRange).
func MultiSource(srcs ...Source) Source { return multiSource(srcs) }

type multiSource []Source

func (m multiSource) Block(name Name, num uint32, size int) ([]byte, bool, error) {
	for _, s := range m {
		data, more, err := s.Block(name, num, size)
		if err == nil || !errors.Is(err, ErrUnknownName) {
			return data, more, err
		}
	}
	return nil, false, ErrUnknownName
}

// registryOverhead approximates the bookkeeping bytes charged per
// stored payload on top of the payload itself.
const registryOverhead = 96

// DefaultRegistryBytes bounds a Registry constructed with n <= 0: room
// for a generous working set of constrained-device payloads.
const DefaultRegistryBytes = 16 << 20

// Registry is a size-bounded, content-addressed store of whole
// payloads, serving them as named blocks. Put is idempotent — storing
// the same bytes twice refreshes one entry — so the origin can register
// every prepared update and an unencrypted campaign still occupies a
// single slot. Eviction is LRU by bytes, with one exception: the most
// recently stored payload is always kept even if it alone exceeds the
// bound, so a just-prepared update is always servable.
//
// Registry is safe for concurrent use and implements Source.
type Registry struct {
	// payloads counts Block lookups as its hits and misses; Put and
	// Payload look up uncounted.
	payloads *lru.Cache[Name, []byte]
	puts     atomic.Uint64
}

// NewRegistry creates a registry bounded to maxBytes (<= 0 selects
// DefaultRegistryBytes).
func NewRegistry(maxBytes int) *Registry {
	if maxBytes <= 0 {
		maxBytes = DefaultRegistryBytes
	}
	size := func(p []byte) int { return len(p) + registryOverhead }
	return &Registry{payloads: lru.New[Name, []byte](maxBytes, size)}
}

// Put stores payload under its content address and returns the name.
// The payload is copied on first insert; re-putting identical bytes
// only refreshes the entry's LRU position.
func (r *Registry) Put(payload []byte) Name {
	name := NameOf(payload)
	r.puts.Add(1)
	if _, ok := r.payloads.Touch(name); !ok {
		r.payloads.Add(name, bytes.Clone(payload))
	}
	return name
}

// Payload returns the stored bytes for name, or ok=false. Callers must
// not mutate the result.
func (r *Registry) Payload(name Name) ([]byte, bool) { return r.payloads.Touch(name) }

// Block implements Source over the stored payloads.
func (r *Registry) Block(name Name, num uint32, size int) ([]byte, bool, error) {
	if size <= 0 {
		return nil, false, fmt.Errorf("dist: invalid block size %d", size)
	}
	payload, ok := r.payloads.Get(name)
	if !ok {
		return nil, false, ErrUnknownName
	}
	return sliceBlock(payload, num, size)
}

// sliceBlock cuts block num of the given size out of payload.
func sliceBlock(payload []byte, num uint32, size int) ([]byte, bool, error) {
	start := int(num) * size
	if start > len(payload) || (start == len(payload) && start > 0) {
		return nil, false, fmt.Errorf("%w: block %d of %d-byte payload", ErrOutOfRange, num, len(payload))
	}
	end := min(start+size, len(payload))
	return payload[start:end], end < len(payload), nil
}

// RegistryStats is a snapshot of a Registry's counters.
type RegistryStats struct {
	// Puts counts Put calls; Hits/Misses count Block lookups.
	Puts   uint64 `json:"puts"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts payloads dropped by the size bound.
	Evictions uint64 `json:"evictions"`
	// Entries and Bytes describe the current contents.
	Entries int `json:"entries"`
	Bytes   int `json:"bytes"`
}

// Stats snapshots the registry's counters.
func (r *Registry) Stats() RegistryStats {
	st := r.payloads.Stats()
	return RegistryStats{
		Puts:      r.puts.Load(),
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Bytes:     st.Bytes,
	}
}
