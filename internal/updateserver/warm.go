package updateserver

import (
	"fmt"
	"sort"
	"sync"
)

// Patch warming: the server half of the patch farm.
//
// A fleet campaign is visible to the serve path as a burst of requests
// on a handful of (app, fromVersion) pairs. The server records that
// census as it serves (pairTracker), and exposes two primitives the
// farm builds on: HotPairs, the observed pairs resolved against the
// current latest version, and WarmPatch, which forces one pair's
// differential into the cache tiers (memory LRU + durable patch store)
// through the same singleflight path requests use — so a farm worker
// and a device request racing on the same cold pair still cost one
// bsdiff between them.

// maxTrackedPairs bounds the observed-pair census. 4096 (app, from)
// pairs is far beyond any realistic concurrent campaign spread; beyond
// it new pairs are dropped rather than evicting hot ones.
const maxTrackedPairs = 4096

// fromKey is one observed (app, fromVersion) population.
type fromKey struct {
	appID uint32
	from  uint16
}

// pairTracker counts differential requests per (app, fromVersion). It
// is a single short critical section on the request path — trivial
// next to the ECDSA signature that follows it.
type pairTracker struct {
	mu   sync.Mutex
	seen map[fromKey]uint64
}

func (t *pairTracker) record(appID uint32, from uint16) {
	k := fromKey{appID: appID, from: from}
	t.mu.Lock()
	if t.seen == nil {
		t.seen = make(map[fromKey]uint64)
	}
	if _, ok := t.seen[k]; ok || len(t.seen) < maxTrackedPairs {
		t.seen[k]++
	}
	t.mu.Unlock()
}

// snapshot copies the census.
func (t *pairTracker) snapshot() map[fromKey]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[fromKey]uint64, len(t.seen))
	for k, v := range t.seen {
		out[k] = v
	}
	return out
}

// VersionPair identifies one (from → to) differential for an app. To
// may be zero in warm requests, meaning "the latest version at warm
// time".
type VersionPair struct {
	AppID uint32 `json:"app"`
	From  uint16 `json:"from"`
	To    uint16 `json:"to,omitempty"`
	// Requests is the observed request count behind the pair (HotPairs
	// results) or the operator-supplied device weight (census warm
	// requests); it orders warming, hottest first.
	Requests uint64 `json:"requests,omitempty"`
}

// HotPairs returns the observed differential request pairs, hottest
// first, with To resolved to each app's current latest version — the
// feed the patch farm warms after a new release supersedes the pairs
// devices were asking for. Pairs whose From is no longer below the
// latest (or whose app lost all releases) are omitted. max <= 0
// returns everything.
func (s *Server) HotPairs(max int) []VersionPair {
	seen := s.pairs.snapshot()
	latest := make(map[uint32]uint16)
	out := make([]VersionPair, 0, len(seen))
	for k, n := range seen {
		to, ok := latest[k.appID]
		if !ok {
			if img, exists := s.store.Latest(k.appID); exists {
				to = img.Manifest.Version
			}
			latest[k.appID] = to // 0 marks a vanished app
		}
		if to == 0 || k.from >= to {
			continue
		}
		out = append(out, VersionPair{AppID: k.appID, From: k.from, To: to, Requests: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Requests != out[j].Requests {
			return out[i].Requests > out[j].Requests
		}
		if out[i].AppID != out[j].AppID {
			return out[i].AppID < out[j].AppID
		}
		return out[i].From < out[j].From
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// WarmResult reports what WarmPatch found or did.
type WarmResult struct {
	// To is the resolved target version (the latest at warm time when
	// the request left it zero).
	To uint16 `json:"to"`
	// AlreadyResident reports that the pair was already in the memory
	// tier — the warm was a no-op.
	AlreadyResident bool `json:"alreadyResident"`
	// Viable reports whether a differential beats the full image for
	// this pair; non-viable verdicts are cached and persisted too.
	Viable bool `json:"viable"`
	// PatchBytes is the compressed patch size (0 when non-viable).
	PatchBytes int `json:"patchBytes"`
}

// WarmPatch ensures the (from → to) differential for app is resident
// in the cache tiers, computing it if no tier holds it. to == 0 targets
// the current latest version. It runs through the same singleflight
// path as device requests, so warming never duplicates an in-flight
// request's diff (and vice versa). Errors report unknown apps,
// unstored versions, and non-upgrade pairs.
func (s *Server) WarmPatch(appID uint32, from, to uint16) (WarmResult, error) {
	latest, ok := s.store.Latest(appID)
	if !ok {
		return WarmResult{}, fmt.Errorf("%w: %#x", ErrUnknownApp, appID)
	}
	target := latest
	if to == 0 {
		to = latest.Manifest.Version
	} else if to != latest.Manifest.Version {
		if target, ok = s.store.ByVersion(appID, to); !ok {
			return WarmResult{}, fmt.Errorf("updateserver: warm: no stored v%d for app %#x", to, appID)
		}
	}
	if from >= to {
		return WarmResult{}, fmt.Errorf("updateserver: warm: v%d→v%d is not an upgrade", from, to)
	}
	base, ok := s.store.ByVersion(appID, from)
	if !ok {
		return WarmResult{}, fmt.Errorf("updateserver: warm: no stored base v%d for app %#x", from, appID)
	}
	pk := patchKey{appID: appID, from: from, to: to}
	res, already := s.cache.resolve(pk, base.Manifest.FirmwareDigest, target.Manifest.FirmwareDigest,
		base.Firmware, target.Firmware)
	return WarmResult{
		To:              to,
		AlreadyResident: already,
		Viable:          res.viable,
		PatchBytes:      len(res.patch),
	}, nil
}
