package updateserver

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"upkit/internal/vendorserver"
)

// The release store.
//
// The update server's durable state is exactly one thing: the set of
// vendor-signed images published per app. Everything else the server
// does — token binding, diffing, signing, announcing — is a stateless
// pipeline over that set. ReleaseStore cuts the seam the SUIT
// architecture draws between the "firmware repository" and the party
// that serves devices, so the repository can evolve independently: in
// memory (MemStore), or backed by per-app record logs that survive a
// server restart (FileStore) — which is what lets a restarted server
// re-serve the exact bytes a device's reception journal checkpointed
// against.

// ReleaseStore is the release repository behind an update server.
// Implementations must be safe for concurrent use; images handed in
// and out are shared, immutable-by-convention snapshots (callers must
// not mutate a stored image's manifest or firmware).
type ReleaseStore interface {
	// Publish stores img. Versions must be strictly increasing per
	// app; publishing a version not newer than the stored latest fails
	// with ErrStaleVersion.
	Publish(img *vendorserver.Image) error
	// Latest returns the newest stored image for app, or ok=false.
	Latest(appID uint32) (*vendorserver.Image, bool)
	// ByVersion returns the stored image with exactly version v, or
	// ok=false.
	ByVersion(appID uint32, v uint16) (*vendorserver.Image, bool)
	// Prune bounds every app's history to its newest n releases and
	// reports the apps it dropped releases from. n <= 0 keeps
	// everything and reports nil.
	Prune(n int) []uint32
	// Apps lists every app holding at least one release, ascending.
	Apps() []uint32
	// Snapshot returns app's stored releases, oldest first. The slice
	// is the caller's; the images are shared.
	Snapshot(appID uint32) []*vendorserver.Image
	// Stats sizes the store for telemetry.
	Stats() StoreStats
}

// StoreStats sizes a release store, exposed as upkit_store_* gauges.
type StoreStats struct {
	// Apps and Releases count distinct apps and stored images.
	Apps     int `json:"apps"`
	Releases int `json:"releases"`
	// Bytes is the firmware payload bytes held (manifests excluded).
	Bytes int `json:"bytes"`
	// LoadSeconds is the time a durable store spent replaying its logs
	// at startup; zero for in-memory stores.
	LoadSeconds float64 `json:"loadSeconds"`
	// TornTails counts log files whose tail record was torn (e.g. by a
	// crash mid-publish) and discarded during replay.
	TornTails int `json:"tornTails"`
}

// MemStore is the in-memory ReleaseStore: every app's releases behind
// one RWMutex, so the read-mostly request hot path (Latest/ByVersion)
// takes only read locks.
type MemStore struct {
	mu   sync.RWMutex
	apps map[uint32][]*vendorserver.Image // per app, sorted by version
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{apps: make(map[uint32][]*vendorserver.Image)}
}

// Publish implements ReleaseStore.
func (s *MemStore) Publish(img *vendorserver.Image) error {
	if img == nil {
		return errors.New("updateserver: nil image")
	}
	appID := img.Manifest.AppID
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.apps[appID]
	if n := len(list); n > 0 && img.Manifest.Version <= list[n-1].Manifest.Version {
		return fmt.Errorf("%w: v%d after v%d", ErrStaleVersion, img.Manifest.Version, list[n-1].Manifest.Version)
	}
	s.apps[appID] = append(list, img)
	return nil
}

// Latest implements ReleaseStore.
func (s *MemStore) Latest(appID uint32) (*vendorserver.Image, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	list := s.apps[appID]
	if len(list) == 0 {
		return nil, false
	}
	return list[len(list)-1], true
}

// ByVersion implements ReleaseStore.
func (s *MemStore) ByVersion(appID uint32, v uint16) (*vendorserver.Image, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	img := lookupVersion(s.apps[appID], v)
	return img, img != nil
}

// pruneApp trims one app's history to its newest n releases, reporting
// whether anything was dropped.
func (s *MemStore) pruneApp(appID uint32, n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.apps[appID]
	if n <= 0 || len(list) <= n {
		return false
	}
	s.apps[appID] = append([]*vendorserver.Image{}, list[len(list)-n:]...)
	return true
}

// Prune implements ReleaseStore.
func (s *MemStore) Prune(n int) []uint32 {
	if n <= 0 {
		return nil
	}
	var pruned []uint32
	for _, app := range s.Apps() {
		if s.pruneApp(app, n) {
			pruned = append(pruned, app)
		}
	}
	return pruned
}

// Apps implements ReleaseStore.
func (s *MemStore) Apps() []uint32 {
	s.mu.RLock()
	var apps []uint32
	for app, list := range s.apps {
		if len(list) > 0 {
			apps = append(apps, app)
		}
	}
	s.mu.RUnlock()
	sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
	return apps
}

// Snapshot implements ReleaseStore.
func (s *MemStore) Snapshot(appID uint32) []*vendorserver.Image {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*vendorserver.Image{}, s.apps[appID]...)
}

// Stats implements ReleaseStore.
func (s *MemStore) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st StoreStats
	for _, list := range s.apps {
		if len(list) == 0 {
			continue
		}
		st.Apps++
		st.Releases += len(list)
		for _, img := range list {
			st.Bytes += len(img.Firmware)
		}
	}
	return st
}
