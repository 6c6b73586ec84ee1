package updateserver

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"upkit/internal/framelog"
	"upkit/internal/manifest"
	"upkit/internal/vendorserver"
)

// FileStore is the durable ReleaseStore: every app's releases live in
// a framelog.Log under a state directory, so a restarted server serves
// the identical release set — including the exact bytes a device's
// reception journal checkpointed against mid-download.
//
// On-disk format, one file per app (`app-<hex appid>.log`) of framelog
// records with magic "UPRS", in publish order, whose payload is the
// wire-encoded vendor-signed manifest (manifest.EncodedSize bytes)
// followed by the firmware.
//
// Durability argument:
//
//   - Publish appends the record and fsyncs the log before the image
//     becomes visible to readers, so an acknowledged publish survives
//     a crash, and a crash mid-append leaves only an invisible torn
//     tail, which startup replay truncates.
//   - Prune drops releases from memory and leaves their records in the
//     log as dead bytes until framelog's compaction rule rewrites it.
//     A replay therefore brings pruned releases back, so the server
//     applies its retention bound once at construction as well as on
//     every publish: a release pruned before a crash is never served
//     after it.
//
// Reads are served from an embedded MemStore rebuilt at startup, so
// the request hot path is identical to the in-memory backend; only
// Publish and Prune touch the disk.
type FileStore struct {
	dir string
	mem *MemStore

	mu   sync.Mutex // guards logs map and closed flag
	logs map[uint32]*appLog

	closed bool

	// Load-time facts, written once in NewFileStore.
	loadSeconds float64
	tornTails   int
}

// appLog is one app's open record log. Its mutex serializes appends
// and prunes for that app; different apps write independently.
type appLog struct {
	mu  sync.Mutex
	log *framelog.Log
	// frames locates the app's stored releases in the log, oldest
	// first, parallel to its MemStore snapshot.
	frames []framelog.Frame
}

// FileStore errors.
var (
	ErrStoreClosed = errors.New("updateserver: release store is closed")
)

const storeRecMagic uint32 = 0x55505253 // "UPRS"

// NewFileStore opens (creating if needed) the release store rooted at
// dir and replays every app log into memory, truncating any torn tail
// — the artifact of a crash mid-publish.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("updateserver: state dir: %w", err)
	}
	s := &FileStore{
		dir:  dir,
		mem:  NewMemStore(),
		logs: make(map[uint32]*appLog),
	}
	start := time.Now()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("updateserver: state dir: %w", err)
	}
	for _, e := range entries {
		appID, ok := appIDFromLogName(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		if err := s.openLog(appID); err != nil {
			s.Close()
			return nil, fmt.Errorf("updateserver: replay %s: %w", e.Name(), err)
		}
	}
	s.loadSeconds = time.Since(start).Seconds()
	return s, nil
}

// Dir returns the store's state directory.
func (s *FileStore) Dir() string { return s.dir }

// logName renders an app's log file name.
func logName(appID uint32) string { return fmt.Sprintf("app-%08x.log", appID) }

// appIDFromLogName parses the app ID out of a log file name.
func appIDFromLogName(name string) (uint32, bool) {
	if !strings.HasPrefix(name, "app-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "app-"), ".log")
	v, err := strconv.ParseUint(hex, 16, 32)
	if err != nil {
		return 0, false
	}
	return uint32(v), true
}

// decodeRelease parses one record payload, or ok=false when it is not a
// manifest followed by exactly the firmware it describes.
func decodeRelease(p []byte) (*vendorserver.Image, bool) {
	if len(p) < manifest.EncodedSize {
		return nil, false
	}
	m, err := manifest.Unmarshal(p[:manifest.EncodedSize])
	if err != nil {
		return nil, false
	}
	fw := p[manifest.EncodedSize:]
	if int(m.Size) != len(fw) {
		return nil, false
	}
	return &vendorserver.Image{Manifest: *m, Firmware: append([]byte(nil), fw...)}, true
}

// openLog opens (creating if needed) app's log, replays it into the
// memory index and registers it for appends; s.mu must be held or the
// store not yet shared. A stale record (version not newer than the one
// before it) cannot be produced by Publish; it is skipped as dead so
// one bad record does not shadow the rest of the log.
func (s *FileStore) openLog(appID uint32) error {
	l := &appLog{}
	log, torn, err := framelog.Open(filepath.Join(s.dir, logName(appID)), storeRecMagic, func(p []byte, fr framelog.Frame) bool {
		img, ok := decodeRelease(p)
		if ok && s.mem.Publish(img) == nil {
			l.frames = append(l.frames, fr)
		}
		return ok
	})
	if err != nil {
		return err
	}
	if torn {
		s.tornTails++
	}
	l.log = log
	s.logs[appID] = l
	return nil
}

// log returns (creating if needed) the open log for app.
func (s *FileStore) log(appID uint32) (*appLog, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStoreClosed
	}
	if _, ok := s.logs[appID]; !ok {
		if err := s.openLog(appID); err != nil {
			return nil, err
		}
	}
	return s.logs[appID], nil
}

// Publish implements ReleaseStore: append the record, fsync, then make
// the image visible to readers. The per-app log lock serializes
// publishes for one app; other apps proceed in parallel.
func (s *FileStore) Publish(img *vendorserver.Image) error {
	if img == nil {
		return errors.New("updateserver: nil image")
	}
	l, err := s.log(img.Manifest.AppID)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Reject stale versions before touching the disk: a doomed record
	// must not reach the log.
	if latest, ok := s.mem.Latest(img.Manifest.AppID); ok && img.Manifest.Version <= latest.Manifest.Version {
		return fmt.Errorf("%w: v%d after v%d", ErrStaleVersion, img.Manifest.Version, latest.Manifest.Version)
	}
	m, err := img.Manifest.MarshalBinary()
	if err != nil {
		return err
	}
	fr, err := l.log.Append(m, img.Firmware)
	if err != nil {
		return fmt.Errorf("updateserver: append release: %w", err)
	}
	if err := s.mem.Publish(img); err != nil {
		return err
	}
	l.frames = append(l.frames, fr)
	return nil
}

// Latest implements ReleaseStore.
func (s *FileStore) Latest(appID uint32) (*vendorserver.Image, bool) { return s.mem.Latest(appID) }

// ByVersion implements ReleaseStore.
func (s *FileStore) ByVersion(appID uint32, v uint16) (*vendorserver.Image, bool) {
	return s.mem.ByVersion(appID, v)
}

// Apps implements ReleaseStore.
func (s *FileStore) Apps() []uint32 { return s.mem.Apps() }

// Snapshot implements ReleaseStore.
func (s *FileStore) Snapshot(appID uint32) []*vendorserver.Image { return s.mem.Snapshot(appID) }

// Prune implements ReleaseStore. The pruned releases' records become
// dead bytes in their app's log, and the log compacts under
// framelog's rule; a failed compaction only leaves the dead bytes in
// place.
func (s *FileStore) Prune(n int) []uint32 {
	if n <= 0 {
		return nil
	}
	var pruned []uint32
	for _, appID := range s.mem.Apps() {
		l, err := s.log(appID)
		if err != nil {
			continue // closed store or unopenable log: nothing to prune
		}
		l.mu.Lock()
		if s.mem.pruneApp(appID, n) {
			l.frames = append([]framelog.Frame(nil), l.frames[max(0, len(l.frames)-n):]...)
			_, _ = l.log.Compact(l.frames)
			pruned = append(pruned, appID)
		}
		l.mu.Unlock()
	}
	return pruned
}

// Stats implements ReleaseStore.
func (s *FileStore) Stats() StoreStats {
	st := s.mem.Stats()
	st.LoadSeconds = s.loadSeconds
	st.TornTails = s.tornTails
	return st
}

// Close releases every open log handle. The in-memory index keeps
// serving reads; further Publish and Prune calls fail.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, l := range s.logs {
		l.mu.Lock()
		if err := l.log.Close(); err != nil && first == nil {
			first = err
		}
		l.mu.Unlock()
	}
	s.logs = make(map[uint32]*appLog)
	return first
}
