// Package updateserver implements UpKit's update server: the Internet-
// facing component that stores vendor-signed images, reports the latest
// version to pollers, and — per request — performs the double-signature
// step that grants update freshness (§III-A/B).
//
// For each device request the server receives a device token (device
// ID, nonce, current version), copies it into the manifest, decides
// between a full image and a differential update (bsdiff + LZSS against
// the version the device reports), and signs the result with its own
// key. The signed image is then valid for exactly that device and that
// request, independent of transport security.
//
// The server itself is a stateless prepare pipeline: all release state
// lives behind the ReleaseStore interface (in memory by default,
// durable on disk via FileStore), so the repository can be swapped or
// shared without touching the pipeline.
package updateserver

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"upkit/internal/dist"
	"upkit/internal/httpapi"
	"upkit/internal/manifest"
	"upkit/internal/security"
	"upkit/internal/telemetry"
	"upkit/internal/vendorserver"
)

// Server errors.
var (
	ErrUnknownApp   = errors.New("updateserver: no releases for app")
	ErrNoNewUpdate  = errors.New("updateserver: device already runs the latest version")
	ErrStaleVersion = errors.New("updateserver: release version not newer than stored")
)

// Update is a prepared, double-signed update image ready for transfer.
type Update struct {
	// Manifest is the fully signed manifest.
	Manifest manifest.Manifest
	// ManifestBytes is its wire encoding (manifest.EncodedSize bytes).
	ManifestBytes []byte
	// Payload is the transfer payload: the full firmware, or the
	// LZSS-compressed bsdiff patch for differential updates.
	Payload []byte
	// Differential reports which of the two the payload is.
	Differential bool
	// Encrypted reports whether Payload is AES-CTR ciphertext.
	Encrypted bool
	// PayloadName is the content address of Payload in the server's
	// block registry: any node holding bytes with this name — origin,
	// caching proxy, updated peer — can serve the transfer. Unencrypted
	// payloads are byte-identical across devices asking for the same
	// version pair, so their names coincide and caches share them;
	// encrypted payloads carry a fresh IV per device and stay private.
	PayloadName dist.Name
}

// TotalSize is the number of bytes that travel to the device.
func (u *Update) TotalSize() int { return len(u.ManifestBytes) + len(u.Payload) }

// Server is the update server.
type Server struct {
	suite security.Suite

	// keyMu guards the per-request signing key, its ID, and the key
	// bundle: rotation swaps all three while requests are in flight.
	keyMu  sync.RWMutex
	key    *security.PrivateKey
	keyID  uint32
	bundle []byte

	// store holds the published releases; the server keeps no release
	// state of its own.
	store ReleaseStore

	// encMu guards the payload-encryption configuration, the server's
	// only remaining mutable state.
	encMu      sync.RWMutex
	payloadKey []byte
	entropy    io.Reader

	// retain bounds stored releases per app; 0 keeps everything.
	retain int

	// cache memoises differential payloads per firmware digest pair
	// with singleflight dedup; see cache.go. It has its own lock and is
	// independent of the store's locks. cacheBytes holds
	// WithPatchCacheSize's argument until New builds it.
	cache      *patchCache
	cacheBytes int

	// patchStore, when non-nil, is the durable tier behind the patch
	// cache (WithPatchStore); the cache holds the same pointer. The
	// injector keeps ownership and closes it on shutdown.
	patchStore *PatchStore

	// signers, when non-nil, is the bounded parallel signing pool
	// (WithSigners); nil signs inline on the request goroutine.
	signers *signerPool
	// signerCount holds WithSigners' argument until New builds the pool.
	signerCount int

	// blocks content-addresses every prepared *fleet-shared* payload so
	// the named-block serve path (CoAP /upkit/blocks, caching proxies,
	// peers) can serve it by name; see internal/dist. privBlocks holds
	// per-device encrypted payloads: each is a unique, single-consumer
	// name, so segregating them keeps an encrypted prepare storm from
	// evicting the blocks a whole unencrypted fleet shares.
	blocks     *dist.Registry
	privBlocks *dist.Registry

	// tel is the server's metrics registry, created by New; deployment
	// components that share the scrape report into it via Telemetry.
	// met holds the pre-resolved handles for the request hot path.
	tel *telemetry.Registry
	met serverMetrics

	// mounts are extra route sets (e.g. the campaign control plane)
	// registered onto the Handler's route table; see WithRoutes.
	mounts []func(*httpapi.Table)
}

// serverMetrics are the update server's pre-resolved metric handles.
type serverMetrics struct {
	reqDifferential *telemetry.Counter
	reqFull         *telemetry.Counter
	reqNoUpdate     *telemetry.Counter
	reqUnknownApp   *telemetry.Counter
	reqError        *telemetry.Counter
	published       *telemetry.Counter
	payloadBytes    *telemetry.Histogram
	prepareSeconds  *telemetry.Histogram
}

// Option configures a Server at construction time.
type Option func(*Server)

// WithPatchCacheSize bounds the differential-patch cache to n bytes;
// n <= 0 disables memoisation, though concurrent requests for one cold
// pair still share one computation. The default is
// DefaultPatchCacheBytes.
func WithPatchCacheSize(n int) Option {
	return func(s *Server) { s.cacheBytes = n }
}

// WithPatchStore attaches a durable patch store behind the in-memory
// patch cache: memory misses probe it before diffing, fresh
// computations are persisted to it, and a restarted server given the
// same store serves warm patches without redoing a single bsdiff. It
// also keeps each base release's bsdiff index, so a cold pair from a
// base diffed before reads the index back instead of rebuilding it
// (CacheStats.IndexLoads against IndexBuilds). The
// caller keeps ownership and closes the store on shutdown, mirroring
// WithStore.
func WithPatchStore(ps *PatchStore) Option {
	return func(s *Server) { s.patchStore = ps }
}

// WithSigners arms a pool of n parallel manifest signers (n <= 0
// selects GOMAXPROCS): per-request ECDSA signatures are computed by a
// bounded worker set fed from a buffered queue instead of on every
// request goroutine's stack, which keeps tail latency flat when
// thousands of prepares are in flight. Call Close on shutdown to stop
// the workers.
func WithSigners(n int) Option {
	return func(s *Server) {
		if n <= 0 {
			n = -1 // explicit "use GOMAXPROCS"
		}
		s.signerCount = n
	}
}

// WithRetention bounds the number of releases kept per app; 0 (the
// default) keeps everything. New prunes the store it is given once and
// every Publish prunes past the bound; a pruned release stops being a
// differential base: devices reporting that version get the full image
// (the token field covers this, §III-B).
func WithRetention(n int) Option {
	return func(s *Server) { s.retain = n }
}

// WithStore backs the server with st instead of the default in-memory
// store. Pass a FileStore to make published releases survive
// a server restart.
func WithStore(st ReleaseStore) Option {
	return func(s *Server) {
		if st != nil {
			s.store = st
		}
	}
}

// WithRoutes mounts an additional route set onto the server's HTTP
// route table — the hook the campaign control plane uses to appear on
// the same mux, same error envelope, same request counting as the
// update API. The registrar runs once per Handler call.
func WithRoutes(register func(*httpapi.Table)) Option {
	return func(s *Server) {
		if register != nil {
			s.mounts = append(s.mounts, register)
		}
	}
}

// Stats snapshots the patch cache's hit/miss/singleflight counters.
func (s *Server) Stats() CacheStats { return s.cache.stats() }

// Store returns the server's release store (never nil) — the durable
// half of the server, useful for admin surfaces and close-on-shutdown.
func (s *Server) Store() ReleaseStore { return s.store }

// Blocks returns the server's fleet-shared named-block registry (never
// nil): the store behind the origin's block server for unencrypted
// payloads, and the upstream that caching proxies fill from.
func (s *Server) Blocks() *dist.Registry { return s.blocks }

// PrivateBlocks returns the registry of per-device encrypted payloads
// (never nil). It is deliberately separate from Blocks: single-consumer
// ciphertext must not evict fleet-shared plaintext blocks.
func (s *Server) PrivateBlocks() *dist.Registry { return s.privBlocks }

// BlockSource returns the origin's complete block serve surface:
// fleet-shared payloads first, then per-device encrypted ones. This is
// what the CoAP block server should serve from.
func (s *Server) BlockSource() dist.Source {
	return dist.MultiSource(s.blocks, s.privBlocks)
}

// PatchStore returns the durable patch store attached via
// WithPatchStore, or nil.
func (s *Server) PatchStore() *PatchStore { return s.patchStore }

// Close stops the server's background machinery — today the parallel
// signing pool, when WithSigners armed one. Injected stores (release
// store, patch store) are owned by whoever opened them and are not
// closed here. Safe to call more than once; a closed server keeps
// serving, signing inline.
func (s *Server) Close() error {
	if s.signers != nil {
		s.signers.Close()
	}
	return nil
}

// Telemetry returns the server's metrics registry (never nil). Shared
// deployments hand it to transports, agents, and campaigns so they
// land in the same scrape (GET /api/v1/metrics).
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// New creates an update server signing with key under suite, applying
// any options.
func New(suite security.Suite, key *security.PrivateKey, opts ...Option) *Server {
	s := &Server{
		suite:      suite,
		key:        key,
		blocks:     dist.NewRegistry(0),
		privBlocks: dist.NewRegistry(privateRegistryBytes),
		tel:        telemetry.NewRegistry(),
		cacheBytes: DefaultPatchCacheBytes,
	}
	for _, opt := range opts {
		opt(s)
	}
	s.cache = newPatchCache(s.cacheBytes, s.patchStore)
	if s.store == nil {
		s.store = NewMemStore()
	}
	// A durable store replays releases pruned before a restart; apply
	// the bound once so none of them is ever served again.
	if s.retain > 0 {
		s.store.Prune(s.retain)
	}
	if s.signerCount != 0 {
		s.signers = newSignerPool(suite, s.signerCount)
	}
	s.initTelemetry()
	return s
}

// privateRegistryBytes bounds the per-device encrypted payload
// registry. It only needs to cover payloads between prepare and
// transfer, not a fleet working set.
const privateRegistryBytes = 4 << 20

// initTelemetry resolves the hot-path handles and bridges the patch
// cache's and the release store's own counters onto the registry,
// migrating both surfaces into the scrape without touching their lock
// disciplines.
func (s *Server) initTelemetry() {
	reg := s.tel
	s.met = serverMetrics{
		reqDifferential: reg.Counter("upkit_server_requests_total", "Update requests by result.", telemetry.L("result", "differential")),
		reqFull:         reg.Counter("upkit_server_requests_total", "Update requests by result.", telemetry.L("result", "full")),
		reqNoUpdate:     reg.Counter("upkit_server_requests_total", "Update requests by result.", telemetry.L("result", "no_update")),
		reqUnknownApp:   reg.Counter("upkit_server_requests_total", "Update requests by result.", telemetry.L("result", "unknown_app")),
		reqError:        reg.Counter("upkit_server_requests_total", "Update requests by result.", telemetry.L("result", "error")),
		published:       reg.Counter("upkit_server_releases_published_total", "Vendor-signed releases accepted by Publish."),
		payloadBytes:    reg.Histogram("upkit_server_payload_bytes", "Prepared update payload sizes.", telemetry.SizeBuckets),
		prepareSeconds:  reg.Histogram("upkit_server_prepare_seconds", "PrepareUpdate latency (host time).", nil),
	}
	stat := func(read func(CacheStats) float64) func() float64 {
		return func() float64 { return read(s.cache.stats()) }
	}
	reg.CounterFunc("upkit_patch_cache_hits_total", "Patch-cache hits.", stat(func(c CacheStats) float64 { return float64(c.Hits) }))
	reg.CounterFunc("upkit_patch_cache_misses_total", "Patch-cache misses.", stat(func(c CacheStats) float64 { return float64(c.Misses) }))
	reg.CounterFunc("upkit_patch_cache_waits_total", "Requests that piggybacked on an in-flight computation.", stat(func(c CacheStats) float64 { return float64(c.Waits) }))
	reg.CounterFunc("upkit_patch_cache_computations_total", "Actual bsdiff+LZSS runs.", stat(func(c CacheStats) float64 { return float64(c.Computations) }))
	reg.CounterFunc("upkit_patch_cache_evictions_total", "Entries dropped by the LRU bound.", stat(func(c CacheStats) float64 { return float64(c.Evictions) }))
	reg.CounterFunc("upkit_patch_cache_invalidations_total", "Entries dropped by Publish or retention pruning.", stat(func(c CacheStats) float64 { return float64(c.Invalidations) }))
	reg.GaugeFunc("upkit_patch_cache_entries", "Current cached patches.", stat(func(c CacheStats) float64 { return float64(c.Entries) }))
	reg.GaugeFunc("upkit_patch_cache_bytes", "Current cached patch bytes.", stat(func(c CacheStats) float64 { return float64(c.Bytes) }))
	reg.CounterFunc("upkit_patch_disk_hits_total", "Memory-tier misses served by the durable patch store.", stat(func(c CacheStats) float64 { return float64(c.DiskHits) }))
	reg.CounterFunc("upkit_patch_disk_misses_total", "Diffs computed despite an attached patch store.", stat(func(c CacheStats) float64 { return float64(c.DiskMisses) }))
	reg.CounterFunc("upkit_patch_index_builds_total", "Bsdiff base indexes (suffix arrays) built for a diff.", stat(func(c CacheStats) float64 { return float64(c.IndexBuilds) }))
	reg.CounterFunc("upkit_patch_index_loads_total", "Bsdiff base indexes read back from the durable patch store.", stat(func(c CacheStats) float64 { return float64(c.IndexLoads) }))
	if s.patchStore != nil {
		pstat := func(read func(PatchStoreStats) float64) func() float64 {
			return func() float64 { return read(s.patchStore.Stats()) }
		}
		reg.GaugeFunc("upkit_patch_store_entries", "Patches and base indexes held by the durable patch store.", pstat(func(st PatchStoreStats) float64 { return float64(st.Entries) }))
		reg.GaugeFunc("upkit_patch_store_bytes", "Live patch and base-index bytes in the durable patch store.", pstat(func(st PatchStoreStats) float64 { return float64(st.Bytes) }))
		reg.GaugeFunc("upkit_patch_store_file_bytes", "Patch log size on disk, dead records included.", pstat(func(st PatchStoreStats) float64 { return float64(st.FileBytes) }))
	}

	bstat := func(read func(dist.RegistryStats) float64) func() float64 {
		return func() float64 { return read(s.blocks.Stats()) }
	}
	reg.GaugeFunc("upkit_blockstore_entries", "Named payloads in the block registry.", bstat(func(st dist.RegistryStats) float64 { return float64(st.Entries) }))
	reg.GaugeFunc("upkit_blockstore_bytes", "Payload bytes in the block registry.", bstat(func(st dist.RegistryStats) float64 { return float64(st.Bytes) }))
	vstat := func(read func(dist.RegistryStats) float64) func() float64 {
		return func() float64 { return read(s.privBlocks.Stats()) }
	}
	reg.GaugeFunc("upkit_blockstore_private_entries", "Per-device encrypted payloads in the private registry.", vstat(func(st dist.RegistryStats) float64 { return float64(st.Entries) }))
	reg.GaugeFunc("upkit_blockstore_private_bytes", "Per-device encrypted payload bytes in the private registry.", vstat(func(st dist.RegistryStats) float64 { return float64(st.Bytes) }))

	sstat := func(read func(StoreStats) float64) func() float64 {
		return func() float64 { return read(s.store.Stats()) }
	}
	reg.GaugeFunc("upkit_store_releases", "Releases currently in the release store.", sstat(func(st StoreStats) float64 { return float64(st.Releases) }))
	reg.GaugeFunc("upkit_store_bytes", "Firmware bytes currently in the release store.", sstat(func(st StoreStats) float64 { return float64(st.Bytes) }))
	reg.GaugeFunc("upkit_store_apps", "Apps with at least one stored release.", sstat(func(st StoreStats) float64 { return float64(st.Apps) }))
	reg.GaugeFunc("upkit_store_load_seconds", "Time the store spent replaying its logs at startup.", sstat(func(st StoreStats) float64 { return st.LoadSeconds }))
	reg.GaugeFunc("upkit_store_torn_tails", "Log files whose torn tail record was dropped at startup.", sstat(func(st StoreStats) float64 { return float64(st.TornTails) }))
}

// PublicKey returns the per-request verification key devices must be
// provisioned with.
func (s *Server) PublicKey() *security.PublicKey {
	s.keyMu.RLock()
	defer s.keyMu.RUnlock()
	return s.key.Public()
}

// KeyID returns the key ID stamped into prepared manifests.
func (s *Server) KeyID() uint32 {
	s.keyMu.RLock()
	defer s.keyMu.RUnlock()
	return s.keyID
}

// RotateKey swaps the per-request signing key: subsequent updates are
// signed with key and carry keyID in their token part. Devices learn
// the new key from a root-signed KeyRecord (see SetKeyBundle); rotate
// after a suspected server compromise, revoking the old ID.
func (s *Server) RotateKey(key *security.PrivateKey, keyID uint32) {
	s.keyMu.Lock()
	s.key = key
	s.keyID = keyID
	s.keyMu.Unlock()
	s.tel.Counter("upkit_server_key_rotations_total", "Update-server signing-key rotations.").Inc()
}

// SetKeyBundle publishes an encoded security.KeyBundle — root-signed
// key records plus the current revocation list — for devices to fetch
// over the update channel (GET /api/v1/keys, CoAP /upkit/keys).
func (s *Server) SetKeyBundle(b []byte) {
	s.keyMu.Lock()
	s.bundle = bytes.Clone(b)
	s.keyMu.Unlock()
}

// KeyBundle returns the published key bundle, or nil when key
// lifecycle is not in use.
func (s *Server) KeyBundle() []byte {
	s.keyMu.RLock()
	defer s.keyMu.RUnlock()
	return bytes.Clone(s.bundle)
}

// SetPayloadEncryption makes every prepared payload AES-CTR ciphertext
// under key (§VIII future work: confidentiality independent of
// transport security). Pass a nil entropy reader to use crypto/rand.
func (s *Server) SetPayloadEncryption(key []byte, entropy io.Reader) error {
	if _, err := security.NewPayloadDecrypter(key); err != nil {
		return err
	}
	if entropy == nil {
		entropy = rand.Reader
	}
	s.encMu.Lock()
	s.payloadKey = append([]byte{}, key...)
	s.entropy = entropy
	s.encMu.Unlock()
	return nil
}

// Publish stores a vendor-signed image (step 2 of Fig. 2). Images must
// arrive with strictly increasing versions per app.
func (s *Server) Publish(img *vendorserver.Image) error {
	if img == nil {
		return errors.New("updateserver: nil image")
	}
	prev := s.store.Snapshot(img.Manifest.AppID)
	if err := s.store.Publish(img); err != nil {
		return err
	}
	if s.retain > 0 {
		s.store.Prune(s.retain)
	}
	// Free the patches to the superseded latest.
	s.cache.dropSuperseded(prev)

	s.met.published.Inc()
	return nil
}

// LatestImage returns the newest vendor-signed image for app, or
// ok=false. Baseline systems (mcumgr, LwM2M) distribute this image
// as-is, without the per-request second signature.
func (s *Server) LatestImage(appID uint32) (*vendorserver.Image, bool) {
	return s.store.Latest(appID)
}

// Latest reports the newest published version for app, or ok=false.
func (s *Server) Latest(appID uint32) (uint16, bool) {
	img, ok := s.store.Latest(appID)
	if !ok {
		return 0, false
	}
	return img.Manifest.Version, true
}

// lookup returns the image with exactly version v, or nil.
func lookupVersion(list []*vendorserver.Image, v uint16) *vendorserver.Image {
	i := sort.Search(len(list), func(i int) bool { return list[i].Manifest.Version >= v })
	if i < len(list) && list[i].Manifest.Version == v {
		return list[i]
	}
	return nil
}

// PrepareUpdate performs the per-request half of the generation phase
// (steps 5–7 of Fig. 2): select the newest image, derive a differential
// payload if the device's current version allows it, copy the device
// token into the manifest, and apply the update server's signature.
func (s *Server) PrepareUpdate(appID uint32, tok manifest.DeviceToken) (*Update, error) {
	start := time.Now()
	latest, ok := s.store.Latest(appID)
	if !ok {
		s.met.reqUnknownApp.Inc()
		return nil, fmt.Errorf("%w: %#x", ErrUnknownApp, appID)
	}
	if latest.Manifest.Version <= tok.CurrentVersion {
		s.met.reqNoUpdate.Inc()
		return nil, fmt.Errorf("%w: device v%d, latest v%d", ErrNoNewUpdate, tok.CurrentVersion, latest.Manifest.Version)
	}
	var base *vendorserver.Image
	if tok.SupportsDifferential() && tok.CurrentVersion < latest.Manifest.Version {
		base, _ = s.store.ByVersion(appID, tok.CurrentVersion)
	}

	s.keyMu.RLock()
	key, keyID := s.key, s.keyID
	s.keyMu.RUnlock()

	m := latest.Manifest // copy; the stored vendor-signed manifest stays pristine
	m.DeviceID = tok.DeviceID
	m.Nonce = tok.Nonce
	m.ServerKeyID = keyID

	// The serve pipeline below is reduced-copy: pick the payload bytes
	// (cache- or store-owned, borrowed), then run exactly one producing
	// pass — AES-CTR encryption into a fresh buffer, or a single clone
	// when the bytes are served as-is — and finally block-register the
	// wire bytes. The old shape cloned first and encrypted second, so
	// every encrypted prepare paid for a clone that was thrown away one
	// line later.
	u := &Update{}
	var plain []byte // borrowed reference; never returned to the caller
	if base != nil {
		// The patch depends only on the version pair, not on the device:
		// serve it from the cache, computing at most once per pair even
		// under a thundering herd (see cache.go). A patch at least as
		// large as the image is counterproductive; the cache remembers
		// that verdict too and we fall back to the full image (the
		// manifest then says so).
		pk := patchKey{appID: appID, from: tok.CurrentVersion, to: latest.Manifest.Version}
		res := s.cache.resolve(pk, base.Manifest.FirmwareDigest, latest.Manifest.FirmwareDigest,
			base.Firmware, latest.Firmware)
		if res.viable {
			m.OldVersion = tok.CurrentVersion
			m.PatchSize = uint32(len(res.patch))
			plain = res.patch
			u.Differential = true
		}
	}
	if !u.Differential {
		plain = latest.Firmware
	}
	s.encMu.RLock()
	payloadKey := s.payloadKey
	entropy := s.entropy
	s.encMu.RUnlock()
	if payloadKey != nil {
		// PatchSize/Size describe the plaintext; both ends add the IV
		// overhead to the wire length. EncryptPayload writes IV ‖
		// ciphertext into a buffer the caller then owns — the encryption
		// pass IS the copy, so the borrowed plaintext is not cloned
		// first.
		enc, err := security.EncryptPayload(payloadKey, plain, entropy)
		if err != nil {
			s.met.reqError.Inc()
			return nil, fmt.Errorf("updateserver: encrypt payload: %w", err)
		}
		u.Payload = enc
		u.Encrypted = true
		// Per-device ciphertext carries a fresh IV, so its name is
		// unique and will never be requested by another device: register
		// it in the segregated private registry, where it cannot evict
		// the blocks an unencrypted fleet shares.
		u.PayloadName = s.privBlocks.Put(u.Payload)
	} else {
		// Served as-is: clone, because the caller owns the returned
		// payload and the canonical bytes belong to the cache (patch) or
		// the release store (full image) — aliasing would let one
		// caller's mutation corrupt every later request.
		u.Payload = bytes.Clone(plain)
		// Fleet-shared wire bytes: identical across devices on the same
		// version pair, so the name coincides and caches share it.
		u.PayloadName = s.blocks.Put(u.Payload)
	}
	if err := s.signManifest(&m, key); err != nil {
		s.met.reqError.Inc()
		return nil, fmt.Errorf("updateserver: %w", err)
	}
	enc, err := m.MarshalBinary()
	if err != nil {
		s.met.reqError.Inc()
		return nil, fmt.Errorf("updateserver: %w", err)
	}
	u.Manifest = m
	u.ManifestBytes = enc

	// The per-request work above — diff, encrypt, second signature — is
	// this reproduction's generation phase (§III-A runs on real server
	// hardware, so host time is the right clock). The span key is the
	// tuple the double signature binds.
	elapsed := time.Since(start)
	if u.Differential {
		s.met.reqDifferential.Inc()
	} else {
		s.met.reqFull.Inc()
	}
	s.met.payloadBytes.Observe(float64(len(u.Payload)))
	s.met.prepareSeconds.ObserveDuration(elapsed)
	s.tel.Spans().Record(telemetry.SpanKey{
		DeviceID: tok.DeviceID,
		AppID:    appID,
		From:     tok.CurrentVersion,
		To:       latest.Manifest.Version,
	}, telemetry.PhaseGeneration, elapsed)
	return u, nil
}
