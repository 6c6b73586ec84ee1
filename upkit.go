// Package upkit is a Go implementation of UpKit, the open-source,
// portable, and lightweight software-update framework for constrained
// IoT devices by Langiu, Boano, Schuß, and Römer (ICDCS 2019).
//
// It provides every stage of the paper's update process:
//
//   - a vendor server that signs firmware releases (generation phase);
//   - an update server that adds a second, per-request signature bound
//     to a device token, granting update freshness without transport
//     security, and that derives LZSS-compressed bsdiff patches for
//     differential updates (propagation phase);
//   - a device-side update agent — an eight-state FSM fed by either a
//     push (BLE GATT) or pull (CoAP blockwise) transport — that
//     verifies manifests before downloading and firmware before
//     rebooting (verification phase, early rejection);
//   - a bootloader that re-verifies after reboot and installs images
//     either by a power-loss-safe slot swap (static mode) or by booting
//     the newer of two slots directly (A/B mode) (loading phase).
//
// Constrained hardware is simulated: NOR-flash chips with real
// erase-before-write semantics, virtual-time radio links, and an energy
// model reproduce the paper's platforms (nRF52840, CC2650, CC2538) so
// the evaluation's tables and figures can be regenerated; see the
// experiments subcommands of cmd/upkit-bench and EXPERIMENTS.md.
//
// Quick start
//
//	v1 := upkit.MakeFirmware("my-app-v1", 64*1024)
//	dep, _ := upkit.NewDeployment(upkit.DeploymentOptions{}, v1)
//	v2 := upkit.MakeFirmware("my-app-v2", 64*1024)
//	_ = dep.PublishVersion(2, v2)
//	result, _ := dep.PullUpdate() // transfer, double verification, reboot
//	fmt.Println(result.Version)   // 2
//
// The package re-exports the building blocks the examples and commands
// assemble custom deployments from: keys and crypto suites, both
// servers, devices and deployments, the distribution tier, fleet
// campaigns, experiments, and SUIT export.
package upkit

import (
	"upkit/internal/bootloader"
	"upkit/internal/coap"
	"upkit/internal/device"
	"upkit/internal/dist"
	"upkit/internal/events"
	"upkit/internal/experiments"
	"upkit/internal/fleet"
	"upkit/internal/manifest"
	"upkit/internal/platform"
	"upkit/internal/proxy"
	"upkit/internal/security"
	"upkit/internal/suit"
	"upkit/internal/testbed"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
	"upkit/internal/verifier"
)

// Protocol types, keys and crypto suites.
type (
	// DeviceToken is the per-request freshness token (device ID, nonce,
	// current version).
	DeviceToken = manifest.DeviceToken
	// Keys holds a device's provisioned verification keys.
	Keys = verifier.Keys
)

// RoleServer marks an update-server key in key records and revocation
// lists.
const RoleServer = security.RoleServer

// NewTinyCrypt returns the tinycrypt-profile software crypto suite.
func NewTinyCrypt() security.Suite { return security.NewTinyCrypt() }

// NewCryptoAuthLib returns a suite backed by a simulated ATECC508 HSM.
func NewCryptoAuthLib(hsm *security.HSM) security.Suite { return security.NewCryptoAuthLib(hsm) }

// NewHSM returns an unprovisioned simulated ATECC508.
func NewHSM() *security.HSM { return security.NewHSM() }

// MustGenerateKey derives a reproducible key pair from a seed — for
// tests, simulations, and examples only.
func MustGenerateKey(seed string) *security.PrivateKey { return security.MustGenerateKey(seed) }

// Servers.

// Release is a firmware release submitted to the vendor server.
type Release = vendorserver.Release

// NewVendorServer creates a vendor server signing with key under suite.
func NewVendorServer(suite security.Suite, key *security.PrivateKey) *vendorserver.Server {
	return vendorserver.New(suite, key)
}

// UpdateServerOption tunes an update server at construction time.
type UpdateServerOption = updateserver.Option

// WithSigners arms the update server's parallel manifest-signing pool
// with n workers (n <= 0 selects GOMAXPROCS). The pool bounds ECDSA
// concurrency under heavy request traffic; without it every request
// signs inline.
func WithSigners(n int) UpdateServerOption { return updateserver.WithSigners(n) }

// NewUpdateServer creates an update server signing with key under suite.
func NewUpdateServer(suite security.Suite, key *security.PrivateKey, opts ...UpdateServerOption) *updateserver.Server {
	return updateserver.New(suite, key, opts...)
}

// Devices and deployments.
type (
	// DeviceOptions configures a simulated device.
	DeviceOptions = device.Options
	// Smartphone is the push-approach proxy application.
	Smartphone = proxy.Smartphone
	// Deployment is a complete wired system: vendor server, update
	// server, radio link, and one simulated device.
	Deployment = testbed.Bed
	// DeploymentOptions configures a Deployment.
	DeploymentOptions = testbed.Options
)

// Boot modes.
const (
	// BootStatic is the paper's Configuration B: one bootable slot plus
	// a staging slot; images are installed by a power-loss-safe swap.
	BootStatic = bootloader.ModeStatic
	// BootAB is Configuration A: two bootable slots; the bootloader
	// jumps directly to the newer one.
	BootAB = bootloader.ModeAB
)

// Update-distribution approaches.
const (
	// Pull: the device polls the update server over CoAP.
	Pull = platform.Pull
	// Push: a smartphone forwards updates over BLE.
	Push = platform.Push
)

// NewDevice builds a simulated constrained device.
func NewDevice(opts DeviceOptions) (*device.Device, error) { return device.New(opts) }

// NewDeployment wires a complete system and factory-provisions the
// device with firmware as version 1. Pass nil firmware to get an
// unprovisioned device.
func NewDeployment(opts DeploymentOptions, firmware []byte) (*Deployment, error) {
	return testbed.New(opts, firmware)
}

// Hardware profiles of the paper's evaluation platforms.

// NRF52840 returns the Nordic nRF52840 profile.
func NRF52840() platform.MCU { return platform.NRF52840() }

// CC2650 returns the TI CC2650 profile (with external SPI flash).
func CC2650() platform.MCU { return platform.CC2650() }

// CC2538 returns the TI CC2538 profile.
func CC2538() platform.MCU { return platform.CC2538() }

// Workload helpers.

// MakeFirmware produces deterministic firmware-like content (a mix of
// repetitive code idioms and literals) for simulations and examples.
func MakeFirmware(seed string, size int) []byte { return testbed.MakeFirmware(seed, size) }

// DeriveAppChange models a localized application change of about
// editBytes bytes — Fig. 8b's second workload.
func DeriveAppChange(base []byte, editBytes int) []byte {
	return testbed.DeriveAppChange(base, editBytes)
}

// DeriveOSChange models an OS minor-version upgrade — Fig. 8b's first
// workload.
func DeriveOSChange(base []byte) []byte { return testbed.DeriveOSChange(base) }

// Experiments.

// ExperimentTable is one regenerated table or figure.
type ExperimentTable = experiments.Table

// ExperimentIDs lists the reproducible tables/figures/ablations.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one table or figure of the paper's
// evaluation; the result's Render method returns the printable table.
func RunExperiment(id string) (*ExperimentTable, error) { return experiments.Run(id) }

// Event kinds a deployment's event log records, for matching log
// entries.
const (
	EventFirmwareRejected = events.KindFirmwareRejected
	EventSourceFailover   = events.KindSourceFailover
)

// Content-addressed distribution: prepared payloads are exposed as
// immutable named blocks (the name is the SHA-256 of the payload
// bytes), so any untrusted middlebox — a caching proxy, a peer device —
// can serve them. The double signature travels in the manifest; a wrong
// byte from any source is a digest failure and a failover, never an
// installed image.

type (
	// BlockServer answers CoAP GET /upkit/blocks from a block source —
	// mount its Handle to serve blocks (e.g. as a peer).
	BlockServer = coap.BlockServer
	// ProxyCacheOptions configures a caching proxy.
	ProxyCacheOptions = proxy.CacheOptions
	// DistributionRoute is one block source in a Deployment's serve
	// topology (Deployment.Distribute).
	DistributionRoute = testbed.BlockRoute
	// CoAPLoopback adapts an in-process CoAP handler into an exchanger,
	// running the full codec round trip.
	CoAPLoopback = coap.Loopback
	// CoAPMessage is one CoAP message (for custom middleboxes).
	CoAPMessage = coap.Message
)

// NewBlockRegistry creates a named-payload store bounded to maxBytes
// (a package default when <= 0).
func NewBlockRegistry(maxBytes int) *dist.Registry { return dist.NewRegistry(maxBytes) }

// NewProxyCache creates a caching proxy — named blocks from an LRU
// cache with singleflight origin fill, everything else forwarded —
// whose origin is reached over origin: a CoAPLoopback in simulations,
// a UDP exchanger in cmd/upkit-proxy.
func NewProxyCache(origin coap.Exchanger, opts ProxyCacheOptions) *proxy.Cache {
	return proxy.NewCache(origin, opts)
}

// Fleet campaigns.
type (
	// CampaignPolicy sets a campaign's worker count, per-device retries
	// and per-device result sample.
	CampaignPolicy = fleet.Policy
	// FleetUpdater is one device's update entry point in a campaign.
	FleetUpdater = fleet.Updater
)

// NewCampaign creates a campaign that has a fixed pool of workers make
// every device pull target, retrying a failed device immediately up to
// MaxRetries times. RunContext is the primary entry point (Run is a
// convenience wrapper); canceling its context stops the campaign and
// skips the devices not yet started.
func NewCampaign(target uint16, policy CampaignPolicy, devices []FleetUpdater) (*fleet.Campaign, error) {
	return fleet.New(target, policy, devices)
}

// SUIT interoperation (§VIII future work).

// ExportSUIT renders an UpKit manifest as a signed SUIT-shaped CBOR
// envelope so SUIT-aware tooling can consume UpKit releases.
func ExportSUIT(m *manifest.Manifest, s security.Suite, key *security.PrivateKey) ([]byte, error) {
	return suit.Export(m, s, key)
}

// ParseSUIT decodes and signature-verifies a SUIT envelope produced by
// ExportSUIT.
func ParseSUIT(envelope []byte, s security.Suite, pub *security.PublicKey) (*suit.Manifest, error) {
	return suit.Parse(envelope, s, pub)
}
