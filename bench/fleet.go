package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"runtime"
	"sync"
	"time"

	"upkit/internal/bootloader"
	"upkit/internal/coap"
	"upkit/internal/fleet"
	"upkit/internal/platform"
	"upkit/internal/proxy"
	"upkit/internal/security"
	"upkit/internal/telemetry"
	"upkit/internal/testbed"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
)

// fleetSpec shapes one fleet workload. Every fleet is nRF52840 devices
// with the tinycrypt suite pulling over a lossless 802.15.4 link in
// 64-byte Block2 blocks from one shared update server and one shared
// CoAP pull server, two campaign workers, no retries. A run is
// successive rounds: publish the next version, campaign the whole fleet
// to it, verify every device.
type fleetSpec struct {
	devices  int
	imageKiB int
	// Each version differs from its predecessor by sites runs of
	// bytesPerSite random bytes (Evolve).
	sites, bytesPerSite int
	differential        bool
	encrypted           bool
	mode                bootloader.Mode
	// proxy puts every device behind one proxy.Cache and switches the
	// transfer to content-addressed /upkit/blocks.
	proxy bool
	// rounds is the work of one run at defaultSeconds; --seconds scales
	// it and also caps the measured time.
	rounds int
}

const (
	fleetAppID   = 0x2A
	fleetWorkers = 2
)

// deviceUpdater is the benchmark's fleet.Updater: the same two calls
// testbed.Bed.PullUpdate makes, with the latency measured and, in a
// traced run, spans around them.
type deviceUpdater struct {
	bed *testbed.Bed
	id  uint32
	c   *client // nil in an untraced run
	run *fleetRun

	last time.Duration // latency of the last TryUpdate
}

func (u *deviceUpdater) ID() uint32      { return u.id }
func (u *deviceUpdater) Version() uint16 { return u.bed.Device.RunningVersion() }

func (u *deviceUpdater) TryUpdate() (uint16, error) {
	start := time.Now()
	u.c.start(u.run.tracing, spUpdate)
	v, err := u.update()
	u.c.finish(u.id, u.run.round+1)
	u.last = time.Since(start)
	return v, err
}

func (u *deviceUpdater) update() (uint16, error) {
	pc := u.bed.PullClient()
	u.c.wrapPullClient(pc, u.run.front)
	u.c.enter(spCheck)
	staged, err := pc.CheckAndUpdate()
	u.c.exit()
	if err != nil {
		return u.Version(), err
	}
	if !staged {
		return u.Version(), coap.ErrNoUpdate
	}
	u.c.enter(spApply)
	res, err := u.bed.Device.ApplyStagedUpdate()
	u.c.exit()
	if err != nil {
		return u.Version(), err
	}
	return res.Version, nil
}

// fleetRun is one built fleet and its servers.
type fleetRun struct {
	name string
	spec fleetSpec
	seed int64

	vendor   *vendorserver.Server
	update   *updateserver.Server
	pull     *coap.PullServer
	cache    *proxy.Cache
	updaters []*deviceUpdater
	firmware []byte // the latest published image
	version  uint16

	// front is what answers the devices' control traffic: the origin, or
	// the proxy before it.
	front   spanKind
	gate    *sharedGate
	tracing bool // spans are recorded in the current round
	round   int

	setup       time.Duration
	heapPerDev  float64 // bytes
	buildPerDev time.Duration
	// buildMs and publishMs time every BuildImage and Publish call.
	buildMs, publishMs []float64
}

// buildFleet is the set-up phase: servers, keys, v1, and every device
// built and factory-provisioned at v1.
func buildFleet(name string, spec fleetSpec, seed int64, tr *tracer) (*fleetRun, error) {
	start := time.Now()
	suite, err := security.SuiteByName("tinycrypt", nil)
	if err != nil {
		return nil, err
	}
	tag := fmt.Sprintf("bench-%d-%s", seed, name)
	f := &fleetRun{name: name, spec: spec, seed: seed, front: spOrigin, version: 1}
	f.vendor = vendorserver.New(suite, security.MustGenerateKey(tag+"-vendor"))
	f.update = updateserver.New(suite, security.MustGenerateKey(tag+"-server"))
	f.vendor.SetTelemetry(f.update.Telemetry())
	f.pull = coap.NewPullServer(f.update)
	f.firmware = BaseFirmware(seed, name, spec.imageKiB*1024)
	if err := f.publish(1, f.firmware); err != nil {
		return nil, err
	}

	var frontHandler coap.Handler
	if spec.proxy {
		f.front = spProxy
		var origin coap.Exchanger = &coap.Loopback{Handler: f.pull.Handle}
		if tr != nil {
			f.gate = &sharedGate{t: tr}
			origin = &sharedExchanger{
				inner: &coap.Loopback{Handler: f.gate.handler(spOrigin, f.pull.Handle)},
				g:     f.gate, kind: spUpstream,
			}
		}
		f.cache = proxy.NewCache(origin, proxy.CacheOptions{Telemetry: f.update.Telemetry()})
		frontHandler = f.cache.Handle
	}

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	devStart := time.Now()
	f.updaters = make([]*deviceUpdater, spec.devices)
	workers := min(runtime.GOMAXPROCS(0), spec.devices)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < spec.devices; i += workers {
				id := uint32(0xB000 + i)
				bed, err := testbed.New(testbed.Options{
					Mode:         spec.mode,
					Approach:     platform.Pull,
					Differential: spec.differential,
					Encrypted:    spec.encrypted,
					PayloadSeed:  tag,
					DeviceID:     id,
					AppID:        fleetAppID,
					Seed:         fmt.Sprintf("%s-%d", tag, i),
					SharedVendor: f.vendor,
					SharedUpdate: f.update,
					SharedPull:   f.pull,
				}, f.firmware)
				if err != nil {
					errs[w] = fmt.Errorf("device %d: %w", i, err)
					return
				}
				if spec.proxy {
					bed.Distribute(frontHandler, testbed.BlockRoute{Name: "proxy", Handler: frontHandler})
				}
				f.updaters[i] = &deviceUpdater{bed: bed, id: id, c: tr.client(), run: f}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	f.buildPerDev = time.Since(devStart) / time.Duration(spec.devices)
	f.setup = time.Since(start)
	var after runtime.MemStats
	runtime.GC() // also separates set-up from the measured phase
	runtime.ReadMemStats(&after)
	f.heapPerDev = (float64(after.HeapInuse) - float64(before.HeapInuse)) / float64(spec.devices)
	return f, nil
}

// publish builds and publishes fw as the next version. It is outside
// every timed section; its own two durations feed the per-layer
// vendorserver.build_ms and updateserver.publish_ms.
func (f *fleetRun) publish(version uint16, fw []byte) error {
	t0 := time.Now()
	img, err := f.vendor.BuildImage(vendorserver.Release{
		AppID: fleetAppID, Version: version, LinkOffset: 0xFFFFFFFF, Firmware: fw,
	})
	if err != nil {
		return err
	}
	t1 := time.Now()
	if err := f.update.Publish(img); err != nil {
		return err
	}
	f.buildMs = append(f.buildMs, float64(t1.Sub(t0))/1e6)
	f.publishMs = append(f.publishMs, float64(time.Since(t1))/1e6)
	return nil
}

// fleetCounters are the layers' own exact counters, read between
// rounds.
type fleetCounters struct {
	Virtual      time.Duration // Σ device clocks
	Egress       uint64        // coap.OriginEgressCounter
	Exchanges    uint64        // upkit_coap_exchanges_total
	Retransmits  uint64        // upkit_coap_retransmissions_total
	OriginReqs   uint64        // Σ upkit_coap_requests_total
	LinkBytes    uint64        // upkit_link_bytes_total{link="802.15.4"}
	PayloadBytes float64       // Σ upkit_server_payload_bytes
	FlashWritten int
	FlashErases  int
}

func (c fleetCounters) sub(o fleetCounters) fleetCounters {
	return fleetCounters{
		c.Virtual - o.Virtual, c.Egress - o.Egress, c.Exchanges - o.Exchanges, c.Retransmits - o.Retransmits,
		c.OriginReqs - o.OriginReqs, c.LinkBytes - o.LinkBytes, c.PayloadBytes - o.PayloadBytes,
		c.FlashWritten - o.FlashWritten, c.FlashErases - o.FlashErases,
	}
}

func (c fleetCounters) add(o fleetCounters) fleetCounters {
	return fleetCounters{
		c.Virtual + o.Virtual, c.Egress + o.Egress, c.Exchanges + o.Exchanges, c.Retransmits + o.Retransmits,
		c.OriginReqs + o.OriginReqs, c.LinkBytes + o.LinkBytes, c.PayloadBytes + o.PayloadBytes,
		c.FlashWritten + o.FlashWritten, c.FlashErases + o.FlashErases,
	}
}

func (f *fleetRun) counters() fleetCounters {
	reg := f.update.Telemetry()
	c := fleetCounters{
		Egress:       coap.OriginEgressCounter(reg).Value(),
		Exchanges:    reg.Counter("upkit_coap_exchanges_total", "").Value(),
		Retransmits:  reg.Counter("upkit_coap_retransmissions_total", "").Value(),
		LinkBytes:    reg.Counter("upkit_link_bytes_total", "", telemetry.L("link", "802.15.4")).Value(),
		PayloadBytes: reg.Histogram("upkit_server_payload_bytes", "", telemetry.SizeBuckets).Sum(),
	}
	for _, path := range []string{"version", "request", "image", "keys", "name", "blocks", "other"} {
		c.OriginReqs += reg.Counter("upkit_coap_requests_total", "", telemetry.L("path", path)).Value()
	}
	for _, u := range f.updaters {
		d := u.bed.Device
		c.Virtual += d.Clock.Now()
		st := d.Internal.Stats()
		c.FlashWritten += st.BytesWritten
		c.FlashErases += st.SectorErases
		if d.External != nil {
			st = d.External.Stats()
			c.FlashWritten += st.BytesWritten
			c.FlashErases += st.SectorErases
		}
	}
	return c
}

// fleetRound is one round's outcome.
type fleetRound struct {
	Wall     time.Duration
	Busy     time.Duration // Σ TryUpdate time
	Updated  int           // devices verified on the target version
	Counters fleetCounters
}

// runRound publishes the next version, campaigns the fleet to it and
// verifies every device. Only the campaign is timed. It returns the
// round's latencies in milliseconds; fails collects what the
// verification found.
func (f *fleetRun) runRound(traced bool, fails *[]string) (fleetRound, []float64, error) {
	f.version++
	f.firmware = Evolve(f.firmware, f.seed, int(f.version), f.spec.sites, f.spec.bytesPerSite)
	if err := f.publish(f.version, f.firmware); err != nil {
		return fleetRound{}, nil, err
	}
	want := sha256.Sum256(f.firmware)

	f.tracing = traced
	if f.gate != nil {
		f.gate.on = traced
	}
	updaters := make([]fleet.Updater, len(f.updaters))
	for i, u := range f.updaters {
		updaters[i] = u
	}
	campaign, err := fleet.New(f.version, fleet.Policy{
		Parallelism: fleetWorkers,
		MaxRetries:  0,
		MaxResults:  -1,
	}, updaters)
	if err != nil {
		return fleetRound{}, nil, err
	}
	before := f.counters()
	start := time.Now()
	report, runErr := campaign.Run()
	r := fleetRound{Wall: time.Since(start)}
	r.Counters = f.counters().sub(before)
	f.round++

	if runErr != nil {
		*fails = append(*fails, fmt.Sprintf("round %d: campaign: %v", f.round, runErr))
	}
	for _, e := range report.Errors {
		*fails = append(*fails, fmt.Sprintf("round %d: device %#x: %v", f.round, e.DeviceID, e.Err))
	}
	h := sha256.New()
	samples := make([]float64, 0, len(f.updaters))
	for _, u := range f.updaters {
		r.Busy += u.last
		samples = append(samples, float64(u.last)/1e6)
		if msg := f.verifyDevice(u, want, h); msg != "" {
			*fails = append(*fails, fmt.Sprintf("round %d: device %#x: %s", f.round, u.id, msg))
			continue
		}
		r.Updated++
	}
	return r, samples, nil
}

// verifyDevice checks that the device runs the round's target version,
// rebooted exactly once to get there (the factory image cost the first
// reboot), and that the bytes in its running slot hash to the published
// image.
func (f *fleetRun) verifyDevice(u *deviceUpdater, want [32]byte, h hash.Hash) string {
	d := u.bed.Device
	if v := d.RunningVersion(); v != f.version {
		return fmt.Sprintf("runs v%d, want v%d", v, f.version)
	}
	if got := d.Reboots(); got != int(f.version) {
		return fmt.Sprintf("rebooted %d times, want %d", got, f.version)
	}
	rd, err := d.Running().FirmwareReader()
	if err != nil {
		return fmt.Sprintf("read running firmware: %v", err)
	}
	h.Reset()
	if _, err := io.Copy(h, rd); err != nil {
		return fmt.Sprintf("read running firmware: %v", err)
	}
	if [32]byte(h.Sum(nil)) != want {
		return "running firmware does not match the published image"
	}
	return ""
}
