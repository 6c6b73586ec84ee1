package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"upkit/internal/bootloader"
	"upkit/internal/bsdiff"
	"upkit/internal/coap"
	"upkit/internal/dist"
	"upkit/internal/flash"
	"upkit/internal/fleet"
	"upkit/internal/lzss"
	"upkit/internal/manifest"
	"upkit/internal/pipeline"
	"upkit/internal/platform"
	"upkit/internal/proxy"
	"upkit/internal/security"
	"upkit/internal/slot"
	"upkit/internal/testbed"
	"upkit/internal/transport"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
	"upkit/internal/verifier"
)

// Layer probes: direct calls into one layer's public functions, in a
// single-threaded loop, on inputs shaped like the workload's (its image
// size and edit pattern, a real manifest, patch and ciphertext). They
// explain what goes on inside a span; the end-to-end and traced numbers
// never come from them.

// probeBatch is how long one timing batch of a probe runs (a variable
// so the smoke test can shrink it); a probe reports the median of
// probeBatches batch means.
var probeBatch = 15 * time.Millisecond

const probeBatches = 5

// timeOp returns nanoseconds per call of f: the median over batches of
// the batch mean, after one warm-up call.
func timeOp(f func()) float64 {
	f()
	n := 1
	var means []float64
	for len(means) < probeBatches {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		d := time.Since(start)
		if d < probeBatch && n < 1<<24 {
			// Grow the batch until it fills its time slice.
			n = int(float64(n)*max(1.5, float64(probeBatch)/float64(d+1))) + 1
			continue
		}
		means = append(means, float64(d)/float64(n))
	}
	sort.Float64s(means)
	return means[len(means)/2]
}

// allocsPerOp is the mean number of heap allocations per call of f.
func allocsPerOp(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

func mbPerS(bytes int, nsPerOp float64) float64 { return ratio(float64(bytes)*1e3, nsPerOp) }

// probeInputs are built once per probe run from the workload's shape.
type probeInputs struct {
	suite        security.Suite
	oldFW, newFW []byte
	patch        []byte // bsdiff old→new
	comp         []byte // lzss(patch): the differential wire payload
	key          []byte // payload key
	differential bool
}

func probeShape(w workload) (imageKiB, sites, bytesPerSite int, differential bool) {
	if w.fleet != nil {
		return w.fleet.imageKiB, w.fleet.sites, w.fleet.bytesPerSite, w.fleet.differential
	}
	return w.churn.imageKiB, 1, w.churn.editBytes, true
}

// must keeps the probe bodies readable: a probe's inputs are generated
// by the benchmark itself, so an error is a bug in the probe.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// runProbes runs every probe and adds its metrics to m.
func runProbes(w workload, cfg runConfig, m map[string]float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	kib, sites, per, differential := probeShape(w)
	suite := must(security.SuiteByName("tinycrypt", nil))
	in := &probeInputs{suite: suite, differential: differential, key: make([]byte, 16)}
	in.oldFW = BaseFirmware(cfg.seed, w.name, kib*1024)
	in.newFW = Evolve(in.oldFW, cfg.seed, 2, sites, per)
	in.patch = bsdiff.Diff(in.oldFW, in.newFW)
	in.comp = lzss.Encode(in.patch)
	must(io.ReadFull(security.NewDeterministicReader("bench-probe-key"), in.key))

	probeCrypto(in, m)
	probeCodecs(in, m)
	probeDevice(in, cfg, m)
	probeCoAP(in, cfg, m)
	probeServer(in, cfg, m)
	probeTransportFleet(m)
	return nil
}

func probeCrypto(in *probeInputs, m map[string]float64) {
	priv := security.MustGenerateKey("bench-probe-sign")
	digest := in.suite.Digest(in.newFW)
	sig := must(in.suite.Sign(priv, digest))
	m["security.sign_us"] = timeOp(func() { must(in.suite.Sign(priv, digest)) }) / 1e3
	m["security.verify_us"] = timeOp(func() {
		if !in.suite.Verify(priv.Public(), digest, sig) {
			panic("signature does not verify")
		}
	}) / 1e3
	entropy := security.NewDeterministicReader("bench-probe-iv")
	enc := must(security.EncryptPayload(in.key, in.newFW, entropy))
	m["security.encrypt_mb_s"] = mbPerS(len(in.newFW), timeOp(func() { must(security.EncryptPayload(in.key, in.newFW, entropy)) }))
	m["security.decrypt_mb_s"] = mbPerS(len(in.newFW), timeOp(func() { must(security.DecryptPayload(in.key, enc)) }))
}

func probeCodecs(in *probeInputs, m map[string]float64) {
	m["lzss.encode_mb_s"] = mbPerS(len(in.patch), timeOp(func() { lzss.Encode(in.patch) }))
	m["lzss.decode_mb_s"] = mbPerS(len(in.patch), timeOp(func() { must(lzss.Decode(in.comp)) }))
	m["bsdiff.diff_ms"] = timeOp(func() { bsdiff.Diff(in.oldFW, in.newFW) }) / 1e6
	m["bsdiff.apply_mb_s"] = mbPerS(len(in.newFW), timeOp(func() { must(bsdiff.Apply(in.oldFW, in.patch)) }))
}

// probeDevice covers the device-side layers on one real factory-
// provisioned device: verifier, pipeline over a slot writer over flash,
// flash itself, SafeSwap and a no-update boot.
func probeDevice(in *probeInputs, cfg runConfig, m map[string]float64) {
	tag := fmt.Sprintf("bench-%d-probe", cfg.seed)
	bed := must(testbed.New(testbed.Options{
		Mode: bootloader.ModeStatic, Approach: platform.Pull, Differential: true,
		DeviceID: 0xD0D0, AppID: fleetAppID, Seed: tag,
	}, in.oldFW))
	check(bed.PublishVersion(2, in.newFW))
	d := bed.Device

	// A real double-signed manifest for this device.
	tok := must(d.Agent.RequestDeviceToken())
	d.Agent.Abort()
	u := must(bed.Update.PrepareUpdate(fleetAppID, tok))
	dev := verifier.DeviceInfo{DeviceID: tok.DeviceID, AppID: fleetAppID, CurrentVersion: 1}
	dst := verifier.SlotInfo{LinkBase: slot.AnyLink, Capacity: d.SlotB.Capacity()}
	v := verifier.New(in.suite, verifier.Keys{Vendor: bed.Vendor.PublicKey(), Server: bed.Update.PublicKey()}, nil)
	m["verifier.manifest_us"] = timeOp(func() { check(v.VerifyManifestForAgent(&u.Manifest, tok, dev, dst)) }) / 1e3
	m["verifier.firmware_mb_s"] = mbPerS(len(in.newFW), timeOp(func() {
		check(v.VerifyFirmware(bytes.NewReader(in.newFW), &u.Manifest))
	}))

	// Pipeline: the payload in 64-byte writes (one Block2 block each)
	// into the staging slot, as agent.Receive feeds it.
	enc := must(security.EncryptPayload(in.key, in.comp, security.NewDeterministicReader("bench-probe-iv")))
	old := must(d.Running().FirmwareReader())
	transfer := func(payload []byte, build func(sink io.Writer) *pipeline.Pipeline) func() {
		return func() {
			sink := must(d.SlotB.BeginReceive())
			p := build(sink)
			for off := 0; off < len(payload); off += coap.DefaultBlockSize {
				must(p.Write(payload[off:min(off+coap.DefaultBlockSize, len(payload))]))
			}
			check(p.Close())
			if sink.Written() != len(in.newFW) {
				panic(fmt.Sprintf("pipeline wrote %d bytes, want %d", sink.Written(), len(in.newFW)))
			}
		}
	}
	full := transfer(in.newFW, func(sink io.Writer) *pipeline.Pipeline { return pipeline.NewFull(sink, 0) })
	diff := transfer(in.comp, func(sink io.Writer) *pipeline.Pipeline { return pipeline.NewDifferential(old, sink, 0) })
	diffEnc := transfer(enc, func(sink io.Writer) *pipeline.Pipeline {
		p := pipeline.NewDifferential(old, sink, 0)
		check(p.EnableDecryption(in.key))
		return p
	})
	m["pipeline.full_mb_s"] = mbPerS(len(in.newFW), timeOp(full))
	m["pipeline.diff_mb_s"] = mbPerS(len(in.newFW), timeOp(diff))
	m["pipeline.diff_enc_mb_s"] = mbPerS(len(in.newFW), timeOp(diffEnc))
	writes := (len(in.comp) + coap.DefaultBlockSize - 1) / coap.DefaultBlockSize
	m["pipeline.write_allocs"] = allocsPerOp(3, diff) / float64(writes)

	// Flash: one sector erased and programmed a page at a time; the two
	// halves are timed separately inside one loop.
	mem := must(flash.New(platform.NRF52840().Internal, nil))
	geo := mem.Geometry()
	page := bytes.Repeat([]byte{0xA5}, geo.PageSize)
	var eraseNs, programNs time.Duration
	const sectors = 2000
	for i := 0; i < sectors; i++ {
		t0 := time.Now()
		check(mem.EraseSector(0))
		t1 := time.Now()
		for off := 0; off < geo.SectorSize; off += geo.PageSize {
			check(mem.Program(off, page))
		}
		eraseNs += t1.Sub(t0)
		programNs += time.Since(t1)
	}
	m["flash.erase_us"] = float64(eraseNs) / sectors / 1e3
	m["flash.program_mb_s"] = mbPerS(geo.SectorSize*sectors, float64(programNs))

	// SafeSwap of two pull-build slots (224 KiB), both holding an image.
	size := platform.BuildSlotBytes(platform.Pull)
	base := platform.NRF52840().ReservedBootloader
	newSlot := func(name string, off int, kind slot.Kind, fw []byte) *slot.Slot {
		s := must(slot.New(name, must(flash.NewRegion(mem, off, size)), kind, slot.AnyLink))
		wr := must(s.BeginReceive())
		check(s.WriteManifest(&u.Manifest))
		must(wr.Write(fw))
		check(s.MarkComplete())
		return s
	}
	a := newSlot("A", base, slot.Bootable, in.oldFW)
	b := newSlot("B", base+size, slot.NonBootable, in.newFW)
	scratch := must(flash.NewRegion(mem, base+2*size, geo.SectorSize))
	journal := must(flash.NewRegion(mem, base+2*size+geo.SectorSize, geo.SectorSize))
	m["slot.safeswap_ms"] = timeOp(func() { check(slot.SafeSwap(a, b, scratch, journal)) }) / 1e6

	// A reboot with nothing staged: validate the running image, jump.
	m["bootloader.boot_noupdate_ms"] = timeOp(func() { must(d.Bootloader.Boot()) }) / 1e6
}

// probeCoAP covers the codec and the three block-serving hot paths: the
// origin's session path, its named-block path, and the proxy hit path.
func probeCoAP(in *probeInputs, cfg runConfig, m map[string]float64) {
	resp := &coap.Message{Type: coap.Acknowledgement, Code: coap.CodeContent, MessageID: 7,
		Token: []byte{0x75, 0x6B, 1, 0}, Payload: in.newFW[:coap.DefaultBlockSize]}
	resp.AddOption(coap.OptBlock2, coap.Block{Num: 9, More: true, SZX: coap.DefaultSZX}.Marshal())
	wire := must(resp.Marshal())
	m["coap.marshal_ns"] = timeOp(func() { must(resp.Marshal()) })
	m["coap.unmarshal_ns"] = timeOp(func() { must(coap.Unmarshal(wire)) })
	m["coap.codec_allocs"] = allocsPerOp(1000, func() { must(coap.Unmarshal(must(resp.Marshal()))) })

	// An origin with v1 and v2 and one live full-image session.
	tag := fmt.Sprintf("bench-%d-probe", cfg.seed)
	vendor := vendorserver.New(in.suite, security.MustGenerateKey(tag+"-vendor"))
	server := updateserver.New(in.suite, security.MustGenerateKey(tag+"-server"))
	defer server.Close()
	publish(vendor, server, 1, in.oldFW)
	publish(vendor, server, 2, in.newFW)
	pull := coap.NewPullServer(server)
	tok := manifest.DeviceToken{DeviceID: 0xD0D1, Nonce: 0x5EED}
	post := &coap.Message{Type: coap.Confirmable, Code: coap.CodePOST, Payload: must(tok.MarshalBinary())}
	post.SetPath(coap.PathRequest)
	post.AddOption(coap.OptUriQuery, []byte(fmt.Sprintf("app=%x", fleetAppID)))
	if r := pull.Handle(post); r.Code != coap.CodeContent {
		panic(fmt.Sprintf("session set-up refused: %s", r.Code))
	}
	block := coap.Block{Num: 9, SZX: coap.DefaultSZX}.Marshal()
	image := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
	image.SetPath(coap.PathImage)
	image.AddOption(coap.OptUriQuery, []byte(fmt.Sprintf("d=%x", tok.DeviceID)))
	image.AddOption(coap.OptUriQuery, []byte(fmt.Sprintf("n=%x", tok.Nonce)))
	image.AddOption(coap.OptBlock2, block)
	name := dist.NameOf(in.newFW)
	named := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
	named.SetPath(coap.PathBlocks)
	named.AddOption(coap.OptUriQuery, []byte("b="+name.String()))
	named.AddOption(coap.OptBlock2, block)
	serve := func(h coap.Handler, req *coap.Message) func() {
		return func() {
			if r := h(req); r.Code != coap.CodeContent || len(r.Payload) != coap.DefaultBlockSize {
				panic(fmt.Sprintf("block refused: %s", r.Code))
			}
		}
	}
	m["coap.image_block_ns"] = timeOp(serve(pull.Handle, image))
	m["coap.image_block_allocs"] = allocsPerOp(1000, serve(pull.Handle, image))
	m["coap.named_block_ns"] = timeOp(serve(pull.Handle, named))
	m["coap.named_block_allocs"] = allocsPerOp(1000, serve(pull.Handle, named))
	cache := proxy.NewCache(&coap.Loopback{Handler: pull.Handle}, proxy.CacheOptions{})
	m["proxy.hit_ns"] = timeOp(serve(cache.Handle, named))
	m["proxy.hit_allocs"] = allocsPerOp(1000, serve(cache.Handle, named))

	reg := dist.NewRegistry(0)
	m["dist.put_us"] = timeOp(func() { reg.Put(in.newFW) }) / 1e3
	m["dist.block_ns"] = timeOp(func() {
		_, _, err := reg.Block(name, 9, coap.DefaultBlockSize)
		check(err)
	})
}

func publish(vendor *vendorserver.Server, server *updateserver.Server, version uint16, fw []byte) {
	check(server.Publish(must(vendor.BuildImage(vendorserver.Release{
		AppID: fleetAppID, Version: version, LinkOffset: 0xFFFFFFFF, Firmware: fw,
	}))))
}

// probeServer covers PrepareUpdate's warm path and the durable stores.
// PatchStore's Put and Get take unexported key types, so they are
// probed through the server, as paired differences on identical work: a
// cold prepare on a server with the store attached against the same
// cold prepare on a server without it (put), and a restarted server's
// first prepare over the populated store against its second (get).
func probeServer(in *probeInputs, cfg runConfig, m map[string]float64) {
	tag := fmt.Sprintf("bench-%d-probe", cfg.seed)
	vendor := vendorserver.New(in.suite, security.MustGenerateKey(tag+"-vendor"))
	key := security.MustGenerateKey(tag + "-server")
	tok := manifest.DeviceToken{DeviceID: 0xD0D2}
	if in.differential {
		tok.CurrentVersion = 1
	}
	// prepare times one PrepareUpdate for tok under a fresh nonce.
	prepare := func(s *updateserver.Server) time.Duration {
		tok.Nonce++
		start := time.Now()
		must(s.PrepareUpdate(fleetAppID, tok))
		return time.Since(start)
	}
	server := updateserver.New(in.suite, key)
	defer server.Close()
	publish(vendor, server, 1, in.oldFW)
	publish(vendor, server, 2, in.newFW)
	m["updateserver.prepare_warm_us"] = timeOp(func() { prepare(server) }) / 1e3
	m["updateserver.prepare_warm_allocs"] = allocsPerOp(200, func() { prepare(server) })
	check(server.SetPayloadEncryption(in.key, security.NewDeterministicReader("bench-probe-iv")))
	m["updateserver.prepare_enc_us"] = timeOp(func() { prepare(server) }) / 1e3

	// Two servers over one FileStore, one of them with a PatchStore.
	// Each new version makes the pair v1→latest cold on both.
	store := must(updateserver.NewFileStore(filepath.Join(cfg.dir, "probe-releases")))
	defer store.Close()
	patchDir := filepath.Join(cfg.dir, "probe-patches")
	ps := must(updateserver.OpenPatchStore(patchDir, 0))
	stored := updateserver.New(in.suite, key, updateserver.WithStore(store), updateserver.WithPatchStore(ps))
	bare := updateserver.New(in.suite, key, updateserver.WithStore(store))
	defer bare.Close()
	tok = manifest.DeviceToken{DeviceID: 0xD0D3, CurrentVersion: 1}
	const versions = 7
	var publishMs, putMs []float64
	fw := in.oldFW
	for v := 1; v <= versions; v++ {
		if v > 1 {
			fw = Evolve(fw, cfg.seed, v, 1, 512)
		}
		img := must(vendor.BuildImage(vendorserver.Release{
			AppID: fleetAppID, Version: uint16(v), LinkOffset: 0xFFFFFFFF, Firmware: fw}))
		// FileStore.Publish alone: append + fsync.
		start := time.Now()
		check(store.Publish(img))
		publishMs = append(publishMs, float64(time.Since(start))/1e6)
		if v > 1 {
			// Alternate which server diffs first.
			first, second := stored, bare
			if v%2 == 1 {
				first, second = bare, stored
			}
			a, b := prepare(first), prepare(second)
			if first == bare {
				a, b = b, a
			}
			putMs = append(putMs, float64(a-b)/1e6)
		}
	}
	m["updateserver.filestore_publish_ms"] = median(publishMs)
	m["updateserver.patchstore_put_ms"] = median(putMs)
	// Persist every base→latest pair, then restart over the store.
	for tok.CurrentVersion = 2; tok.CurrentVersion < versions; tok.CurrentVersion++ {
		prepare(stored)
	}
	stored.Close()
	check(ps.Close())

	ps = must(updateserver.OpenPatchStore(patchDir, 0))
	defer ps.Close()
	restarted := updateserver.New(in.suite, key, updateserver.WithStore(store), updateserver.WithPatchStore(ps))
	defer restarted.Close()
	var getUs []float64
	for tok.CurrentVersion = 1; tok.CurrentVersion < versions; tok.CurrentVersion++ {
		diskHit, warm := prepare(restarted), prepare(restarted)
		getUs = append(getUs, float64(diskHit-warm)/1e3)
	}
	if got := restarted.Stats().DiskHits; got != versions-1 {
		panic(fmt.Sprintf("restarted server took %d disk hits, want %d", got, versions-1))
	}
	m["updateserver.patchstore_get_us"] = median(getUs)
}

// noopUpdater is a device that is updated by being asked.
type noopUpdater struct {
	id uint32
	v  uint16
}

func (u *noopUpdater) ID() uint32      { return u.id }
func (u *noopUpdater) Version() uint16 { return u.v }
func (u *noopUpdater) TryUpdate() (uint16, error) {
	u.v = 2
	return u.v, nil
}

func probeTransportFleet(m map[string]float64) {
	bed := must(testbed.New(testbed.Options{Approach: platform.Pull, Seed: "bench-probe-link"}, nil))
	link := transport.IEEE802154(bed.Device.Clock, bed.Device.Meter)
	link.SetTelemetry(bed.Telemetry())
	// 77 bytes is one 64-byte Block2 response on the wire.
	m["transport.transfer_ns"] = timeOp(func() { must(link.Transfer(77)) })

	const devices = 100_000
	updaters := make([]fleet.Updater, devices)
	for i := range updaters {
		updaters[i] = &noopUpdater{id: uint32(i), v: 1}
	}
	campaign := must(fleet.New(2, fleet.Policy{Parallelism: fleetWorkers, MaxResults: -1}, updaters))
	start := time.Now()
	report := must(campaign.Run())
	wall := time.Since(start)
	if report.Updated != devices {
		panic(fmt.Sprintf("no-op campaign updated %d of %d", report.Updated, devices))
	}
	m["fleet.dispatch_ns"] = float64(wall) / devices
}
