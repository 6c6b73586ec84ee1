package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"upkit/internal/bsdiff"
	"upkit/internal/lzss"
	"upkit/internal/manifest"
	"upkit/internal/security"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
	"upkit/internal/verifier"
)

// churnSpec shapes prepare-churn: no devices, two closed-loop clients
// against one update server over a FileStore and a PatchStore. Every
// opsPerPublish-th operation publishes the next version (BuildImage +
// Publish, fsync included) while the other client keeps calling
// PrepareUpdate with a base drawn uniformly from the newest `bases`
// versions below the latest. The patch farm stays off: it would race
// the clients for the two cores and make the diff count unrepeatable.
type churnSpec struct {
	imageKiB      int
	editBytes     int
	versions      int // published during set-up
	bases         int
	opsPerPublish int
	ops           int // at defaultSeconds
}

const (
	churnAppID   = 0x9E9A
	churnClients = 2
)

// churnRun is the built server and its release chain.
type churnRun struct {
	spec   churnSpec
	seed   int64
	suite  security.Suite
	vendor *vendorserver.Server
	server *updateserver.Server
	store  *updateserver.FileStore
	patch  *updateserver.PatchStore

	pubMu    sync.Mutex
	firmware map[uint16][]byte // retained versions, for the final decode check
	latestFW []byte
	// latest is the newest version whose Publish has returned.
	latest atomic.Uint32
}

// buildChurn is one set-up: stores opened in dir, server, keys and the
// pre-published chain.
func buildChurn(spec churnSpec, seed int64, dir string) (*churnRun, error) {
	suite, err := security.SuiteByName("tinycrypt", nil)
	if err != nil {
		return nil, err
	}
	c := &churnRun{spec: spec, seed: seed, suite: suite, firmware: map[uint16][]byte{}}
	if c.store, err = updateserver.NewFileStore(filepath.Join(dir, "releases")); err != nil {
		return nil, err
	}
	if c.patch, err = updateserver.OpenPatchStore(filepath.Join(dir, "patches"), 0); err != nil {
		c.store.Close()
		return nil, err
	}
	tag := fmt.Sprintf("bench-%d-prepare-churn", seed)
	c.vendor = vendorserver.New(suite, security.MustGenerateKey(tag+"-vendor"))
	// Retention keeps the base window, the latest, and one spare, so a
	// base picked just before a publish completes is never pruned under
	// the request (which would silently turn it into a full image).
	c.server = updateserver.New(suite, security.MustGenerateKey(tag+"-server"),
		updateserver.WithStore(c.store),
		updateserver.WithPatchStore(c.patch),
		updateserver.WithSigners(0),
		updateserver.WithRetention(spec.bases+2))
	c.latestFW = BaseFirmware(seed, "prepare-churn", spec.imageKiB*1024)
	for v := 1; v <= spec.versions; v++ {
		if v > 1 {
			c.latestFW = Evolve(c.latestFW, seed, v, 1, spec.editBytes)
		}
		if _, _, err := c.publish(nil, uint16(v)); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *churnRun) close() {
	c.server.Close()
	c.patch.Close()
	c.store.Close()
}

// publish builds and publishes c.latestFW as version v, returning the
// two call durations.
func (c *churnRun) publish(cl *client, v uint16) (build, pub time.Duration, err error) {
	t0 := time.Now()
	cl.enter(spBuild)
	img, err := c.vendor.BuildImage(vendorserver.Release{
		AppID: churnAppID, Version: v, LinkOffset: 0xFFFFFFFF, Firmware: c.latestFW,
	})
	cl.exit()
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	cl.enter(spPublish)
	err = c.server.Publish(img)
	cl.exit()
	if err != nil {
		return 0, 0, err
	}
	c.firmware[v] = c.latestFW
	delete(c.firmware, v-uint16(c.spec.bases)-2)
	c.latest.Store(uint32(v))
	return t1.Sub(t0), time.Since(t1), nil
}

// mix is splitmix64: the per-operation random draw, a pure function of
// (seed, operation index) so the request order does not depend on which
// client picks an operation up.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

type versionPair struct{ from, to uint16 }

// churnClient is one client's tallies.
type churnClient struct {
	c         *client
	ms        [][]float64 // prepare latencies by publish epoch
	bytes     uint64      // Σ manifest + payload bytes returned
	pairs     map[versionPair]struct{}
	buildMs   []float64
	publishMs []float64
	fails     []string
	failed    int
}

// runChurn runs prepare-churn.
func runChurn(w workload, cfg runConfig) (*runResult, error) {
	spec := *w.churn
	res := &runResult{Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, Metrics: map[string]float64{}}

	// Set-up is cheap here (a few dozen fsyncs) and correspondingly
	// noisy, so it is done several times and the median reported; the
	// last one is kept for the run.
	var setups []float64
	var c *churnRun
	for i := 0; i < 7; i++ {
		if c != nil {
			c.close()
		}
		start := time.Now()
		var err error
		if c, err = buildChurn(spec, cfg.seed, filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", i))); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.close()

	var tr *tracer
	if cfg.traced {
		tr = newTracer(w.name)
	}
	runtime.GC() // separates set-up from the measured phase
	totalOps := scaled(spec.ops, cfg.seconds)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	clients := make([]*churnClient, churnClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := range clients {
		cl := &churnClient{c: tr.client(), pairs: map[versionPair]struct{}{}}
		clients[k] = cl
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= totalOps || time.Since(start) >= budget {
					return
				}
				// Odd publish epochs of a traced run record prepare
				// spans; even ones are its untraced reference. Publishes
				// are few and always recorded.
				traced := cfg.traced && (i/spec.opsPerPublish)%2 == 1
				if i%spec.opsPerPublish == 0 {
					c.publishOp(cl, k, i)
				} else {
					c.prepareOp(cl, k, i, traced)
				}
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)

	// Merge the clients.
	var (
		ms                 [2][]float64 // [untraced, traced] epochs, pooled
		prepares           int
		bytesOut           uint64
		pairs              = map[versionPair]struct{}{}
		buildMs, publishMs []float64
	)
	for _, cl := range clients {
		for epoch, samples := range cl.ms {
			prepares += len(samples)
			if cfg.traced && epoch%2 == 1 {
				ms[1] = append(ms[1], samples...)
				continue
			}
			ms[0] = append(ms[0], samples...)
			for len(res.SamplesMs) <= epoch {
				res.SamplesMs = append(res.SamplesMs, nil)
			}
			res.SamplesMs[epoch] = append(res.SamplesMs[epoch], samples...)
		}
		bytesOut += cl.bytes
		for p := range cl.pairs {
			pairs[p] = struct{}{}
		}
		buildMs = append(buildMs, cl.buildMs...)
		publishMs = append(publishMs, cl.publishMs...)
		res.fail(cl.failed, cl.fails...)
	}
	res.Attempted = prepares + len(publishMs)
	// Keep the epochs that ran to the end (a cut-short one has too few
	// cold requests to speak for the tail), unless none did.
	var full, started [][]float64
	for _, samples := range res.SamplesMs {
		if len(samples) == spec.opsPerPublish-1 {
			full = append(full, samples)
		}
		if len(samples) > 0 {
			started = append(started, samples)
		}
	}
	if res.SamplesMs = full; len(full) == 0 {
		res.SamplesMs = started
	}

	// Untimed checks. Every distinct version pair served costs one diff;
	// the only slack is a computation in flight while a publish
	// invalidates the cache, whose result the cache drops (it may come
	// back from the patch store instead of being recomputed).
	st := c.server.Stats()
	got, want, slack := st.Computations+st.DiskHits, uint64(len(pairs)), uint64(churnClients*len(publishMs))
	if got < want || got > want+slack {
		res.fail(1, fmt.Sprintf("updateserver resolved %d diffs (%d computed, %d from disk), want one per distinct version pair served (%d, at most %d more)",
			got, st.Computations, st.DiskHits, want, slack))
	}
	c.verifyWindow(res)

	m := res.Metrics
	m["updates_per_s"] = ratio(float64(prepares), wall.Seconds())
	latencyMetrics(m, res.SamplesMs)
	m["origin_egress_b_per_update"] = ratio(float64(bytesOut), float64(prepares))
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = peakRSSMB()

	serverMetrics(m, c.server)
	// The diffs as they stood before verifyWindow's own requests.
	m["updateserver.diff_computations"] = float64(st.Computations)
	m["updateserver.publish_ms"] = median(publishMs)
	m["vendorserver.build_ms"] = median(buildMs)

	if cfg.traced {
		a := tr.analyse(spPrepare)
		res.Spans = &a
		if err := tr.checkParentage(); err != nil {
			res.fail(1, err.Error())
		}
		pk := a.Kinds[spanNames[spPrepare]]
		m["updateserver.prepare_us"] = ratio(pk.DurNs, float64(pk.Count)) / 1e3
		// Rates cannot be compared between epochs of one process here
		// (each epoch's 32 diffs dominate its wall time), so overhead is
		// taken on the warm path, where a span is the largest share.
		sort.Float64s(ms[1])
		m["trace.overhead_frac"] = ratio(percentile(ms[1], 0.5), m["update_p50_ms"]) - 1
		m["trace.closure_frac"] = ratio(ratio(a.SelfNs, float64(a.Traces)), mean(ms[0])*1e6)
		if cfg.traceOut != "" {
			if err := tr.write(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// publishOp is operation i when it is a publish.
func (c *churnRun) publishOp(cl *churnClient, k, i int) {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	v := uint16(c.latest.Load()) + 1
	c.latestFW = Evolve(c.latestFW, c.seed, int(v), 1, c.spec.editBytes)
	cl.c.start(true, spPublishOp)
	build, pub, err := c.publish(cl.c, v)
	cl.c.finish(uint32(k), i)
	if err != nil {
		cl.failed++
		cl.fails = append(cl.fails, fmt.Sprintf("op %d: publish v%d: %v", i, v, err))
		return
	}
	cl.buildMs = append(cl.buildMs, float64(build)/1e6)
	cl.publishMs = append(cl.publishMs, float64(pub)/1e6)
}

// prepareOp is operation i when it is a PrepareUpdate.
func (c *churnRun) prepareOp(cl *churnClient, k, i int, traced bool) {
	latest := uint16(c.latest.Load())
	tok := manifest.DeviceToken{
		DeviceID:       uint32(0xC000 + k),
		Nonce:          uint32(i + 1),
		CurrentVersion: latest - 1 - uint16(mix(c.seed, i)%uint64(c.spec.bases)),
	}
	start := time.Now()
	cl.c.start(traced, spPrepare)
	u, err := c.server.PrepareUpdate(churnAppID, tok)
	cl.c.finish(uint32(k), i)
	ms := float64(time.Since(start)) / 1e6
	epoch := i / c.spec.opsPerPublish
	for len(cl.ms) <= epoch {
		cl.ms = append(cl.ms, nil)
	}
	cl.ms[epoch] = append(cl.ms[epoch], ms)
	switch {
	case err != nil:
		cl.failed++
		cl.fails = append(cl.fails, fmt.Sprintf("op %d: prepare from v%d: %v", i, tok.CurrentVersion, err))
	case !u.Differential || u.Manifest.Version < latest || u.Manifest.OldVersion != tok.CurrentVersion:
		cl.failed++
		cl.fails = append(cl.fails, fmt.Sprintf("op %d: prepare from v%d (latest v%d): got v%d→v%d, differential=%v",
			i, tok.CurrentVersion, latest, u.Manifest.OldVersion, u.Manifest.Version, u.Differential))
	default:
		cl.bytes += uint64(u.TotalSize())
		cl.pairs[versionPair{tok.CurrentVersion, u.Manifest.Version}] = struct{}{}
	}
}

// verifyWindow checks, for every base of the final window, that the
// served payload decodes to exactly the latest image and that both
// manifest signatures verify for the request's device ID and nonce.
func (c *churnRun) verifyWindow(res *runResult) {
	latest := uint16(c.latest.Load())
	v := verifier.New(c.suite, verifier.Keys{Vendor: c.vendor.PublicKey(), Server: c.server.PublicKey()}, nil)
	for b := 0; b < c.spec.bases; b++ {
		res.Attempted++
		tok := manifest.DeviceToken{DeviceID: 0xCF00, Nonce: uint32(0xF000 + b), CurrentVersion: latest - 1 - uint16(b)}
		if msg := c.verifyPair(v, tok, latest); msg != "" {
			res.fail(1, fmt.Sprintf("verify v%d→v%d: %s", tok.CurrentVersion, latest, msg))
		}
	}
}

func (c *churnRun) verifyPair(v *verifier.Verifier, tok manifest.DeviceToken, latest uint16) string {
	u, err := c.server.PrepareUpdate(churnAppID, tok)
	if err != nil {
		return err.Error()
	}
	if !u.Differential || u.Manifest.Version != latest {
		return fmt.Sprintf("got v%d, differential=%v", u.Manifest.Version, u.Differential)
	}
	err = v.VerifyManifestForAgent(&u.Manifest, tok,
		verifier.DeviceInfo{DeviceID: tok.DeviceID, AppID: churnAppID, CurrentVersion: tok.CurrentVersion},
		verifier.SlotInfo{LinkBase: 0xFFFFFFFF, Capacity: len(c.latestFW)})
	if err != nil {
		return err.Error()
	}
	patch, err := lzss.Decode(u.Payload)
	if err != nil {
		return err.Error()
	}
	got, err := bsdiff.Apply(c.firmware[tok.CurrentVersion], patch)
	if err != nil {
		return err.Error()
	}
	if !bytes.Equal(got, c.latestFW) {
		return "decoded payload is not the latest image"
	}
	return ""
}
