package testbed

import (
	"errors"
	"testing"

	"upkit/internal/adversary"
	"upkit/internal/coap"
	"upkit/internal/dist"
	"upkit/internal/events"
	"upkit/internal/platform"
	"upkit/internal/proxy"
	"upkit/internal/security"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
	"upkit/internal/verifier"
)

// The distribution tier: devices pull named blocks through caching
// proxies and peers instead of straight from the origin. These tests
// cover the honest topologies; the poisoned-cache attacks live with the
// other adversarial tests below (TestAdversary*).

// distBed builds a bed whose pull clients run the content-addressed
// path through a caching proxy.
func distBed(t *testing.T, seed string) (*Bed, *proxy.Cache) {
	t.Helper()
	b := newBed(t, Options{Approach: platform.Pull, Seed: seed})
	if err := b.PublishVersion(2, MakeFirmware(seed+"-v2", fwSize)); err != nil {
		t.Fatal(err)
	}
	cache := proxy.NewCache(&coap.Loopback{Handler: b.PullHandler()}, proxy.CacheOptions{})
	b.Distribute(cache.Handle, BlockRoute{Name: "proxy", Handler: cache.Handle})
	return b, cache
}

func TestDistributeUpdatesThroughProxy(t *testing.T) {
	b, cache := distBed(t, "dist-proxy")
	res, err := b.PullUpdate()
	if err != nil {
		t.Fatalf("PullUpdate through proxy: %v", err)
	}
	if res.Version != 2 {
		t.Fatalf("booted v%d, want v2", res.Version)
	}
	if st := cache.Stats(); st.Fills == 0 {
		t.Fatalf("cache stats = %+v: transfer must have filled the proxy", st)
	}
}

// TestDistTopologySavesOriginEgress: two devices update through one
// caching proxy and a third straight from the origin, all on one
// update server. The first proxied transfer fills the cache; the second
// is served from it, so it costs the origin less than half of what the
// direct device's transfer costs.
func TestDistTopologySavesOriginEgress(t *testing.T) {
	suite, err := security.SuiteByName("tinycrypt", nil)
	if err != nil {
		t.Fatal(err)
	}
	vendor := vendorserver.New(suite, security.MustGenerateKey("dist-proxy-vendor"))
	update := updateserver.New(suite, security.MustGenerateKey("dist-proxy-server"))
	vendor.SetTelemetry(update.Telemetry())
	pull := coap.NewPullServer(update)
	cache := proxy.NewCache(&coap.Loopback{Handler: pull.Handle}, proxy.CacheOptions{})

	newDistBed := func(deviceID uint32, seed string, viaProxy bool) *Bed {
		b, err := New(Options{
			Approach:     platform.Pull,
			DeviceID:     deviceID,
			Seed:         seed,
			SharedVendor: vendor,
			SharedUpdate: update,
			SharedPull:   pull,
		}, MakeFirmware("dist-proxy-v1", fwSize))
		if err != nil {
			t.Fatal(err)
		}
		if viaProxy {
			b.Distribute(cache.Handle, BlockRoute{Name: "proxy", Handler: cache.Handle})
		}
		return b
	}
	direct := newDistBed(0xD1, "dist-proxy-direct", false)
	cold := newDistBed(0xC0, "dist-proxy-cold", true)
	warm := newDistBed(0x3A, "dist-proxy-warm", true)
	if err := direct.PublishVersion(2, MakeFirmware("dist-proxy-v2", fwSize)); err != nil {
		t.Fatal(err)
	}

	egress := coap.OriginEgressCounter(update.Telemetry())
	pullCost := func(name string, b *Bed) uint64 {
		before := egress.Value()
		res, err := b.PullUpdate()
		if err != nil {
			t.Fatalf("%s: PullUpdate: %v", name, err)
		}
		if res.Version != 2 {
			t.Fatalf("%s: booted v%d, want v2", name, res.Version)
		}
		return egress.Value() - before
	}
	directCost := pullCost("direct", direct)
	pullCost("cold proxy", cold)
	if st := cache.Stats(); st.Fills == 0 {
		t.Fatalf("cache stats = %+v: transfer must have filled the proxy", st)
	}
	if warmCost := pullCost("warm proxy", warm); warmCost*2 >= directCost {
		t.Fatalf("origin egress %d B behind a warm proxy vs %d B direct: want at least 2x less",
			warmCost, directCost)
	}
}

// TestPeerAssistedDistribution: the first device's verified download is
// admitted into a shared peer registry; the second device's transfer is
// then served from that peer without touching the origin for blocks.
func TestPeerAssistedDistribution(t *testing.T) {
	suite, err := security.SuiteByName("tinycrypt", nil)
	if err != nil {
		t.Fatal(err)
	}
	vendor := vendorserver.New(suite, security.MustGenerateKey("dist-peer-vendor"))
	update := updateserver.New(suite, security.MustGenerateKey("dist-peer-server"))
	vendor.SetTelemetry(update.Telemetry())
	pull := coap.NewPullServer(update)
	peers := dist.NewRegistry(0)
	peerSrv := &coap.BlockServer{Source: peers}

	newPeerBed := func(deviceID uint32, seed string) *Bed {
		b, err := New(Options{
			Approach:     platform.Pull,
			DeviceID:     deviceID,
			Seed:         seed,
			SharedVendor: vendor,
			SharedUpdate: update,
			SharedPull:   pull,
		}, MakeFirmware("dist-peer-v1", fwSize))
		if err != nil {
			t.Fatal(err)
		}
		b.Distribute(nil, BlockRoute{Name: "peer", Handler: peerSrv.Handle})
		b.ShareBlocks(peers)
		return b
	}

	a := newPeerBed(0xA11CE, "dist-peer-a")
	c := newPeerBed(0xB0B, "dist-peer-b")
	if err := a.PublishVersion(2, MakeFirmware("dist-peer-v2", fwSize)); err != nil {
		t.Fatal(err)
	}

	// Device A updates; its peer route has nothing yet, so it fails over
	// to the origin — and then seeds the peer registry.
	if res, err := a.PullUpdate(); err != nil || res.Version != 2 {
		t.Fatalf("device A: res=%+v err=%v", res, err)
	}
	if st := peers.Stats(); st.Entries == 0 {
		t.Fatal("device A's download did not seed the peer registry")
	}

	// Device B's blocks now come from the peer.
	hitsBefore := peers.Stats().Hits
	if res, err := c.PullUpdate(); err != nil || res.Version != 2 {
		t.Fatalf("device B: res=%+v err=%v", res, err)
	}
	if peers.Stats().Hits <= hitsBefore {
		t.Fatal("device B's transfer did not hit the peer registry")
	}
}

// TestAdversaryPoisonedProxyCache: a caching proxy serves mutated block
// bytes (flipped bit — cache corruption or a hostile proxy). The digest
// check rejects the stream with the exact reject label, the device
// fails over to the origin, and the update still completes.
func TestAdversaryPoisonedProxyCache(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Seed: "adv-cache-mut"})
	if err := b.PublishVersion(2, MakeFirmware("adv-cache-mut-v2", fwSize)); err != nil {
		t.Fatal(err)
	}
	cache := proxy.NewCache(&coap.Loopback{Handler: b.PullHandler()}, proxy.CacheOptions{})
	flip := adversary.FlipBitInBlock(5, 3)
	poisoned := func(req *coap.Message) *coap.Message {
		resp := cache.Handle(req)
		if alt := flip(req, resp); alt != nil {
			resp = alt
		}
		return resp
	}
	b.Distribute(cache.Handle, BlockRoute{Name: "proxy", Handler: poisoned})

	before := rejectCount(b, "agent", "digest")
	res, err := b.PullUpdate()
	if err != nil {
		t.Fatalf("update despite poisoned proxy: %v", err)
	}
	if res.Version != 2 {
		t.Fatalf("booted v%d, want v2 via origin failover", res.Version)
	}
	if got := rejectCount(b, "agent", "digest"); got != before+1 {
		t.Fatalf("upkit_reject_total{agent,digest} = %d, want %d", got, before+1)
	}
	if b.Device.Events.Count(events.KindFirmwareRejected) == 0 {
		t.Fatal("no KindFirmwareRejected event")
	}
	if b.Device.Events.Count(events.KindSourceFailover) == 0 {
		t.Fatal("no KindSourceFailover event")
	}
}

// TestAdversaryStaleCacheContent: the proxy serves valid-looking bytes
// of the PREVIOUS firmware version under the new payload's name — a
// stale or deliberately regressive cache. Wrong bytes under a right
// name are exactly what the content address plus digest check exist to
// catch.
func TestAdversaryStaleCacheContent(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Seed: "adv-cache-stale"})
	if err := b.PublishVersion(2, MakeFirmware("adv-cache-stale-v2", fwSize)); err != nil {
		t.Fatal(err)
	}
	v1img, ok := b.Update.Store().ByVersion(b.opts.AppID, 1)
	if !ok {
		t.Fatal("v1 image not in store")
	}
	stale := v1img.Firmware

	cache := proxy.NewCache(&coap.Loopback{Handler: b.PullHandler()}, proxy.CacheOptions{})
	poisoned := func(req *coap.Message) *coap.Message {
		resp := cache.Handle(req)
		if req.Path() != coap.PathBlocks || resp.Code != coap.CodeContent || len(resp.Payload) == 0 {
			return resp
		}
		raw, has := resp.Option(coap.OptBlock2)
		if !has {
			return resp
		}
		blk, err := coap.ParseBlock(raw)
		if err != nil {
			return resp
		}
		// Substitute the same-length slice of the old version's bytes.
		out := make([]byte, len(resp.Payload))
		start := int(blk.Num) * blk.Size()
		if start < len(stale) {
			copy(out, stale[start:min(start+len(out), len(stale))])
		}
		resp.Payload = out
		return resp
	}
	b.Distribute(cache.Handle, BlockRoute{Name: "proxy", Handler: poisoned})

	before := rejectCount(b, "agent", "digest")
	res, err := b.PullUpdate()
	if err != nil {
		t.Fatalf("update despite stale cache: %v", err)
	}
	if res.Version != 2 {
		t.Fatalf("booted v%d, want v2 via origin failover", res.Version)
	}
	if got := rejectCount(b, "agent", "digest"); got != before+1 {
		t.Fatalf("upkit_reject_total{agent,digest} = %d, want %d", got, before+1)
	}
	if b.Device.Events.Count(events.KindSourceFailover) == 0 {
		t.Fatal("no KindSourceFailover event")
	}
}

// TestAdversaryFullyPoisonedDistribution: every source — proxy and
// origin — serves mutated blocks. The update must fail outright, with
// one digest rejection per source, and the device must keep booting its
// old image: availability survives a fully hostile distribution tier.
func TestAdversaryFullyPoisonedDistribution(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Seed: "adv-cache-all"})
	if err := b.PublishVersion(2, MakeFirmware("adv-cache-all-v2", fwSize)); err != nil {
		t.Fatal(err)
	}
	cache := proxy.NewCache(&coap.Loopback{Handler: b.PullHandler()}, proxy.CacheOptions{})
	b.Distribute(cache.Handle, BlockRoute{Name: "proxy", Handler: cache.Handle})

	c := b.PullClient()
	for i := range c.Sources {
		c.Sources[i].Ex = &adversary.Interceptor{
			Inner:      c.Sources[i].Ex,
			OnResponse: adversary.FlipBitInBlock(5, 3),
		}
	}

	before := rejectCount(b, "agent", "digest")
	staged, err := c.CheckAndUpdate()
	if staged || err == nil {
		t.Fatalf("fully poisoned distribution: staged=%v err=%v, want failure", staged, err)
	}
	if !errors.Is(err, verifier.ErrDigest) {
		t.Fatalf("error = %v, want ErrDigest in the chain", err)
	}
	var se *coap.SourceError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v, want *SourceError naming the last source", err)
	}
	if got := rejectCount(b, "agent", "digest"); got != before+2 {
		t.Fatalf("upkit_reject_total{agent,digest} = %d, want %d (one per source)", got, before+2)
	}
	assertWaitingAndBootable(t, b, 1)

	// The moment one honest path exists again, the update completes.
	b.Distribute(cache.Handle, BlockRoute{Name: "proxy", Handler: cache.Handle})
	res, err := b.PullUpdate()
	if err != nil {
		t.Fatalf("clean retry: %v", err)
	}
	if res.Version != 2 {
		t.Fatalf("retry booted v%d, want v2", res.Version)
	}
}
