package coap_test

import (
	"bytes"
	"testing"

	"upkit/internal/coap"
	"upkit/internal/dist"
	"upkit/internal/manifest"
	"upkit/internal/proxy"
	"upkit/internal/testbed"
)

// Allocation pins for the per-block paths. A full-image update is two
// thousand of these per device, so their garbage is what the collector
// spends a proxied fleet's CPU on. A handler's block hit is one
// allocation — the reply, which owns its copy of the block (it was 42
// on the origin and 18 on the proxy, then 6); a whole exchange through
// a LinkExchanger adds none to that (it was 24). The pins leave one
// allocation of slack for a toolchain that inlines differently.

// namedBlockRequest prepares a full-image update on the bed's server,
// which names its payload in the block registry, and returns a pulling
// device's GET /upkit/blocks request for 64-byte block 9 of it.
func namedBlockRequest(t *testing.T, b *testbed.Bed) *coap.Message {
	t.Helper()
	u, err := b.Update.PrepareUpdate(0x2A, manifest.DeviceToken{DeviceID: 0xD0D1, Nonce: 0x5EED})
	if err != nil {
		t.Fatal(err)
	}
	req := namedBlockGET(u.PayloadName)
	req.Options[len(req.Options)-1].Value = coap.Block{Num: 9, SZX: coap.DefaultSZX}.Marshal()
	return req
}

func serveAllocs(t *testing.T, h coap.Handler, req *coap.Message) float64 {
	t.Helper()
	return testing.AllocsPerRun(200, func() {
		if r := h(req); r.Code != coap.CodeContent || len(r.Payload) != coap.DefaultBlockSize {
			t.Fatalf("block refused: %s, %d payload bytes", r.Code, len(r.Payload))
		}
	})
}

func TestNamedBlockHitAllocations(t *testing.T) {
	b := newPullBed(t, true)
	req := namedBlockRequest(t, b)
	if got := serveAllocs(t, coap.NewPullServer(b.Update).Handle, req); got > 2 {
		t.Fatalf("origin named-block hit: %.0f allocations, want ≤ 2", got)
	}
}

func TestProxyHitAllocations(t *testing.T) {
	b := newPullBed(t, true)
	origin := &coap.Loopback{Handler: coap.NewPullServer(b.Update).Handle}
	cache := proxy.NewCache(origin, proxy.CacheOptions{})
	req := namedBlockRequest(t, b)
	if got := serveAllocs(t, cache.Handle, req); got > 2 {
		t.Fatalf("proxy hit: %.0f allocations, want ≤ 2", got)
	}
}

// TestProxyHitAllocationsAlternatingNames is TestProxyHitAllocations
// with every request naming another payload than the one before, so
// that each misses the block server's parsed-name memo and replaces it.
func TestProxyHitAllocationsAlternatingNames(t *testing.T) {
	reg := dist.NewRegistry(0)
	names := [2]dist.Name{reg.Put(bytes.Repeat([]byte("a"), 1024)), reg.Put(bytes.Repeat([]byte("b"), 1024))}
	cache := proxy.NewCache(&coap.Loopback{Handler: (&coap.BlockServer{Source: reg}).Handle}, proxy.CacheOptions{})
	var reqs [2]*coap.Message
	for i, name := range names {
		reqs[i] = namedBlockGET(name)
		reqs[i].Options[len(reqs[i].Options)-1].Value = coap.Block{Num: 9, SZX: coap.DefaultSZX}.Marshal()
		cache.Handle(reqs[i]) // fill
	}
	n := 0
	alternate := func(*coap.Message) *coap.Message { n++; return cache.Handle(reqs[n%2]) }
	if got := serveAllocs(t, alternate, nil); got > 2 {
		t.Fatalf("proxy hit, alternating names: %.0f allocations, want ≤ 2", got)
	}
}

// exchangeAllocs counts the allocations of one whole block exchange —
// request encoded, charged to the link, decoded, handled, and the same
// for the response — when the caller does what PullClient does: build
// req once, then rewrite only its token and (last) Block2 option in
// place.
func exchangeAllocs(t *testing.T, b *testbed.Bed, h coap.Handler, req *coap.Message) float64 {
	t.Helper()
	ex := &coap.LinkExchanger{Link: b.Link, Handler: h}
	token := []byte{0x75, 0x6B, 0, 0}
	var blockValue [3]byte
	num := uint32(0)
	return testing.AllocsPerRun(200, func() {
		token[2]++
		num = (num + 1) % 16
		req.Token = token
		req.Options[len(req.Options)-1].Value = coap.Block{Num: num, SZX: coap.DefaultSZX}.AppendTo(blockValue[:0])
		resp, err := ex.Exchange(req)
		if err != nil || resp.Code != coap.CodeContent || len(resp.Payload) != coap.DefaultBlockSize {
			t.Fatalf("block %d: %v, %+v", num, err, resp)
		}
	})
}

func TestNamedBlockExchangeAllocations(t *testing.T) {
	b := newPullBed(t, true)
	origin := &coap.Loopback{Handler: coap.NewPullServer(b.Update).Handle}
	cache := proxy.NewCache(origin, proxy.CacheOptions{})
	if got := exchangeAllocs(t, b, cache.Handle, namedBlockRequest(t, b)); got > 2 {
		t.Fatalf("named block, device to proxy hit and back: %.0f allocations, want ≤ 2", got)
	}
}

func TestSessionBlockExchangeAllocations(t *testing.T) {
	b := newPullBed(t, true)
	srv := coap.NewPullServer(b.Update)
	tok := manifest.DeviceToken{DeviceID: 0xD0D1, Nonce: 0x5EED}
	tokBytes, err := tok.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	post := &coap.Message{Type: coap.Confirmable, Code: coap.CodePOST, Payload: tokBytes}
	post.SetPath(coap.PathRequest)
	post.AddOption(coap.OptUriQuery, []byte("app=2a"))
	if r := srv.Handle(post); r.Code != coap.CodeContent {
		t.Fatalf("session set-up refused: %s", r.Code)
	}
	req := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
	req.SetPath(coap.PathImage)
	req.AddOption(coap.OptUriQuery, []byte("d=d0d1"))
	req.AddOption(coap.OptUriQuery, []byte("n=5eed"))
	req.AddOption(coap.OptBlock2, nil)
	if got := exchangeAllocs(t, b, srv.Handle, req); got > 2 {
		t.Fatalf("session block, device to origin and back: %.0f allocations, want ≤ 2", got)
	}
}
