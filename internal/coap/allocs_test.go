package coap_test

import (
	"testing"

	"upkit/internal/coap"
	"upkit/internal/manifest"
	"upkit/internal/proxy"
	"upkit/internal/testbed"
)

// Allocation pins for the per-block serve paths. A full-image update is
// two thousand of these per device, so their garbage is what the
// collector spends a proxied fleet's CPU on; before the routing stopped
// building path strings a named-block hit allocated 42 times and a
// proxy hit 18.

// namedBlockRequest prepares a full-image update on the bed's server,
// which names its payload in the block registry, and returns a pulling
// device's GET /upkit/blocks request for 64-byte block 9 of it.
func namedBlockRequest(t *testing.T, b *testbed.Bed) *coap.Message {
	t.Helper()
	u, err := b.Update.PrepareUpdate(0x2A, manifest.DeviceToken{DeviceID: 0xD0D1, Nonce: 0x5EED})
	if err != nil {
		t.Fatal(err)
	}
	req := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
	req.SetPath(coap.PathBlocks)
	req.AddOption(coap.OptUriQuery, []byte("b="+u.PayloadName.String()))
	req.AddOption(coap.OptBlock2, coap.Block{Num: 9, SZX: coap.DefaultSZX}.Marshal())
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
	if got := serveAllocs(t, coap.NewPullServer(b.Update).Handle, req); got > 8 {
		t.Fatalf("origin named-block hit: %.0f allocations, want ≤ 8", got)
	}
}

func TestProxyHitAllocations(t *testing.T) {
	b := newPullBed(t, true)
	origin := &coap.Loopback{Handler: coap.NewPullServer(b.Update).Handle}
	cache := proxy.NewCache(origin, proxy.CacheOptions{})
	req := namedBlockRequest(t, b)
	if got := serveAllocs(t, cache.Handle, req); got > 8 {
		t.Fatalf("proxy hit: %.0f allocations, want ≤ 8", got)
	}
}
