package coap_test

import (
	"testing"

	"upkit/internal/coap"
	"upkit/internal/energy"
	"upkit/internal/manifest"
	"upkit/internal/platform"
	"upkit/internal/proxy"
	"upkit/internal/simclock"
	"upkit/internal/testbed"
	"upkit/internal/transport"
)

// BenchmarkProxyBlockExchangeParallel is fleet-full-proxy's per-block
// path alone: each goroutine is one device with a radio of its own
// (LinkExchanger, Link, Clock, Meter), and all of them pull one payload's
// named blocks through one proxy.Cache, counting on one registry. What
// the goroutines share is what the fleet's devices share, so -cpu 1,2
// shows the cost of the shared writes per block.
func BenchmarkProxyBlockExchangeParallel(b *testing.B) {
	bed, err := testbed.New(testbed.Options{Approach: platform.Pull}, testbed.MakeFirmware("coap-v1", fwSize))
	if err != nil {
		b.Fatal(err)
	}
	if err := bed.PublishVersion(2, testbed.MakeFirmware("coap-v2", fwSize)); err != nil {
		b.Fatal(err)
	}
	u, err := bed.Update.PrepareUpdate(0x2A, manifest.DeviceToken{DeviceID: 0xD0D1, Nonce: 0x5EED})
	if err != nil {
		b.Fatal(err)
	}
	reg := bed.Telemetry()
	cache := proxy.NewCache(&coap.Loopback{Handler: coap.NewPullServer(bed.Update).Handle},
		proxy.CacheOptions{Telemetry: reg})
	blocks := uint32((len(u.Payload) + coap.DefaultBlockSize - 1) / coap.DefaultBlockSize)
	device := func() (*coap.LinkExchanger, func(num uint32) *coap.Message) {
		link := transport.IEEE802154(simclock.New(), energy.NewMeter(energy.NRF52840Profile()))
		link.SetTelemetry(reg)
		ex := &coap.LinkExchanger{Link: link, Handler: cache.Handle, Telemetry: reg}
		req := namedBlockGET(u.PayloadName)
		var block2 [3]byte
		return ex, func(num uint32) *coap.Message {
			req.Options[len(req.Options)-1].Value = coap.Block{Num: num, SZX: coap.DefaultSZX}.AppendTo(block2[:0])
			return req
		}
	}
	// Fill the cache first: the fleet's steady state is all hits.
	ex, req := device()
	for num := range blocks {
		if resp, err := ex.Exchange(req(num)); err != nil || resp.Code != coap.CodeContent {
			b.Fatalf("fill block %d: %v", num, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ex, req := device()
		for num := uint32(0); pb.Next(); num = (num + 1) % blocks {
			resp, err := ex.Exchange(req(num))
			if err != nil || resp.Code != coap.CodeContent {
				b.Errorf("block %d: %v", num, err)
				return
			}
		}
	})
}
