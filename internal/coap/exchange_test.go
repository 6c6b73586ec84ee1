package coap_test

import (
	"bytes"
	"testing"

	"upkit/internal/coap"
	"upkit/internal/dist"
	"upkit/internal/proxy"
	"upkit/internal/transport"
)

// Ownership rules of an exchange: a request is the handler's for the
// duration of the call, a response from a LinkExchanger is the caller's
// until its next Exchange, and whoever keeps bytes longer copies them.

func versionRequest(token ...byte) *coap.Message {
	req := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET, Token: token}
	req.SetPath(coap.PathVersion)
	req.AddOption(coap.OptUriQuery, []byte("app=2a"))
	return req
}

// TestProxiedResponseKeepsDeviceLegCorrelation: a proxy forwards the
// request message it was handed through its upstream exchanger, which
// numbers it for that leg. The device must still get its own message ID
// and token back, whichever exchanger carries the device leg.
func TestProxiedResponseKeepsDeviceLegCorrelation(t *testing.T) {
	b := newPullBed(t, true)
	upstream := &coap.Loopback{Handler: coap.NewPullServer(b.Update).Handle}
	for i := 0; i < 5; i++ { // the upstream leg's counter runs ahead
		if _, err := upstream.Exchange(versionRequest()); err != nil {
			t.Fatal(err)
		}
	}
	cache := proxy.NewCache(upstream, proxy.CacheOptions{})
	for _, leg := range []coap.Exchanger{
		&coap.LinkExchanger{Link: b.Link, Handler: cache.Handle},
		&coap.Loopback{Handler: cache.Handle},
	} {
		req := versionRequest(0xA, 0xB)
		resp, err := leg.Exchange(req)
		if err != nil || resp.Code != coap.CodeContent {
			t.Fatalf("%T: %v, %+v", leg, err, resp)
		}
		if req.MessageID != 1 || resp.MessageID != 1 || !bytes.Equal(resp.Token, []byte{0xA, 0xB}) {
			t.Fatalf("%T: request MID %d, response MID %d token %x; want the device leg's MID 1 and token 0a0b",
				leg, req.MessageID, resp.MessageID, resp.Token)
		}
	}
}

// namedBlockGET is the request a Block2 transfer of name repeats: per
// block the caller sets its token and fills its last option, Block2.
func namedBlockGET(name dist.Name) *coap.Message {
	req := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
	req.SetPath(coap.PathBlocks)
	req.AddOption(coap.OptUriQuery, []byte("b="+name.String()))
	req.AddOption(coap.OptBlock2, nil)
	return req
}

// blockFixture serves a 3000-byte payload, no two blocks of it alike,
// by name over a LinkExchanger.
func blockFixture() (payload []byte, name dist.Name, ex *coap.LinkExchanger) {
	payload = make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i) ^ byte(i>>6)
	}
	reg := dist.NewRegistry(0)
	name = reg.Put(payload)
	srv := &coap.BlockServer{Source: reg}
	return payload, name, &coap.LinkExchanger{Link: transport.IEEE802154(nil, nil), Handler: srv.Handle}
}

// TestExchangerSourceBlocksOutliveTheExchange: a cache keeps the chunks
// its upstream source returns, so ExchangerSource may not hand out a
// slice of the exchanger's datagram — the next fill would rewrite the
// chunk cached before it.
func TestExchangerSourceBlocksOutliveTheExchange(t *testing.T) {
	payload, name, ex := blockFixture()
	cache := dist.NewCachingSource(&coap.ExchangerSource{Ex: ex}, 0)
	for _, num := range []uint32{0, 1, 0} { // fill, fill, then chunk 0 from the cache
		data, _, err := cache.Block(name, num, dist.DefaultChunkBytes)
		if err != nil {
			t.Fatal(err)
		}
		if want := payload[int(num)*dist.DefaultChunkBytes:][:dist.DefaultChunkBytes]; !bytes.Equal(data, want) {
			t.Fatalf("chunk %d differs from the origin's bytes", num)
		}
	}
	if st := cache.Stats(); st.Fills != 2 || st.Hits != 1 {
		t.Fatalf("fills %d, hits %d; want two fills and the re-read served from the cache", st.Fills, st.Hits)
	}
}

// TestLinkExchangerResponseIsLentUntilNextExchange: the caller owns a
// response only until its next Exchange on the same exchanger. Whatever
// it did to the old one — kept it, scribbled over it, grew or dropped
// its fields — the next exchange carries the right request and returns
// the right response.
func TestLinkExchangerResponseIsLentUntilNextExchange(t *testing.T) {
	payload, name, ex := blockFixture()
	serve := ex.Handler
	var seen []byte // the handler's request, re-encoded while it still has it
	ex.Handler = func(req *coap.Message) *coap.Message {
		seen, _ = req.Marshal()
		return serve(req)
	}
	req := namedBlockGET(name)
	block2 := &req.Options[len(req.Options)-1]

	for num := uint32(0); num < 4; num++ {
		req.Token = []byte{0x75, byte(num)}
		block2.Value = coap.Block{Num: num, SZX: coap.DefaultSZX}.Marshal()
		resp, err := ex.Exchange(req)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := req.Marshal(); !bytes.Equal(seen, want) {
			t.Fatalf("block %d: handler saw %x, client sent %x", num, seen, want)
		}
		want := &coap.Message{Type: coap.Acknowledgement, Code: coap.CodeContent, MessageID: req.MessageID, Token: req.Token,
			Payload: payload[int(num)*coap.DefaultBlockSize:][:coap.DefaultBlockSize]}
		want.AddOption(coap.OptBlock2, coap.Block{Num: num, More: true, SZX: coap.DefaultSZX}.Marshal())
		wantWire, _ := want.Marshal()
		if got, _ := resp.Marshal(); !bytes.Equal(got, wantWire) {
			t.Fatalf("block %d: response %x, want %x", num, got, wantWire)
		}

		// The caller misuses the response it is about to lose.
		for _, field := range [][]byte{resp.Token, resp.Payload, resp.Options[0].Value} {
			for i := range field {
				field[i] = 0xEE
			}
		}
		switch num {
		case 0:
			resp.Token = append(resp.Token, 0xEE, 0xEE)
			resp.Payload = append(resp.Payload, 0xEE)
			resp.AddOption(coap.OptSize2, []byte{0xEE})
		case 1:
			*resp = coap.Message{}
		case 2:
			resp.Options[0] = coap.Option{Number: coap.OptUriPath, Value: []byte("stale")}
			resp.Options = resp.Options[:0]
		}
	}
}

// TestRetransmissionResendsTheSameDatagram: when the link loses the
// response, the server must see the client's request again, byte for
// byte — the exchanger's buffers are reused between exchanges, never
// within one.
func TestRetransmissionResendsTheSameDatagram(t *testing.T) {
	_, name, ex := blockFixture()
	ex.Link.SetLoss(0.4, 3)
	ex.MaxRetransmit = 64
	serve := ex.Handler
	var want []byte
	sightings := 0
	ex.Handler = func(req *coap.Message) *coap.Message {
		sightings++
		if got, _ := req.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("sighting %d: server saw %x, client sent %x", sightings, got, want)
		}
		return serve(req)
	}
	const exchanges = 40
	req := namedBlockGET(name)
	for num := uint32(0); num < exchanges; num++ {
		req.Token = []byte{byte(num)}
		req.Options[len(req.Options)-1].Value = coap.Block{Num: num, SZX: coap.DefaultSZX}.Marshal()
		req.MessageID = uint16(num + 1) // what Exchange is about to assign
		want, _ = req.Marshal()
		if _, err := ex.Exchange(req); err != nil {
			t.Fatal(err)
		}
	}
	if sightings <= exchanges {
		t.Fatalf("%d requests reached the server in %d exchanges: no response was lost, nothing retransmitted", sightings, exchanges)
	}
}
