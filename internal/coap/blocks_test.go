package coap_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"upkit/internal/coap"
	"upkit/internal/dist"
	"upkit/internal/events"
	"upkit/internal/platform"
	"upkit/internal/proxy"
	"upkit/internal/testbed"
)

// TestBlockServerHonorsRequestedSZX pins the wire behaviour for large
// client-requested block sizes: a proxy on mains power asks for 512- or
// 1024-byte blocks and must get exactly that, with the request's SZX
// echoed in the response's Block2 option. The exchanges run through the
// full codec (Loopback) so the option bytes on the wire are what is
// asserted.
func TestBlockServerHonorsRequestedSZX(t *testing.T) {
	payload := make([]byte, 1536)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	reg := dist.NewRegistry(0)
	name := reg.Put(payload)
	ex := &coap.Loopback{Handler: (&coap.BlockServer{Source: reg}).Handle}

	get := func(num uint32, szx uint8) *coap.Message {
		req := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
		req.SetPath(coap.PathBlocks)
		req.AddOption(coap.OptUriQuery, []byte("b="+name.String()))
		req.AddOption(coap.OptBlock2, coap.Block{Num: num, SZX: szx}.Marshal())
		resp, err := ex.Exchange(req)
		if err != nil {
			t.Fatalf("block %d szx %d: %v", num, szx, err)
		}
		return resp
	}

	for _, tc := range []struct {
		num       uint32
		szx       uint8
		wantLen   int
		wantBlock []byte // pinned Block2 option wire bytes
	}{
		{0, 5, 512, []byte{0x0D}},  // num 0, more, SZX 5
		{1, 5, 512, []byte{0x1D}},  // num 1, more, SZX 5
		{2, 5, 512, []byte{0x25}},  // num 2, last, SZX 5
		{0, 6, 1024, []byte{0x0E}}, // num 0, more, SZX 6
		{1, 6, 512, []byte{0x16}},  // num 1, last (short), SZX 6
	} {
		resp := get(tc.num, tc.szx)
		if resp.Code != coap.CodeContent {
			t.Fatalf("block %d szx %d code = %v", tc.num, tc.szx, resp.Code)
		}
		if len(resp.Payload) != tc.wantLen {
			t.Fatalf("block %d szx %d payload = %d bytes, want %d",
				tc.num, tc.szx, len(resp.Payload), tc.wantLen)
		}
		raw, ok := resp.Option(coap.OptBlock2)
		if !ok {
			t.Fatalf("block %d szx %d: missing Block2", tc.num, tc.szx)
		}
		if !bytes.Equal(raw, tc.wantBlock) {
			t.Fatalf("block %d szx %d Block2 wire bytes = %x, want %x",
				tc.num, tc.szx, raw, tc.wantBlock)
		}
		start := int(tc.num) * coap.Block{SZX: tc.szx}.Size()
		if !bytes.Equal(resp.Payload, payload[start:start+tc.wantLen]) {
			t.Fatalf("block %d szx %d: wrong bytes", tc.num, tc.szx)
		}
	}
}

// TestBlockServerRejectsReservedSZX pins the bounds check: the reserved
// SZX 7 (RFC 7959 §2.2) in a request must be refused, not interpreted
// as a 2048-byte block.
func TestBlockServerRejectsReservedSZX(t *testing.T) {
	reg := dist.NewRegistry(0)
	name := reg.Put([]byte("payload"))
	srv := &coap.BlockServer{Source: reg}

	req := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
	req.SetPath(coap.PathBlocks)
	req.AddOption(coap.OptUriQuery, []byte("b="+name.String()))
	req.AddOption(coap.OptBlock2, []byte{0x0F}) // num 0, more, SZX 7
	if resp := srv.Handle(req); resp.Code != coap.CodeBadReq {
		t.Fatalf("reserved SZX code = %v, want 4.00", resp.Code)
	}
}

func TestBlockServerErrorMapping(t *testing.T) {
	reg := dist.NewRegistry(0)
	name := reg.Put(make([]byte, 100))
	srv := &coap.BlockServer{Source: reg}

	get := func(q string, block []byte) coap.Code {
		req := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
		req.SetPath(coap.PathBlocks)
		if q != "" {
			req.AddOption(coap.OptUriQuery, []byte(q))
		}
		if block != nil {
			req.AddOption(coap.OptBlock2, block)
		}
		return srv.Handle(req).Code
	}

	if code := get("b="+dist.NameOf([]byte("absent")).String(), nil); code != coap.CodeNotFound {
		t.Fatalf("unknown name code = %v, want 4.04", code)
	}
	if code := get("b=zzzz", nil); code != coap.CodeBadReq {
		t.Fatalf("malformed name code = %v, want 4.00", code)
	}
	if code := get("", nil); code != coap.CodeBadReq {
		t.Fatalf("missing name code = %v, want 4.00", code)
	}
	// Block far past the end of the payload.
	if code := get("b="+name.String(), coap.Block{Num: 99, SZX: 2}.Marshal()); code != coap.CodeBadReq {
		t.Fatalf("out-of-range code = %v, want 4.00", code)
	}
}

// TestBlockServerConcurrentNames drives one proxy from goroutines that
// alternate two payloads' names and a malformed one, so the block
// server's parsed-name memo is replaced under every reader. Each reply
// must carry its own name's bytes, and the malformed name is still
// refused.
func TestBlockServerConcurrentNames(t *testing.T) {
	reg := dist.NewRegistry(0)
	payloads := [2][]byte{bytes.Repeat([]byte("payload-a "), 300), bytes.Repeat([]byte("payload-b!"), 300)}
	names := [2]dist.Name{reg.Put(payloads[0]), reg.Put(payloads[1])}
	cache := proxy.NewCache(&coap.Loopback{Handler: (&coap.BlockServer{Source: reg}).Handle}, proxy.CacheOptions{})
	queries := [3]string{"b=" + names[0].String(), "b=" + names[1].String(), "b=" + strings.Repeat("zz", dist.NameSize)}
	blocks := (len(payloads[0]) + coap.DefaultBlockSize - 1) / coap.DefaultBlockSize

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 600 {
				k, num := (g+i)%3, i%blocks
				req := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
				req.SetPath(coap.PathBlocks)
				req.AddOption(coap.OptUriQuery, []byte(queries[k]))
				req.AddOption(coap.OptBlock2, coap.Block{Num: uint32(num), SZX: coap.DefaultSZX}.Marshal())
				resp := cache.Handle(req)
				if k == 2 {
					if resp.Code != coap.CodeBadReq {
						t.Errorf("malformed name: %v, want 4.00", resp.Code)
						return
					}
					continue
				}
				want := payloads[k][num*coap.DefaultBlockSize : min((num+1)*coap.DefaultBlockSize, len(payloads[k]))]
				if resp.Code != coap.CodeContent || !bytes.Equal(resp.Payload, want) {
					t.Errorf("name %d block %d: %v %q, want 2.05 %q", k, num, resp.Code, resp.Payload, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestExchangerSourceRoundTrip reassembles a payload through the
// remote-source adapter — the caching proxy's origin-fill path.
func TestExchangerSourceRoundTrip(t *testing.T) {
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i)
	}
	reg := dist.NewRegistry(0)
	name := reg.Put(payload)
	src := &coap.ExchangerSource{Ex: &coap.Loopback{Handler: (&coap.BlockServer{Source: reg}).Handle}}

	var got []byte
	for num := uint32(0); ; num++ {
		data, more, err := src.Block(name, num, 1024)
		if err != nil {
			t.Fatalf("block %d: %v", num, err)
		}
		got = append(got, data...)
		if !more {
			break
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reassembled payload differs")
	}
	if _, _, err := src.Block(dist.NameOf([]byte("absent")), 0, 1024); !errors.Is(err, dist.ErrUnknownName) {
		t.Fatalf("unknown name: %v, want ErrUnknownName", err)
	}
}

// TestPullImageHonorsRequestedSZX covers the session-bound image path:
// the same transfer a constrained device runs at 64 bytes can be pulled
// at 512 by a better-connected client.
func TestPullImageHonorsRequestedSZX(t *testing.T) {
	b := newPullBed(t, true)
	srv := coap.NewPullServer(b.Update)

	tok, err := b.Device.Agent.RequestDeviceToken()
	if err != nil {
		t.Fatal(err)
	}
	tokBytes, _ := tok.MarshalBinary()
	req := &coap.Message{Type: coap.Confirmable, Code: coap.CodePOST, Payload: tokBytes}
	req.SetPath(coap.PathRequest)
	req.AddOption(coap.OptUriQuery, []byte("app=2a"))
	if resp := srv.Handle(req); resp.Code != coap.CodeContent {
		t.Fatalf("request code = %v", resp.Code)
	}

	img := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
	img.SetPath(coap.PathImage)
	img.AddOption(coap.OptUriQuery, []byte("d="+hex32(tok.DeviceID)))
	img.AddOption(coap.OptUriQuery, []byte("n="+hex32(tok.Nonce)))
	img.AddOption(coap.OptBlock2, coap.Block{Num: 0, SZX: 5}.Marshal())
	resp := srv.Handle(img)
	if resp.Code != coap.CodeContent {
		t.Fatalf("image code = %v", resp.Code)
	}
	if len(resp.Payload) != 512 {
		t.Fatalf("payload = %d bytes, want 512", len(resp.Payload))
	}
	b.Device.Agent.Abort()
}

func TestPullClientMultiSourceFromOrigin(t *testing.T) {
	b := newPullBed(t, true)
	srv := coap.NewPullServer(b.Update)
	client := b.PullClient()
	client.Ex = &coap.LinkExchanger{Link: b.Link, Handler: srv.Handle}
	client.Sources = []coap.BlockSource{{Name: "origin", Ex: &coap.Loopback{Handler: srv.Handle}}}

	staged, err := client.CheckAndUpdate()
	if err != nil {
		t.Fatalf("CheckAndUpdate: %v", err)
	}
	if !staged {
		t.Fatal("no update staged over the block path")
	}
	if !b.Device.ReadyToReboot() {
		t.Fatal("device not ready to reboot")
	}
}

// timeoutExchanger is a source whose transport never answers.
type timeoutExchanger struct{}

func (timeoutExchanger) Exchange(*coap.Message) (*coap.Message, error) {
	return nil, coap.ErrTimeout
}

func TestPullClientFailsOverFromDeadSource(t *testing.T) {
	b := newPullBed(t, true)
	srv := coap.NewPullServer(b.Update)
	log := events.NewLog(nil, 0)
	client := b.PullClient()
	client.Ex = &coap.LinkExchanger{Link: b.Link, Handler: srv.Handle}
	client.Events = log
	client.Sources = []coap.BlockSource{
		{Name: "peer", Ex: timeoutExchanger{}},
		{Name: "origin", Ex: &coap.Loopback{Handler: srv.Handle}},
	}

	staged, err := client.CheckAndUpdate()
	if err != nil {
		t.Fatalf("CheckAndUpdate: %v", err)
	}
	if !staged {
		t.Fatal("no update staged after failover")
	}
	if n := log.Count(events.KindSourceFailover); n != 1 {
		t.Fatalf("%d source-failover events, want 1 (peer to origin)", n)
	}
	if ev, _ := lastEvent(log, events.KindSourceFailover); ev.Version != 2 {
		t.Fatalf("source-failover event carries v%d, want the manifest's v2", ev.Version)
	}
}

// TestPullClientFailsOverFromSilentSource: a source that answers no
// response at all, or 4.04, is one more failed leg — not a reason to
// abort the update, and not a forgotten session to re-present the token
// for: that rule belongs to the origin's session resource alone. The
// transfer moves on to the healthy origin.
func TestPullClientFailsOverFromSilentSource(t *testing.T) {
	for _, tc := range []struct {
		name   string
		answer func(*coap.Message) *coap.Message
	}{
		{"no response", func(*coap.Message) *coap.Message { return nil }},
		{"not found", func(*coap.Message) *coap.Message {
			return &coap.Message{Type: coap.Acknowledgement, Code: coap.CodeNotFound}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newPullBed(t, true)
			srv := coap.NewPullServer(b.Update)
			sessions := 0
			client := b.PullClient()
			client.Ex = &coap.LinkExchanger{Link: b.Link, Handler: func(req *coap.Message) *coap.Message {
				if req.PathIs(coap.PathRequest) {
					sessions++
				}
				return srv.Handle(req)
			}}
			client.Sources = []coap.BlockSource{
				{Name: "peer", Ex: &coap.Loopback{Handler: tc.answer}},
				{Name: "origin", Ex: &coap.Loopback{Handler: srv.Handle}},
			}

			staged, err := client.CheckAndUpdate()
			if err != nil || !staged {
				t.Fatalf("CheckAndUpdate past the peer: staged=%v err=%v", staged, err)
			}
			if sessions != 1 {
				t.Fatalf("%d session requests, want 1: a source's 4.04 is not a forgotten session", sessions)
			}
			if !b.Device.ReadyToReboot() {
				t.Fatal("device not ready to reboot")
			}
		})
	}
}

// TestPullClientPoisonedSourceFailsOver: a source that serves mutated
// blocks costs a wasted transfer — the digest check rejects it, the
// client excludes the source and completes from the origin.
func TestPullClientPoisonedSourceFailsOver(t *testing.T) {
	b := newPullBed(t, true)
	srv := coap.NewPullServer(b.Update)
	poisoned := func(req *coap.Message) *coap.Message {
		resp := srv.Handle(req)
		if req.Path() == coap.PathBlocks && len(resp.Payload) > 0 {
			resp.Payload[0] ^= 0x01
		}
		return resp
	}
	log := events.NewLog(nil, 0)
	client := b.PullClient()
	client.Ex = &coap.LinkExchanger{Link: b.Link, Handler: srv.Handle}
	client.Events = log
	client.Sources = []coap.BlockSource{
		{Name: "proxy", Ex: &coap.Loopback{Handler: poisoned}},
		{Name: "origin", Ex: &coap.Loopback{Handler: srv.Handle}},
	}

	staged, err := client.CheckAndUpdate()
	if err != nil {
		t.Fatalf("CheckAndUpdate after poisoned source: %v", err)
	}
	if !staged {
		t.Fatal("no update staged after excluding the poisoned source")
	}
	if log.Count(events.KindSourceFailover) == 0 {
		t.Fatal("no source-failover event emitted")
	}
}

func TestPullClientAllSourcesPoisonedFails(t *testing.T) {
	b := newPullBed(t, true)
	srv := coap.NewPullServer(b.Update)
	poisoned := func(req *coap.Message) *coap.Message {
		resp := srv.Handle(req)
		if req.Path() == coap.PathBlocks && len(resp.Payload) > 0 {
			resp.Payload[0] ^= 0x01
		}
		return resp
	}
	client := b.PullClient()
	client.Ex = &coap.LinkExchanger{Link: b.Link, Handler: srv.Handle}
	client.Sources = []coap.BlockSource{
		{Name: "proxy", Ex: &coap.Loopback{Handler: poisoned}},
		{Name: "origin", Ex: &coap.Loopback{Handler: poisoned}},
	}

	staged, err := client.CheckAndUpdate()
	if staged || err == nil {
		t.Fatalf("poisoned everything: staged=%v err=%v, want failure", staged, err)
	}
	var se *coap.SourceError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v, want *SourceError", err)
	}
	if b.Device.ReadyToReboot() {
		t.Fatal("device staged a poisoned update")
	}
}

// TestPullClientPayloadSink verifies the peer-assist hook: a completed
// multi-source transfer hands the exact payload bytes to the sink, and
// those bytes carry the name the origin advertised (so re-serving them
// under that name is sound).
func TestPullClientPayloadSink(t *testing.T) {
	b := newPullBed(t, true)
	srv := coap.NewPullServer(b.Update)
	var sunk []byte
	client := b.PullClient()
	client.Ex = &coap.LinkExchanger{Link: b.Link, Handler: srv.Handle}
	client.Sources = []coap.BlockSource{{Name: "origin", Ex: &coap.Loopback{Handler: srv.Handle}}}
	client.PayloadSink = func(p []byte) { sunk = append([]byte(nil), p...) }

	staged, err := client.CheckAndUpdate()
	if err != nil || !staged {
		t.Fatalf("CheckAndUpdate: staged=%v err=%v", staged, err)
	}
	if len(sunk) == 0 {
		t.Fatal("payload sink never called")
	}
	// The sunk bytes must be servable under their content name from the
	// origin's own registry — i.e. they are exactly the wire payload.
	if _, ok := b.Update.Blocks().Payload(dist.NameOf(sunk)); !ok {
		t.Fatal("sunk payload does not match any registered block payload")
	}
}

// TestOriginEgressCounter pins the egress accounting the cache-tier
// benchmarks rely on: every response payload byte the origin serves is
// charged, so a transfer of N payload bytes moves the counter by at
// least N.
func TestOriginEgressCounter(t *testing.T) {
	b := newPullBed(t, true)
	egress := coap.OriginEgressCounter(b.Update.Telemetry())
	before := egress.Value()
	staged, err := b.PullClient().CheckAndUpdate()
	if err != nil || !staged {
		t.Fatalf("CheckAndUpdate: staged=%v err=%v", staged, err)
	}
	if egress.Value() <= before {
		t.Fatalf("origin egress did not advance: %d -> %d", before, egress.Value())
	}
}

// countingExchanger counts the exchanges a pull client makes over it.
type countingExchanger struct {
	inner coap.Exchanger
	n     *int
}

func (e countingExchanger) Exchange(req *coap.Message) (*coap.Message, error) {
	*e.n++
	return e.inner.Exchange(req)
}

// FuzzPullHostileSource runs the pull client's block loop against a
// hostile proxy leg ahead of an honest origin. Each 4-byte record of
// the input rewrites one of the proxy's block replies: its code (0
// keeps 2.05), its Block2 option (0 keeps it, 1 drops it, anything else
// is the option's one-byte value), its payload length (0 keeps it, n
// makes it n-1 bytes) and one flipped byte (0 flips none). Once the
// input runs out the proxy answers honestly. Whatever it does,
// CheckAndUpdate must return within a bounded number of exchanges, and
// the device must then boot the published v2 or still run v1,
// unchanged.
func FuzzPullHostileSource(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5})                // one flipped byte in block 0
	f.Add([]byte{0x84, 0, 0, 0})             // 4.04 for block 0
	f.Add([]byte{0, 1, 0, 0})                // no Block2
	f.Add([]byte{0, 0x02, 0, 0})             // More=0 on block 0
	f.Add([]byte{0, 0, 2, 0, 0, 0, 201, 0})  // a 1-byte block, then a 200-byte one
	f.Add([]byte{0, 0, 1, 0})                // an empty block
	f.Add([]byte{0, 0x0F, 0, 0, 0, 0, 0, 9}) // reserved SZX, then a flip
	const size = 2 * 1024
	v1 := testbed.MakeFirmware("hostile-v1", size)
	v2 := testbed.MakeFirmware("hostile-v2", size)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := testbed.New(testbed.Options{Approach: platform.Pull}, v1)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.PublishVersion(2, v2); err != nil {
			t.Fatal(err)
		}
		srv := coap.NewPullServer(b.Update)
		records := len(data) / 4
		hostile := func(req *coap.Message) *coap.Message {
			resp := srv.Handle(req)
			if !req.PathIs(coap.PathBlocks) || len(data) < 4 {
				return resp
			}
			rec := data[:4]
			data = data[4:]
			out := &coap.Message{Type: resp.Type, Code: resp.Code, Payload: resp.Payload}
			if rec[0] != 0 {
				out.Code = coap.Code(rec[0])
			}
			for _, o := range resp.Options {
				switch {
				case o.Number != coap.OptBlock2 || rec[1] == 0:
					out.AddOption(o.Number, o.Value)
				case rec[1] > 1:
					out.AddOption(o.Number, []byte{rec[1]})
				}
			}
			if rec[2] != 0 {
				out.Payload = make([]byte, rec[2]-1)
				copy(out.Payload, resp.Payload)
			}
			if rec[3] != 0 && len(out.Payload) > 0 {
				out.Payload[int(rec[3])%len(out.Payload)] ^= 0xFF
			}
			return out
		}
		exchanges := 0
		client := b.PullClient()
		client.Ex = countingExchanger{&coap.LinkExchanger{Link: b.Link, Handler: srv.Handle}, &exchanges}
		client.Sources = []coap.BlockSource{
			{Name: "proxy", Ex: countingExchanger{&coap.Loopback{Handler: hostile}, &exchanges}},
			{Name: "origin", Ex: countingExchanger{&coap.Loopback{Handler: srv.Handle}, &exchanges}},
		}

		staged, err := client.CheckAndUpdate()
		// A poll, then at most one cycle per leg: a session request, a
		// name lookup and every block once per leg (plus the one a
		// failover re-fetches), and one more per hostile reply.
		blocks := size / coap.DefaultBlockSize
		if bound := 1 + 2*(2+2*(blocks+1)) + records; exchanges > bound {
			t.Fatalf("%d exchanges, want at most %d", exchanges, bound)
		}
		if staged {
			if err != nil {
				t.Fatalf("staged with error %v", err)
			}
			res, err := b.Device.ApplyStagedUpdate()
			if err != nil || res.Version != 2 || !bytes.Equal(runningFirmware(t, b), v2) {
				t.Fatalf("staged update booted v%d, %v; want the published v2", res.Version, err)
			}
			return
		}
		if err == nil {
			t.Fatal("neither staged nor failed")
		}
		if _, err := b.Device.Reboot(); err != nil {
			t.Fatalf("reboot after a refused update: %v", err)
		}
		if v := b.Device.RunningVersion(); v != 1 || !bytes.Equal(runningFirmware(t, b), v1) {
			t.Fatalf("after a refused update the device runs v%d, want v1 unchanged", v)
		}
	})
}

func runningFirmware(t *testing.T, b *testbed.Bed) []byte {
	t.Helper()
	r, err := b.Device.Running().FirmwareReader()
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// lastEvent returns the most recent retained event of kind, or ok=false.
func lastEvent(l *events.Log, kind events.Kind) (ev events.Event, ok bool) {
	for _, e := range l.Events() {
		if e.Kind == kind {
			ev, ok = e, true
		}
	}
	return ev, ok
}
