package coap_test

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"upkit/internal/coap"
	"upkit/internal/manifest"
	"upkit/internal/platform"
	"upkit/internal/telemetry"
	"upkit/internal/testbed"
)

const fwSize = 24 * 1024

func newPullBed(t *testing.T, publishV2 bool) *testbed.Bed {
	t.Helper()
	b, err := testbed.New(testbed.Options{Approach: platform.Pull},
		testbed.MakeFirmware("coap-v1", fwSize))
	if err != nil {
		t.Fatal(err)
	}
	if publishV2 {
		if err := b.PublishVersion(2, testbed.MakeFirmware("coap-v2", fwSize)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestPullClientUpdates(t *testing.T) {
	b := newPullBed(t, true)
	staged, err := b.PullClient().CheckAndUpdate()
	if err != nil {
		t.Fatalf("CheckAndUpdate: %v", err)
	}
	if !staged {
		t.Fatal("no update staged")
	}
	if !b.Device.ReadyToReboot() {
		t.Fatal("device not ready to reboot")
	}
}

func TestPullClientPoll(t *testing.T) {
	b := newPullBed(t, true)
	v, err := b.PullClient().Poll()
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("Poll = %d, want 2", v)
	}
}

func TestPullNoUpdate(t *testing.T) {
	b := newPullBed(t, false) // only v1 published; device runs v1
	_, err := b.PullClient().CheckAndUpdate()
	if !errors.Is(err, coap.ErrNoUpdate) {
		t.Fatalf("error = %v, want ErrNoUpdate", err)
	}
}

func TestPullServerResources(t *testing.T) {
	b := newPullBed(t, true)
	srv := coap.NewPullServer(b.Update)

	// Unknown path → 4.04.
	req := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
	req.SetPath("/nope")
	if resp := srv.Handle(req); resp.Code != coap.CodeNotFound {
		t.Fatalf("unknown path code = %v", resp.Code)
	}

	// Version without app query → 4.00.
	req = &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
	req.SetPath(coap.PathVersion)
	if resp := srv.Handle(req); resp.Code != coap.CodeBadReq {
		t.Fatalf("missing query code = %v", resp.Code)
	}

	// Version for unknown app → 4.04.
	req = &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
	req.SetPath(coap.PathVersion)
	req.AddOption(coap.OptUriQuery, []byte("app=ffff"))
	if resp := srv.Handle(req); resp.Code != coap.CodeNotFound {
		t.Fatalf("unknown app code = %v", resp.Code)
	}

	// Request with a malformed token → 4.00.
	req = &coap.Message{Type: coap.Confirmable, Code: coap.CodePOST, Payload: []byte{1, 2, 3}}
	req.SetPath(coap.PathRequest)
	req.AddOption(coap.OptUriQuery, []byte("app=2a"))
	if resp := srv.Handle(req); resp.Code != coap.CodeBadReq {
		t.Fatalf("bad token code = %v", resp.Code)
	}

	// Image without a session → 4.04.
	req = &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
	req.SetPath(coap.PathImage)
	req.AddOption(coap.OptUriQuery, []byte("d=1"))
	req.AddOption(coap.OptUriQuery, []byte("n=2"))
	if resp := srv.Handle(req); resp.Code != coap.CodeNotFound {
		t.Fatalf("missing session code = %v", resp.Code)
	}
}

// TestImageBlocksIsolatedFromStoredPayload pins the per-session
// scratch-buffer contract: a hostile hop mutating a served block must
// not reach the stored session payload (a later re-request of the same
// block returns the pristine bytes), even though consecutive blocks
// reuse one buffer.
func TestImageBlocksIsolatedFromStoredPayload(t *testing.T) {
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

	getBlock := func(num uint32) []byte {
		img := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
		img.SetPath(coap.PathImage)
		img.AddOption(coap.OptUriQuery, []byte("d="+hex32(tok.DeviceID)))
		img.AddOption(coap.OptUriQuery, []byte("n="+hex32(tok.Nonce)))
		img.AddOption(coap.OptBlock2, coap.Block{Num: num, SZX: 2}.Marshal())
		resp := srv.Handle(img)
		if resp.Code != coap.CodeContent {
			t.Fatalf("block %d code = %v", num, resp.Code)
		}
		return resp.Payload
	}

	first := append([]byte(nil), getBlock(0)...)
	// A hostile hop scribbles over the served block.
	for i := range getBlock(0) {
		getBlock(0)[i] = 0
	}
	mutated := getBlock(1)
	for i := range mutated {
		mutated[i] ^= 0xFF
	}
	// The stored payload must be untouched: re-serving block 0 yields
	// the original bytes.
	if got := getBlock(0); !equalBytes(got, first) {
		t.Fatal("stored payload reachable through served block")
	}
	b.Device.Agent.Abort()
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPullAgentRejectionPropagates(t *testing.T) {
	b := newPullBed(t, true)
	client := b.PullClient()
	// Burn the agent's first nonce by requesting a token out of band,
	// then abort: the next client run re-requests and must still work.
	if _, err := b.Device.Agent.RequestDeviceToken(); err != nil {
		t.Fatal(err)
	}
	b.Device.Agent.Abort()
	staged, err := client.CheckAndUpdate()
	if err != nil {
		t.Fatalf("CheckAndUpdate after abort: %v", err)
	}
	if !staged {
		t.Fatal("update not staged")
	}
}

func TestPullBlockwiseFirstBlockCarriesSize(t *testing.T) {
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
	resp := srv.Handle(req)
	if resp.Code != coap.CodeContent {
		t.Fatalf("request code = %v", resp.Code)
	}

	// First image block advertises the total size via Size2.
	img := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
	img.SetPath(coap.PathImage)
	img.AddOption(coap.OptUriQuery, []byte("d="+hex32(tok.DeviceID)))
	img.AddOption(coap.OptUriQuery, []byte("n="+hex32(tok.Nonce)))
	img.AddOption(coap.OptBlock2, coap.Block{Num: 0, SZX: 2}.Marshal())
	resp = srv.Handle(img)
	if resp.Code != coap.CodeContent {
		t.Fatalf("image code = %v", resp.Code)
	}
	raw, ok := resp.Option(coap.OptSize2)
	if !ok {
		t.Fatal("first block missing Size2")
	}
	if binary.BigEndian.Uint32(raw) != uint32(fwSize) {
		t.Fatalf("Size2 = %d, want %d", binary.BigEndian.Uint32(raw), fwSize)
	}
	if len(resp.Payload) != 64 {
		t.Fatalf("block payload = %d bytes, want 64", len(resp.Payload))
	}
	b.Device.Agent.Abort()
}

func hex32(v uint32) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, 8)
	started := false
	for shift := 28; shift >= 0; shift -= 4 {
		d := (v >> uint(shift)) & 0xF
		if d != 0 || started || shift == 0 {
			out = append(out, digits[d])
			started = true
		}
	}
	return string(out)
}

func TestUDPExchange(t *testing.T) {
	b := newPullBed(t, true)
	srv := coap.NewPullServer(b.Update)
	udp, err := coap.ListenUDP("127.0.0.1:0", srv.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = udp.Serve()
	}()

	ex, err := coap.DialUDP(udp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	client := &coap.PullClient{Ex: ex, Agent: b.Device.Agent, AppID: 0x2A}
	v, err := client.Poll()
	if err != nil {
		t.Fatalf("Poll over UDP: %v", err)
	}
	if v != 2 {
		t.Fatalf("Poll = %d, want 2", v)
	}
	// A full pull update over the real socket.
	staged, err := client.CheckAndUpdate()
	if err != nil {
		t.Fatalf("CheckAndUpdate over UDP: %v", err)
	}
	if !staged {
		t.Fatal("update not staged over UDP")
	}
	udp.Close()
	wg.Wait()
}

// A compromised border router on the pull path can reorder, replay, or
// rewrite CoAP responses — and UpKit must shrug it all off, because
// nothing the gateway can produce carries valid signatures for this
// request (§III: freshness independent of the network).
func TestCompromisedBorderRouter(t *testing.T) {
	b := newPullBed(t, true)
	srv := coap.NewPullServer(b.Update)

	t.Run("tampers with image blocks", func(t *testing.T) {
		evil := func(req *coap.Message) *coap.Message {
			resp := srv.Handle(req)
			if req.Path() == coap.PathImage && len(resp.Payload) > 0 {
				resp.Payload[0] ^= 0x01
			}
			return resp
		}
		client := &coap.PullClient{
			Ex:    &coap.LinkExchanger{Link: b.Link, Handler: evil},
			Agent: b.Device.Agent,
			AppID: 0x2A,
		}
		if _, err := client.CheckAndUpdate(); err == nil {
			t.Fatal("tampered blocks accepted")
		}
		if b.Device.ReadyToReboot() {
			t.Fatal("device staged a tampered update")
		}
	})

	t.Run("serves a stale manifest", func(t *testing.T) {
		// The router answers the request with a manifest captured for an
		// earlier request (different nonce).
		var captured *coap.Message
		evil := func(req *coap.Message) *coap.Message {
			resp := srv.Handle(req)
			if req.Path() == coap.PathRequest {
				if captured == nil {
					captured = resp
				} else {
					return captured // replay the first manifest
				}
			}
			return resp
		}
		client := &coap.PullClient{
			Ex:    &coap.LinkExchanger{Link: b.Link, Handler: evil},
			Agent: b.Device.Agent,
			AppID: 0x2A,
		}
		// First run primes the capture and succeeds up to staging; abort
		// to free the agent for the replayed round.
		if _, err := client.CheckAndUpdate(); err != nil {
			t.Fatalf("priming run: %v", err)
		}
		b.Device.Agent.Abort()
		// Second run gets the replayed manifest: stale nonce → rejected.
		if _, err := client.CheckAndUpdate(); err == nil {
			t.Fatal("replayed manifest accepted")
		}
		if b.Device.ReadyToReboot() {
			t.Fatal("device staged a replayed update")
		}
	})
}

// TestEvictedSessionMidTransferCompletes: the origin forgets a
// plaintext device's session halfway through its image transfer —
// pushed out of the bounded session table by a wave of other devices —
// and the device still completes: the next block answers 4.04, the
// client re-presents its token once, the origin prepares the same
// payload bytes again, and the image verifies against the manifest the
// device accepted at the start.
func TestEvictedSessionMidTransferCompletes(t *testing.T) {
	b := newPullBed(t, true)
	origin := b.PullHandler()
	imageBlocks, requests, notFound := 0, 0, 0
	flood := func() {
		// 32 MiB of other devices' sessions, 24 KiB each.
		for d := uint32(1); d <= 1500; d++ {
			tok, _ := manifest.DeviceToken{DeviceID: d, Nonce: d}.MarshalBinary()
			req := &coap.Message{Type: coap.Confirmable, Code: coap.CodePOST, Payload: tok}
			req.SetPath(coap.PathRequest)
			req.AddOption(coap.OptUriQuery, []byte("app=2a"))
			if resp := origin(req); resp.Code != coap.CodeContent {
				t.Fatalf("flood device %d refused: %s", d, resp.Code)
			}
		}
	}
	pc := b.PullClient()
	pc.Ex.(*coap.LinkExchanger).Handler = func(req *coap.Message) *coap.Message {
		switch {
		case req.PathIs(coap.PathRequest):
			requests++
		case req.PathIs(coap.PathImage):
			if imageBlocks++; imageBlocks == 100 {
				flood()
			}
		}
		resp := origin(req)
		if req.PathIs(coap.PathImage) && resp.Code == coap.CodeNotFound {
			notFound++
		}
		return resp
	}
	staged, err := pc.CheckAndUpdate()
	if err != nil || !staged {
		t.Fatalf("CheckAndUpdate = %v, %v after a mid-transfer eviction", staged, err)
	}
	if notFound != 1 || requests != 2 {
		t.Fatalf("saw %d 4.04 answers and %d session requests, want 1 and 2 (one re-establish)", notFound, requests)
	}
	res, err := b.Device.ApplyStagedUpdate()
	if err != nil || res.Version != 2 {
		t.Fatalf("boot after the transfer: v%d, %v", res.Version, err)
	}
}

// TestLinkExchangerCountsOnItsRegistry pins what the cached counter
// handles must keep doing: one exchange counted per Exchange and one
// retransmission per lost attempt, on the registry the exchanger was
// given — also when, as the benchmark's tracer does, the Handler is
// replaced after the exchanger was built.
func TestLinkExchangerCountsOnItsRegistry(t *testing.T) {
	b := newPullBed(t, true)
	reg := telemetry.NewRegistry()
	ex := &coap.LinkExchanger{Link: b.Link, Telemetry: reg}
	ex.Handler = b.PullHandler()
	exchanges := reg.Counter("upkit_coap_exchanges_total", "")
	retransmissions := reg.Counter("upkit_coap_retransmissions_total", "")
	poll := func() error {
		req := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET}
		req.SetPath(coap.PathVersion)
		req.AddOption(coap.OptUriQuery, []byte("app=2a"))
		_, err := ex.Exchange(req)
		return err
	}
	for i := 0; i < 3; i++ {
		if err := poll(); err != nil {
			t.Fatal(err)
		}
	}
	if exchanges.Value() != 3 || retransmissions.Value() != 0 {
		t.Fatalf("lossless: %d exchanges, %d retransmissions, want 3 and 0", exchanges.Value(), retransmissions.Value())
	}
	b.Link.SetLoss(1.0, 7)
	if err := poll(); err == nil {
		t.Fatal("exchange over a dead link must fail")
	}
	if exchanges.Value() != 4 || retransmissions.Value() != 4 {
		t.Fatalf("dead link: %d exchanges, %d retransmissions, want 4 and 4 (MaxRetransmit)", exchanges.Value(), retransmissions.Value())
	}
}
