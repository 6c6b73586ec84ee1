package coap

import (
	"bytes"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"upkit/internal/manifest"
	"upkit/internal/security"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
)

// newSessionServer returns a pull server over an update server holding
// one published image of imageBytes for app 0x2a.
func newSessionServer(t *testing.T, imageBytes int) *PullServer {
	t.Helper()
	suite, err := security.SuiteByName("tinycrypt", nil)
	if err != nil {
		t.Fatal(err)
	}
	vendor := vendorserver.New(suite, security.MustGenerateKey("sessions-vendor"))
	update := updateserver.New(suite, security.MustGenerateKey("sessions-server"))
	t.Cleanup(func() { update.Close() })
	fw := make([]byte, imageBytes)
	rand.New(rand.NewSource(1)).Read(fw)
	img, err := vendor.BuildImage(vendorserver.Release{AppID: 0x2A, Version: 1, LinkOffset: 0xFFFFFFFF, Firmware: fw})
	if err != nil {
		t.Fatal(err)
	}
	if err := update.Publish(img); err != nil {
		t.Fatal(err)
	}
	return NewPullServer(update)
}

// postToken establishes (or replays) the session of device with nonce 7.
func postToken(t *testing.T, srv *PullServer, device uint32) *Message {
	t.Helper()
	tok, err := manifest.DeviceToken{DeviceID: device, Nonce: 7}.MarshalBinary()
	if err != nil {
		t.Error(err)
	}
	req := &Message{Type: Confirmable, Code: CodePOST, Payload: tok}
	req.SetPath(PathRequest)
	req.AddOption(OptUriQuery, []byte("app=2a"))
	resp := srv.Handle(req)
	if resp.Code != CodeContent {
		t.Errorf("device %d: session refused: %s", device, resp.Code)
	}
	return resp
}

// firstImageBlock asks for block 0 of device's session payload.
func firstImageBlock(srv *PullServer, device uint32) Code {
	req := &Message{Type: Confirmable, Code: CodeGET}
	req.SetPath(PathImage)
	req.AddOption(OptUriQuery, []byte("d="+strconv.FormatUint(uint64(device), 16)))
	req.AddOption(OptUriQuery, []byte("n=7"))
	return srv.Handle(req).Code
}

// TestSessionTableIsBounded drives the pull server with far more
// sessions than maxSessionBytes holds: the retained bytes stay under
// the bound, the table stops growing, the oldest sessions answer 4.04,
// and a session still inside the bound replays byte-identical manifest
// bytes on a repeated POST (the resume guarantee).
func TestSessionTableIsBounded(t *testing.T) {
	const imageBytes = 512 << 10
	srv := newSessionServer(t, imageBytes)
	post := func(device uint32) *Message { return postToken(t, srv, device) }
	firstBlock := func(device uint32) Code { return firstImageBlock(srv, device) }

	fits := maxSessionBytes / imageBytes
	sessions := 3 * fits
	var newest []byte
	for d := 1; d <= sessions; d++ {
		newest = bytes.Clone(post(uint32(d)).Payload)
		st := srv.sessions.Stats()
		if st.Bytes > maxSessionBytes || st.Entries > fits {
			t.Fatalf("after %d sessions: %d bytes retained (bound %d) in %d sessions (at most %d fit)",
				d, st.Bytes, maxSessionBytes, st.Entries, fits)
		}
	}
	if got := firstBlock(1); got != CodeNotFound {
		t.Fatalf("evicted session answered %s, want 4.04", got)
	}
	if got := firstBlock(uint32(sessions)); got != CodeContent {
		t.Fatalf("newest session answered %s, want 2.05", got)
	}

	// Using a session keeps it: touch the oldest survivor, push one
	// more session in, and it is the second oldest that goes.
	oldest := uint32(sessions - srv.sessions.Stats().Entries + 1)
	if got := firstBlock(oldest); got != CodeContent {
		t.Fatalf("oldest surviving session %d answered %s", oldest, got)
	}
	post(uint32(sessions + 1))
	if firstBlock(oldest) != CodeContent || firstBlock(oldest+1) != CodeNotFound {
		t.Fatal("eviction did not take the least recently used session")
	}

	// Inside the bound a repeated POST replays the stored manifest.
	if again := post(uint32(sessions)).Payload; !bytes.Equal(newest, again) {
		t.Fatal("repeated POST inside the bound did not replay the identical manifest bytes")
	}
}

// TestSessionTableConcurrent: devices establishing sessions and pulling
// blocks from several goroutines at once leave the table consistent
// and inside its bound.
func TestSessionTableConcurrent(t *testing.T) {
	const imageBytes = 1 << 20
	srv := newSessionServer(t, imageBytes)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				device := uint32(1 + w*1000 + i)
				postToken(t, srv, device)
				if code := firstImageBlock(srv, device); code != CodeContent && code != CodeNotFound {
					t.Errorf("device %d: block answered %s", device, code)
				}
				postToken(t, srv, uint32(1+w*1000)) // replay or re-prepare an old one
			}
		}()
	}
	wg.Wait()
	sum, n := 0, 0
	srv.sessions.Walk(func(_ sessionKey, sess *session) {
		sum += sess.size()
		n++
	})
	if st := srv.sessions.Stats(); st.Bytes != sum || st.Bytes > maxSessionBytes || st.Entries != n {
		t.Fatalf("retained %d, sessions sum to %d (bound %d); %d entries, %d walked",
			st.Bytes, sum, maxSessionBytes, st.Entries, n)
	}
}
