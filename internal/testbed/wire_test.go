package testbed

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"upkit/internal/coap"
	"upkit/internal/platform"
	"upkit/internal/proxy"
	"upkit/internal/telemetry"
)

// wireLog hashes every request a pull client puts on any of its
// exchangers, in order: the path, each Uri-Query value and the Block2
// value. Two clients that agree on the hash sent the same requests.
type wireLog struct {
	h         hash.Hash
	exchanges int
	// firstBlock maps a leg to the Block2 number of its first request.
	firstBlock map[string]uint32
}

// wiredExchanger records each request into log before passing it on.
// Once dead returns true the exchanger times out without sending.
type wiredExchanger struct {
	log   *wireLog
	leg   string
	inner coap.Exchanger
	dead  func() bool
}

func (e *wiredExchanger) Exchange(req *coap.Message) (*coap.Message, error) {
	e.log.exchanges++
	fmt.Fprintf(e.log.h, "%s", req.Path())
	for _, o := range req.Options {
		if o.Number == coap.OptUriQuery || o.Number == coap.OptBlock2 {
			fmt.Fprintf(e.log.h, " %d:%x", o.Number, o.Value)
		}
		if o.Number == coap.OptBlock2 {
			if _, seen := e.log.firstBlock[e.leg]; !seen {
				blk, _ := coap.ParseBlock(o.Value)
				e.log.firstBlock[e.leg] = blk.Num
			}
		}
	}
	fmt.Fprintln(e.log.h)
	if e.dead != nil && e.dead() {
		return nil, coap.ErrTimeout
	}
	return e.inner.Exchange(req)
}

// runPinnedTransfer updates b to v2 with every exchanger of its pull
// client wired into one log; dead, when set, decides per leg name when
// that leg stops answering. It returns the pin and the log behind it.
func runPinnedTransfer(t *testing.T, b *Bed, v2 []byte, dead map[string]func() bool) (string, *wireLog) {
	t.Helper()
	log := &wireLog{h: sha256.New(), firstBlock: map[string]uint32{}}
	linkBytes := b.Telemetry().Counter("upkit_link_bytes_total", "", telemetry.L("link", b.Link.Name))
	before := linkBytes.Value()
	c := b.PullClient()
	c.Ex = &wiredExchanger{log: log, leg: "control", inner: c.Ex}
	for i := range c.Sources {
		name := c.Sources[i].Name
		c.Sources[i].Ex = &wiredExchanger{log: log, leg: name, inner: c.Sources[i].Ex, dead: dead[name]}
	}
	staged, err := c.CheckAndUpdate()
	if err != nil || !staged {
		t.Fatalf("CheckAndUpdate: staged=%v err=%v", staged, err)
	}
	pin := fmt.Sprintf("requests=%x exchanges=%d link=%d clock=%d",
		log.h.Sum(nil), log.exchanges, linkBytes.Value()-before, int64(b.Device.Clock.Now()))
	res, err := b.Device.ApplyStagedUpdate()
	if err != nil || res.Version != 2 {
		t.Fatalf("apply: v%d, %v", res.Version, err)
	}
	if !bytes.Equal(runningFirmware(t, b), v2) {
		t.Fatal("running firmware is not the published v2")
	}
	return pin, log
}

// TestPullTransferWirePinned pins what the pull client sends, and what
// that costs the device, on the three topologies its transfer loop
// serves: the origin alone, a caching proxy in front of the origin, and
// a peer that serves 16-byte blocks and stops answering mid-transfer,
// ahead of the origin. The requests are hashed in order (path, Uri-Query
// values, Block2 value), next to the exchange count, the radio link's
// payload bytes and the device clock. A change to the client's transfer
// loop must leave all of them alone; one that moves them changes the
// simulated numbers and has to say so.
func TestPullTransferWirePinned(t *testing.T) {
	const size = 16 * 1024
	newWireBed := func(seed string) (*Bed, []byte) {
		b, err := New(Options{Approach: platform.Pull, Seed: seed}, MakeFirmware(seed+"-v1", size))
		if err != nil {
			t.Fatal(err)
		}
		v2 := MakeFirmware(seed+"-v2", size)
		if err := b.PublishVersion(2, v2); err != nil {
			t.Fatal(err)
		}
		return b, v2
	}

	t.Run("origin", func(t *testing.T) {
		const want = "requests=ae3135fc2be2cf80c4289a2902ee7b3f585a2258711eb6bcdfb89dd7b504725d exchanges=258 link=31507 clock=14891730000"
		b, v2 := newWireBed("wire-origin")
		if pin, _ := runPinnedTransfer(t, b, v2, nil); pin != want {
			t.Errorf("wire moved:\n got  %s\n want %s", pin, want)
		}
	})

	t.Run("proxy", func(t *testing.T) {
		const want = "requests=b7ad1b6066c949d7e7353501363186fca419227230a381606787d4686baea158 exchanges=259 link=43620 clock=16699730000"
		b, v2 := newWireBed("wire-proxy")
		cache := proxy.NewCache(&coap.Loopback{Handler: b.PullHandler()}, proxy.CacheOptions{})
		b.Distribute(cache.Handle, BlockRoute{Name: "proxy", Handler: cache.Handle})
		if pin, _ := runPinnedTransfer(t, b, v2, nil); pin != want {
			t.Errorf("wire moved:\n got  %s\n want %s", pin, want)
		}
		if st := cache.Stats(); st.Fills == 0 {
			t.Fatalf("cache stats = %+v: the transfer must have gone through the proxy", st)
		}
	})

	t.Run("dying-peer", func(t *testing.T) {
		const want = "requests=71120872f0d56436dd3ec0d9be69241e0b46f906110b7092b46c1b7bb8039827 exchanges=290 link=46562 clock=23280730000"
		// The peer answers 37 of its 16-byte blocks (592 bytes), then
		// goes silent: the origin's first 64-byte block is block 9, of
		// which the agent already holds the first 16 bytes.
		const answered = 37
		b, v2 := newWireBed("wire-peer")
		b.Distribute(nil, BlockRoute{Name: "peer", Handler: b.PullHandler(), BlockSize: 16})
		sent := 0
		pin, log := runPinnedTransfer(t, b, v2, map[string]func() bool{
			"peer": func() bool { sent++; return sent > answered },
		})
		if pin != want {
			t.Errorf("wire moved:\n got  %s\n want %s", pin, want)
		}
		if got := log.firstBlock["origin"]; got != answered*16/64 {
			t.Fatalf("origin leg started at block %d, want %d", got, answered*16/64)
		}
	})
}
