package testbed

import (
	"bytes"
	"errors"
	"testing"

	"upkit/internal/agent"
	"upkit/internal/coap"
	"upkit/internal/events"
	"upkit/internal/flash"
	"upkit/internal/platform"
	"upkit/internal/proxy"
)

// Reception crash-safety tests: a device power-cycled (or starved of
// connectivity) in the middle of a firmware download must resume from
// the journaled offset — re-downloading only the remaining blocks —
// and always end up running a byte-perfect image.

// imageTap wraps an Exchanger to observe (and optionally sabotage) the
// Block2 image transfer.
type imageTap struct {
	inner coap.Exchanger
	// fail, when set, may reject a request before it reaches the inner
	// exchanger (to model a dead uplink).
	fail func(req *coap.Message) error

	blocks     map[uint32]int // successful fetches per block number
	bytes      int            // payload bytes successfully fetched
	firstBlock int            // first image block requested, -1 until seen
}

func newImageTap(inner coap.Exchanger) *imageTap {
	return &imageTap{inner: inner, blocks: map[uint32]int{}, firstBlock: -1}
}

func (tap *imageTap) Exchange(req *coap.Message) (*coap.Message, error) {
	num, isImage := uint32(0), req.Code == coap.CodeGET && req.Path() == coap.PathImage
	if isImage {
		if raw, ok := req.Option(coap.OptBlock2); ok {
			if b, err := coap.ParseBlock(raw); err == nil {
				num = b.Num
			}
		}
		if tap.firstBlock == -1 {
			tap.firstBlock = int(num)
		}
	}
	if tap.fail != nil {
		if err := tap.fail(req); err != nil {
			return nil, err
		}
	}
	resp, err := tap.inner.Exchange(req)
	if err == nil && isImage && resp.Code == coap.CodeContent {
		tap.blocks[num]++
		tap.bytes += len(resp.Payload)
	}
	return resp, err
}

const recFwSize = 16 * 1024

func recOptions(base Options) Options {
	base.Approach = platform.Pull
	base.SlotBytes = 32 * 1024
	// Checkpoint at every flushed sector so a mid-download power loss
	// loses at most one buffer of progress.
	base.CheckpointEvery = 4096
	return base
}

func recBed(t *testing.T, opts Options, v1, v2 []byte) *Bed {
	t.Helper()
	b, err := New(recOptions(opts), v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PublishVersion(2, v2); err != nil {
		t.Fatal(err)
	}
	return b
}

// tappedClient returns a pull client whose exchanges run through a tap.
func tappedClient(b *Bed) (*coap.PullClient, *imageTap) {
	c := b.PullClient()
	tap := newImageTap(c.Ex)
	c.Ex = tap
	return c, tap
}

// cleanDownload measures an uninterrupted download on a reference bed:
// internal-flash operations consumed and payload bytes transferred.
func cleanDownload(t *testing.T, opts Options, v1, v2 []byte) (ops, wireBytes int) {
	t.Helper()
	b := recBed(t, opts, v1, v2)
	before := b.Device.Internal.Stats()
	c, tap := tappedClient(b)
	staged, err := c.CheckAndUpdate()
	if err != nil || !staged {
		t.Fatalf("reference download: staged=%v err=%v", staged, err)
	}
	after := b.Device.Internal.Stats()
	return (after.SectorErases - before.SectorErases) +
		(after.PagePrograms - before.PagePrograms), tap.bytes
}

// resumeAfterPowerLoss interrupts a download after failAt flash
// operations, reboots, resumes, applies, and returns the tap of the
// resumed attempt.
func resumeAfterPowerLoss(t *testing.T, b *Bed, v2 []byte, failAt int) *imageTap {
	t.Helper()
	b.Device.Internal.FailAfter(failAt)
	if _, err := b.PullClient().CheckAndUpdate(); !errors.Is(err, flash.ErrPowerLoss) {
		t.Fatalf("interrupted download: error = %v, want ErrPowerLoss", err)
	}
	b.Device.Internal.ClearFault()

	// Power returns: the device must boot the old image, with the
	// half-received slot preserved for resumption.
	res, err := b.Device.Reboot()
	if err != nil {
		t.Fatalf("reboot after power loss: %v", err)
	}
	if res.Version != 1 {
		t.Fatalf("booted v%d after power loss, want v1", res.Version)
	}

	c, tap := tappedClient(b)
	staged, err := c.CheckAndUpdate()
	if err != nil || !staged {
		t.Fatalf("resumed download: staged=%v err=%v", staged, err)
	}
	if b.Device.Events.Count(events.KindReceptionResumed) == 0 {
		t.Fatal("no reception-resumed event emitted")
	}
	if _, err := b.Device.ApplyStagedUpdate(); err != nil {
		t.Fatalf("apply resumed update: %v", err)
	}
	if got := b.Device.RunningVersion(); got != 2 {
		t.Fatalf("running v%d after resume, want v2", got)
	}
	if !bytes.Equal(runningFirmware(t, b), v2) {
		t.Fatal("resumed firmware is not byte-identical to v2")
	}
	return tap
}

// TestPullResumeAfterPowerLoss is the headline scenario: power dies in
// the middle of a full-image download; after reboot the transfer
// continues at the journaled offset and moves strictly fewer bytes than
// a from-scratch download.
func TestPullResumeAfterPowerLoss(t *testing.T) {
	v1 := MakeFirmware("rx-v1", recFwSize)
	v2 := MakeFirmware("rx-v2", recFwSize)
	ops, fullBytes := cleanDownload(t, Options{Seed: "rx-ref"}, v1, v2)

	b := recBed(t, Options{Seed: "rx"}, v1, v2)
	tap := resumeAfterPowerLoss(t, b, v2, ops/2)
	if tap.firstBlock <= 0 {
		t.Fatalf("resumed transfer started at block %d, want > 0", tap.firstBlock)
	}
	if tap.bytes >= fullBytes {
		t.Fatalf("resumed transfer moved %d bytes, not fewer than the full %d", tap.bytes, fullBytes)
	}
}

func TestPullResumeEncrypted(t *testing.T) {
	v1 := MakeFirmware("rxe-v1", recFwSize)
	v2 := MakeFirmware("rxe-v2", recFwSize)
	ops, fullBytes := cleanDownload(t, Options{Seed: "rxe-ref", Encrypted: true}, v1, v2)

	b := recBed(t, Options{Seed: "rxe", Encrypted: true}, v1, v2)
	tap := resumeAfterPowerLoss(t, b, v2, ops/2)
	if tap.firstBlock <= 0 {
		t.Fatalf("resumed transfer started at block %d, want > 0", tap.firstBlock)
	}
	if tap.bytes >= fullBytes {
		t.Fatalf("resumed transfer moved %d bytes, not fewer than the full %d", tap.bytes, fullBytes)
	}
}

func TestPullResumeDifferential(t *testing.T) {
	v1 := MakeFirmware("rxd-v1", recFwSize)
	v2 := DeriveOSChange(v1)
	ops, _ := cleanDownload(t, Options{Seed: "rxd-ref", Differential: true}, v1, v2)

	// Differential wire payloads are compact, so the journaled wire
	// offset may still sit in block 0; the byte-perfect result and the
	// resume event are the assertions here.
	b := recBed(t, Options{Seed: "rxd", Differential: true}, v1, v2)
	resumeAfterPowerLoss(t, b, v2, ops/2)
}

// TestReceptionPowerLossSweep cuts power after every single flash
// operation of the download, one run per fault point. Whatever the
// interruption point, the device must boot a valid image and a retry
// (resumed or fresh) must reach a byte-perfect v2.
func TestReceptionPowerLossSweep(t *testing.T) {
	v1 := MakeFirmware("sweep-v1", recFwSize)
	v2 := MakeFirmware("sweep-v2", recFwSize)
	ops, _ := cleanDownload(t, Options{Seed: "sweep-ref"}, v1, v2)
	if ops < 20 {
		t.Fatalf("suspiciously few download flash operations: %d", ops)
	}
	for failAt := 0; failAt < ops; failAt++ {
		b := recBed(t, Options{Seed: "sweep"}, v1, v2)
		b.Device.Internal.FailAfter(failAt)
		staged, err := b.PullClient().CheckAndUpdate()
		b.Device.Internal.ClearFault()
		if err == nil {
			// The fault budget outlasted everything that matters: the
			// only remaining operations were the best-effort journal
			// invalidation after staging, whose failure is survivable —
			// the stale record is rejected at any later resume attempt.
			if !staged {
				t.Fatalf("failAt=%d: no error but nothing staged", failAt)
			}
		} else {
			if !errors.Is(err, flash.ErrPowerLoss) {
				t.Fatalf("failAt=%d: error = %v, want ErrPowerLoss", failAt, err)
			}
			res, rerr := b.Device.Reboot()
			if rerr != nil {
				t.Fatalf("failAt=%d: reboot: %v", failAt, rerr)
			}
			if res.Version != 1 {
				t.Fatalf("failAt=%d: booted v%d, want v1", failAt, res.Version)
			}
			retryStaged, retryErr := b.PullClient().CheckAndUpdate()
			if retryErr != nil || !retryStaged {
				t.Fatalf("failAt=%d: retry: staged=%v err=%v", failAt, retryStaged, retryErr)
			}
		}
		if _, err := b.Device.ApplyStagedUpdate(); err != nil {
			t.Fatalf("failAt=%d: apply: %v", failAt, err)
		}
		if !bytes.Equal(runningFirmware(t, b), v2) {
			t.Fatalf("failAt=%d: firmware mismatch", failAt)
		}
	}
}

// TestPullTransientTimeoutRetriedInline: a single lost exchange must be
// absorbed by the client's retry-with-backoff without restarting the
// transfer — every block is fetched exactly once.
func TestPullTransientTimeoutRetriedInline(t *testing.T) {
	v1 := MakeFirmware("tt-v1", recFwSize)
	v2 := MakeFirmware("tt-v2", recFwSize)
	b := recBed(t, Options{Seed: "tt"}, v1, v2)

	c, tap := tappedClient(b)
	failed := false
	tap.fail = func(req *coap.Message) error {
		if req.Path() != coap.PathImage || failed {
			return nil
		}
		if raw, ok := req.Option(coap.OptBlock2); ok {
			if blk, err := coap.ParseBlock(raw); err == nil && blk.Num == 100 {
				failed = true
				return coap.ErrTimeout
			}
		}
		return nil
	}
	staged, err := c.CheckAndUpdate()
	if err != nil || !staged {
		t.Fatalf("staged=%v err=%v", staged, err)
	}
	if !failed {
		t.Fatal("fault was never injected")
	}
	for num, n := range tap.blocks {
		if n != 1 {
			t.Fatalf("block %d fetched %d times, want exactly once", num, n)
		}
	}
	if _, err := b.Device.ApplyStagedUpdate(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(runningFirmware(t, b), v2) {
		t.Fatal("firmware mismatch")
	}
}

// TestPullTimeoutSuspendsThenResumes: when the uplink dies mid-transfer
// and stays dead past all retries, the client suspends the download
// instead of aborting; the next cycle resumes it without ever touching
// block 0 again.
func TestPullTimeoutSuspendsThenResumes(t *testing.T) {
	v1 := MakeFirmware("ts-v1", recFwSize)
	v2 := MakeFirmware("ts-v2", recFwSize)
	b := recBed(t, Options{Seed: "ts"}, v1, v2)

	c, tap := tappedClient(b)
	linkDead := false
	tap.fail = func(req *coap.Message) error {
		if req.Path() != coap.PathImage {
			return nil
		}
		if raw, ok := req.Option(coap.OptBlock2); ok {
			if blk, err := coap.ParseBlock(raw); err == nil && blk.Num >= 128 {
				linkDead = true
			}
		}
		if linkDead {
			return coap.ErrTimeout
		}
		return nil
	}
	if _, err := c.CheckAndUpdate(); !errors.Is(err, coap.ErrTimeout) {
		t.Fatalf("dead-link error = %v, want ErrTimeout", err)
	}
	if !linkDead {
		t.Fatal("link-death fault was never armed")
	}
	// Suspended, not aborted: the agent is parked and the journal kept.
	if st := b.Device.Agent.State(); st != agent.StateWaiting {
		t.Fatalf("agent state after suspend = %v, want Waiting", st)
	}
	if !b.Device.ReceptionPending() {
		t.Fatal("no pending reception after suspend")
	}
	if b.Device.Events.Count(events.KindReceptionSuspended) == 0 {
		t.Fatal("no reception-suspended event emitted")
	}

	// Link recovers: the next cycle resumes past the dead point.
	c2, tap2 := tappedClient(b)
	staged, err := c2.CheckAndUpdate()
	if err != nil || !staged {
		t.Fatalf("resume after link recovery: staged=%v err=%v", staged, err)
	}
	if tap2.firstBlock < 64 {
		t.Fatalf("resume restarted at block %d; the journaled offset was at least a sector in", tap2.firstBlock)
	}
	if n := tap.blocks[0] + tap2.blocks[0]; n != 1 {
		t.Fatalf("block 0 fetched %d times across suspend/resume, want exactly once", n)
	}
	if _, err := b.Device.ApplyStagedUpdate(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(runningFirmware(t, b), v2) {
		t.Fatal("firmware mismatch")
	}
}

// TestPullResumeOverLossyLink combines both hazards: 5% frame loss the
// whole way through, plus a power cycle in the middle of the download.
func TestPullResumeOverLossyLink(t *testing.T) {
	v1 := MakeFirmware("lpl-v1", recFwSize)
	v2 := MakeFirmware("lpl-v2", recFwSize)
	ops, _ := cleanDownload(t, Options{Seed: "lpl-ref"}, v1, v2)

	b := recBed(t, Options{Seed: "lpl"}, v1, v2)
	b.Link.SetLoss(0.05, 99)
	resumeAfterPowerLoss(t, b, v2, ops/2)
}

// proxyTap watches every exchanger of a distributed pull client: the
// session requests, the name lookups and the named blocks served. Once
// dead, every named-block exchange times out, on every leg.
type proxyTap struct {
	dead   func(num uint32) bool
	tokens [][]byte       // device tokens presented to /upkit/request
	names  int            // /upkit/name lookups
	blocks map[uint32]int // named blocks served, per block number
	first  int            // first named block requested, -1 until seen
}

func newProxyTap(c *coap.PullClient) *proxyTap {
	tap := &proxyTap{blocks: map[uint32]int{}, first: -1}
	c.Ex = &tappedExchanger{tap: tap, inner: c.Ex}
	for i := range c.Sources {
		c.Sources[i].Ex = &tappedExchanger{tap: tap, inner: c.Sources[i].Ex}
	}
	return tap
}

type tappedExchanger struct {
	tap   *proxyTap
	inner coap.Exchanger
}

func (e *tappedExchanger) Exchange(req *coap.Message) (*coap.Message, error) {
	tap := e.tap
	switch {
	case req.PathIs(coap.PathRequest):
		tap.tokens = append(tap.tokens, bytes.Clone(req.Payload))
	case req.PathIs(coap.PathName):
		tap.names++
	case req.PathIs(coap.PathBlocks):
		raw, _ := req.Option(coap.OptBlock2)
		blk, _ := coap.ParseBlock(raw)
		if tap.first == -1 {
			tap.first = int(blk.Num)
		}
		if tap.dead != nil && tap.dead(blk.Num) {
			return nil, coap.ErrTimeout
		}
		resp, err := e.inner.Exchange(req)
		if err == nil && resp.Code == coap.CodeContent {
			tap.blocks[blk.Num]++
		}
		return resp, err
	}
	return e.inner.Exchange(req)
}

// TestPullResumeThroughProxy: a device pulling named blocks through a
// caching proxy loses its uplink mid-transfer, on every leg at once.
// The transfer suspends rather than aborts; the next cycle re-presents
// the journaled device token, looks the payload's name up once and pulls
// only the blocks that are left, and the device boots v2.
func TestPullResumeThroughProxy(t *testing.T) {
	v1 := MakeFirmware("rxp-v1", recFwSize)
	v2 := MakeFirmware("rxp-v2", recFwSize)
	b := recBed(t, Options{Seed: "rxp"}, v1, v2)
	cache := proxy.NewCache(&coap.Loopback{Handler: b.PullHandler()}, proxy.CacheOptions{})
	b.Distribute(cache.Handle, BlockRoute{Name: "proxy", Handler: cache.Handle})

	c := b.PullClient()
	tap := newProxyTap(c)
	linkDead := false
	tap.dead = func(num uint32) bool {
		linkDead = linkDead || num >= 128
		return linkDead
	}
	if _, err := c.CheckAndUpdate(); !errors.Is(err, coap.ErrTimeout) {
		t.Fatalf("dead-link error = %v, want ErrTimeout", err)
	}
	if st := b.Device.Agent.State(); st != agent.StateWaiting || !b.Device.ReceptionPending() {
		t.Fatalf("after every leg timed out: agent %v, reception pending %v; want a suspended transfer",
			st, b.Device.ReceptionPending())
	}
	// One failover, proxy to origin; none after the origin, the last leg.
	if n := b.Device.Events.Count(events.KindSourceFailover); n != 1 {
		t.Fatalf("%d source-failover events, want 1 (proxy to origin)", n)
	}
	if ev, _ := lastEvent(b.Device.Events, events.KindSourceFailover); ev.Version != 2 {
		t.Fatalf("source-failover event carries v%d, want the manifest's v2", ev.Version)
	}
	if len(tap.tokens) != 1 {
		t.Fatalf("first cycle presented %d tokens, want 1", len(tap.tokens))
	}

	c2 := b.PullClient()
	tap2 := newProxyTap(c2)
	staged, err := c2.CheckAndUpdate()
	if err != nil || !staged {
		t.Fatalf("resume through the proxy: staged=%v err=%v", staged, err)
	}
	if b.Device.Events.Count(events.KindReceptionResumed) == 0 {
		t.Fatal("no reception-resumed event emitted")
	}
	if len(tap2.tokens) != 1 || !bytes.Equal(tap2.tokens[0], tap.tokens[0]) {
		t.Fatalf("resume presented tokens %x, want the journaled %x once", tap2.tokens, tap.tokens[0])
	}
	if tap2.names != 1 {
		t.Fatalf("resume looked the payload name up %d times, want 1", tap2.names)
	}
	if tap2.first < 64 {
		t.Fatalf("resume restarted at block %d; the journaled offset was at least a sector in", tap2.first)
	}
	for num, n := range tap2.blocks {
		if n != 1 || num < uint32(tap2.first) {
			t.Fatalf("resume fetched block %d %d times, want each remaining block once", num, n)
		}
	}
	if want := recFwSize/64 - tap2.first; len(tap2.blocks) != want {
		t.Fatalf("resume fetched %d blocks, want the %d remaining", len(tap2.blocks), want)
	}
	if _, err := b.Device.ApplyStagedUpdate(); err != nil {
		t.Fatal(err)
	}
	if b.Device.RunningVersion() != 2 || !bytes.Equal(runningFirmware(t, b), v2) {
		t.Fatal("the resumed device does not run the published v2")
	}
}
