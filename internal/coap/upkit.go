package coap

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"upkit/internal/agent"
	"upkit/internal/dist"
	"upkit/internal/events"
	"upkit/internal/lru"
	"upkit/internal/manifest"
	"upkit/internal/telemetry"
	"upkit/internal/transport"
	"upkit/internal/updateserver"
)

// UpKit's CoAP resource layout for the pull approach (Fig. 2, steps
// 3–7 collapsed into a poll):
//
//	GET  /upkit/version?app=<hex>      → 2-byte latest version
//	POST /upkit/request?app=<hex>      body: device token (10 B)
//	                                   → manifest (213 B)
//	GET  /upkit/image?d=<hex>&n=<hex>  → payload, Block2 transfer
//	GET  /upkit/keys                   → key bundle (root-signed records
//	                                     + revocation list)
//	GET  /upkit/name?d=<hex>&n=<hex>   → payload content name + length
//	GET  /upkit/blocks?b=<hex name>    → named payload, Block2 transfer
const (
	PathVersion = "/upkit/version"
	PathRequest = "/upkit/request"
	PathImage   = "/upkit/image"
	PathKeys    = "/upkit/keys"
	PathName    = "/upkit/name"
	PathBlocks  = "/upkit/blocks"
)

// DefaultBlockSize is the Block2 size used by the pull client; 64 bytes
// fits a single 802.15.4 frame after 6LoWPAN compression.
const DefaultBlockSize = 64

// DefaultSZX is the Block2 SZX a server assumes when the request
// carries no Block2 option (64-byte blocks, matching DefaultBlockSize).
const DefaultSZX = 2

// Pull client errors.
var (
	ErrServerRefused = errors.New("coap: server refused request")
	ErrNoUpdate      = errors.New("coap: no newer version available")
)

// sessionKey identifies one prepared update: the double signature binds
// the image to exactly this device and nonce.
type sessionKey struct {
	deviceID uint32
	nonce    uint32
}

// session is one prepared update. Both the manifest and the payload are
// kept so that re-presenting the same device token (a client resuming
// after a power cycle) replays the identical bytes instead of preparing
// a fresh update — with payload encryption a fresh prepare would pick a
// new IV and the resumed mid-stream decryption would fail verification.
type session struct {
	manifest []byte
	payload  []byte
	// name is the payload's content address — what GET /upkit/name
	// reports so the device can fetch the same bytes from any block
	// source (peer, caching proxy, origin).
	name dist.Name
}

// size is what the session counts for against maxSessionBytes.
func (sess *session) size() int { return len(sess.manifest) + len(sess.payload) }

// maxSessionBytes bounds the manifest and payload bytes the session
// table retains, so the table does not grow with the number of updates
// served. A device whose session was evicted gets 4.04 on its next
// block and re-presents its token (PullClient.transfer), which
// prepares the session again.
const maxSessionBytes = 32 << 20

// PullServer adapts an update server to CoAP for pulling devices.
type PullServer struct {
	Updates *updateserver.Server

	// sessions is the session table: least recently used sessions are
	// evicted once the retained bytes exceed maxSessionBytes, never the
	// one just added.
	sessions *lru.Cache[sessionKey, *session]

	// blockSrv serves GET /upkit/blocks from the update server's block
	// registry; nil (no update server) turns the route into NotFound.
	blockSrv *BlockServer

	// Resolved on the update server's registry; nil handles drop samples.
	reqVersion *telemetry.Counter
	reqRequest *telemetry.Counter
	reqImage   *telemetry.Counter
	reqKeys    *telemetry.Counter
	reqName    *telemetry.Counter
	reqBlocks  *telemetry.Counter
	reqOther   *telemetry.Counter
	blocks     *telemetry.Counter
	egress     *telemetry.Counter
}

// NewPullServer wraps updates, recording CoAP request and block counts
// on the update server's telemetry registry.
func NewPullServer(updates *updateserver.Server) *PullServer {
	s := &PullServer{Updates: updates, sessions: lru.New[sessionKey, *session](maxSessionBytes, (*session).size)}
	var reg *telemetry.Registry
	if updates != nil {
		reg = updates.Telemetry()
	}
	const help = "CoAP requests served by resource."
	s.reqVersion = reg.Counter("upkit_coap_requests_total", help, telemetry.L("path", "version"))
	s.reqRequest = reg.Counter("upkit_coap_requests_total", help, telemetry.L("path", "request"))
	s.reqImage = reg.Counter("upkit_coap_requests_total", help, telemetry.L("path", "image"))
	s.reqKeys = reg.Counter("upkit_coap_requests_total", help, telemetry.L("path", "keys"))
	s.reqName = reg.Counter("upkit_coap_requests_total", help, telemetry.L("path", "name"))
	s.reqBlocks = reg.Counter("upkit_coap_requests_total", help, telemetry.L("path", "blocks"))
	s.reqOther = reg.Counter("upkit_coap_requests_total", help, telemetry.L("path", "other"))
	s.blocks = reg.Counter("upkit_coap_blocks_total", "Block2 payload blocks served.")
	s.egress = OriginEgressCounter(reg)
	if updates != nil {
		// BlockSource chains the fleet-shared registry with the private
		// per-device encrypted one, so encrypted pulls keep working now
		// that ciphertext no longer pollutes the shared registry.
		s.blockSrv = &BlockServer{Source: updates.BlockSource(), Blocks: s.blocks}
	}
	return s
}

// OriginEgressCounter resolves the origin-egress byte counter on reg:
// the response payload bytes the origin pull server puts on the wire.
// The cache-tier benchmarks compare this between direct and proxied
// topologies — a warm proxy tier should shrink it by the fan-out
// factor.
func OriginEgressCounter(reg *telemetry.Registry) *telemetry.Counter {
	return reg.Counter("upkit_origin_egress_bytes", "Response payload bytes served by the origin pull server.")
}

// Handle is the CoAP Handler for the UpKit resources. Every response
// payload byte is charged to the origin-egress counter — the number
// the cache-tier topologies exist to shrink.
func (s *PullServer) Handle(req *Message) *Message {
	resp := s.route(req)
	if resp != nil {
		s.egress.Add(uint64(len(resp.Payload)))
	}
	return resp
}

func (s *PullServer) route(req *Message) *Message {
	switch {
	case req.Code == CodeGET && req.PathIs(PathVersion):
		s.reqVersion.Inc()
		return s.handleVersion(req)
	case req.Code == CodePOST && req.PathIs(PathRequest):
		s.reqRequest.Inc()
		return s.handleRequest(req)
	case req.Code == CodeGET && req.PathIs(PathImage):
		s.reqImage.Inc()
		return s.handleImage(req)
	case req.Code == CodeGET && req.PathIs(PathKeys):
		s.reqKeys.Inc()
		return s.handleKeys()
	case req.Code == CodeGET && req.PathIs(PathName):
		s.reqName.Inc()
		return s.handleName(req)
	case req.Code == CodeGET && req.PathIs(PathBlocks) && s.blockSrv != nil:
		s.reqBlocks.Inc()
		return s.blockSrv.Handle(req)
	default:
		s.reqOther.Inc()
		return &Message{Type: Acknowledgement, Code: CodeNotFound}
	}
}

func parseHexQuery(req *Message, key string) (uint32, bool) {
	raw, ok := req.query(key)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(string(raw), 16, 32)
	if err != nil {
		return 0, false
	}
	return uint32(v), true
}

func (s *PullServer) handleVersion(req *Message) *Message {
	appID, ok := parseHexQuery(req, "app")
	if !ok {
		return &Message{Type: Acknowledgement, Code: CodeBadReq}
	}
	v, ok := s.Updates.Latest(appID)
	if !ok {
		return &Message{Type: Acknowledgement, Code: CodeNotFound}
	}
	payload := make([]byte, 2)
	binary.BigEndian.PutUint16(payload, v)
	return &Message{Type: Acknowledgement, Code: CodeContent, Payload: payload}
}

func (s *PullServer) handleRequest(req *Message) *Message {
	appID, ok := parseHexQuery(req, "app")
	if !ok {
		return &Message{Type: Acknowledgement, Code: CodeBadReq}
	}
	var tok manifest.DeviceToken
	if err := tok.UnmarshalBinary(req.Payload); err != nil {
		return &Message{Type: Acknowledgement, Code: CodeBadReq}
	}
	key := sessionKey{tok.DeviceID, tok.Nonce}
	// Idempotent per (device, nonce): a repeated POST with the same token
	// replays the stored session instead of preparing a new one.
	if sess, ok := s.sessions.Get(key); ok {
		return &Message{Type: Acknowledgement, Code: CodeContent, Payload: sess.manifest}
	}
	u, err := s.Updates.PrepareUpdate(appID, tok)
	if err != nil {
		return &Message{Type: Acknowledgement, Code: CodeNotFound}
	}
	s.sessions.Add(key, &session{manifest: u.ManifestBytes, payload: u.Payload, name: u.PayloadName})
	return &Message{Type: Acknowledgement, Code: CodeContent, Payload: u.ManifestBytes}
}

// handleKeys serves the update server's published key bundle. A bundle
// is a few hundred bytes at most (bounded record and revocation counts),
// so it travels as a single response rather than a Block2 transfer.
func (s *PullServer) handleKeys() *Message {
	b := s.Updates.KeyBundle()
	if len(b) == 0 {
		return &Message{Type: Acknowledgement, Code: CodeNotFound}
	}
	return &Message{Type: Acknowledgement, Code: CodeContent, Payload: b}
}

// handleName reports the content name and total length of a session's
// payload: 32 name bytes followed by a 4-byte big-endian length. With
// the name in hand the device is free to fetch the actual bytes from
// any block source — the name is the only per-session fact the
// content-addressed transfer needs, and this tiny response is the only
// part of it the origin must serve itself.
func (s *PullServer) handleName(req *Message) *Message {
	deviceID, ok1 := parseHexQuery(req, "d")
	nonce, ok2 := parseHexQuery(req, "n")
	if !ok1 || !ok2 {
		return &Message{Type: Acknowledgement, Code: CodeBadReq}
	}
	sess, ok := s.sessions.Get(sessionKey{deviceID, nonce})
	if !ok {
		return &Message{Type: Acknowledgement, Code: CodeNotFound}
	}
	payload := make([]byte, dist.NameSize+4)
	copy(payload, sess.name[:])
	binary.BigEndian.PutUint32(payload[dist.NameSize:], uint32(len(sess.payload)))
	return &Message{Type: Acknowledgement, Code: CodeContent, Payload: payload}
}

func (s *PullServer) handleImage(req *Message) *Message {
	deviceID, ok1 := parseHexQuery(req, "d")
	nonce, ok2 := parseHexQuery(req, "n")
	if !ok1 || !ok2 {
		return &Message{Type: Acknowledgement, Code: CodeBadReq}
	}
	sess, ok := s.sessions.Get(sessionKey{deviceID, nonce})
	if !ok {
		return &Message{Type: Acknowledgement, Code: CodeNotFound}
	}
	payload := sess.payload

	block := Block{SZX: DefaultSZX}
	if raw, has := req.Option(OptBlock2); has {
		b, err := ParseBlock(raw)
		if err != nil {
			return &Message{Type: Acknowledgement, Code: CodeBadReq}
		}
		block = b
	}
	size := block.Size()
	start := int(block.Num) * size
	if start >= len(payload) {
		return &Message{Type: Acknowledgement, Code: CodeBadReq}
	}
	end := min(start+size, len(payload))
	s.blocks.Inc()
	block.More = end < len(payload)
	total := noSize2
	if block.Num == 0 {
		total = len(payload)
	}
	// The reply carries a copy: it must not alias the stored payload.
	return newBlockReply(block, payload[start:end], total)
}

// PullClient drives a device's update agent through the pull flow.
type PullClient struct {
	// Ex performs the exchanges (simulated link or UDP).
	Ex Exchanger
	// Sources, when non-empty, are where the payload's blocks come
	// from, in order (peer, proxy, origin): the payload name is fetched
	// from the origin over Ex, then each source serves named blocks.
	// Empty Sources pulls the blocks from the origin's session resource
	// over Ex. The transfer fails over to the next source on timeout or
	// refusal; when a source serves bytes the verifier rejects, the
	// whole cycle restarts with that source excluded — the double
	// signature makes every source untrusted, so a poisoned cache costs
	// a wasted transfer, never an installed image.
	Sources []BlockSource
	// PayloadSink, when set, receives the verified payload bytes after a
	// complete transfer — the hook peer-assisted serving uses to admit
	// the device's own download into a shared block registry. Only
	// called for transfers that started at offset 0.
	PayloadSink func(payload []byte)
	// Agent is the device's update agent.
	Agent *agent.Agent
	// AppID is the application to poll for.
	AppID uint32
	// BlockSize is the Block2 size (default DefaultBlockSize).
	BlockSize int
	// TransferRetries is the number of extra attempts per exchange after
	// a retryable transport failure (the exchanger's own retransmissions
	// having been exhausted); 0 selects 2. Once these too are exhausted,
	// an in-flight transfer is suspended — the journal keeps the offset
	// for the next cycle — rather than aborted.
	TransferRetries int
	// Backoff, when set, is called before retry attempt n ≥ 1. The
	// testbed uses it to advance the simulated clock; real deployments
	// can sleep.
	Backoff func(attempt int)
	// Keys, when set, receives key bundles fetched by SyncKeys — the
	// device's keystore in lifecycle deployments.
	Keys KeySink
	// Events receives key-sync lifecycle events; nil drops them.
	Events *events.Log

	token []byte
}

// KeySink applies an encoded key bundle (root-signed key records plus a
// revocation list); security.Keystore satisfies it.
type KeySink interface {
	ApplyBundle(b []byte) (int, error)
}

// SyncKeys fetches the server's key bundle and applies it to the
// client's KeySink, returning the number of new key records learned.
// A server without a published bundle (CodeNotFound) is a no-op: the
// deployment simply does not use key lifecycle. Records with bad root
// signatures and stale revocation lists are rejected by the keystore —
// the update channel is untrusted, only the root signature counts.
func (c *PullClient) SyncKeys() (int, error) {
	if c.Keys == nil {
		return 0, nil
	}
	req := &Message{Type: Confirmable, Code: CodeGET, Token: c.nextToken()}
	req.SetPath(PathKeys)
	resp, err := c.exchange(c.Ex, req)
	if err != nil {
		return 0, err
	}
	if resp.Code == CodeNotFound {
		return 0, nil
	}
	if resp.Code != CodeContent {
		return 0, fmt.Errorf("%w: %s", ErrServerRefused, resp.Code)
	}
	added, err := c.Keys.ApplyBundle(resp.Payload)
	if err != nil {
		return added, fmt.Errorf("coap: key bundle rejected: %w", err)
	}
	if added > 0 {
		c.Events.Emit(events.KindKeysUpdated, 0, fmt.Sprintf("%d new key records", added))
	}
	return added, nil
}

// retryableTransport reports whether err is a transient transport
// failure (timeouts, lost frames) worth retrying — as opposed to a
// protocol refusal or verification failure, which never heal on their
// own.
func retryableTransport(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, transport.ErrLost)
}

// SourceError reports that the bytes served by one leg of a transfer
// failed verification. The agent has already invalidated the slot, so
// the cycle cannot continue mid-stream; CheckAndUpdate restarts it with
// the offending leg excluded.
type SourceError struct {
	// Source is the leg's index into PullClient.Sources; 0 for the
	// origin's session resource of a client without Sources.
	Source int
	// Name labels the source ("peer", "proxy", "origin").
	Name string
	// Err is the underlying verification failure.
	Err error
}

func (e *SourceError) Error() string {
	return fmt.Sprintf("coap: block source %q served rejected bytes: %v", e.Name, e.Err)
}

func (e *SourceError) Unwrap() error { return e.Err }

// exchange performs one request over ex with transfer-level retries on
// retryable transport errors.
func (c *PullClient) exchange(ex Exchanger, req *Message) (*Message, error) {
	retries := c.TransferRetries
	if retries <= 0 {
		retries = 2
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 && c.Backoff != nil {
			c.Backoff(attempt)
		}
		resp, err := ex.Exchange(req)
		if err == nil {
			return resp, nil
		}
		if !retryableTransport(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// appQuery renders the app=... query option value.
func (c *PullClient) appQuery() []byte { return hexQuery("app=", c.AppID) }

// hexQuery renders a query option value: prefix ("key=") then v in hex.
func hexQuery(prefix string, v uint32) []byte {
	return strconv.AppendUint([]byte(prefix), uint64(v), 16)
}

// blockRequest is the GET a Block2 transfer repeats for every block. It
// is built once per transfer; per block only its token and its Block2
// value are rewritten, in place — an Exchanger keeps nothing of a
// request.
type blockRequest struct {
	msg   Message
	block [3]byte
}

// newBlockRequest builds the request for path with the given Uri-Query
// values and, last, a Block2 option for next to fill.
func newBlockRequest(path string, queries ...[]byte) *blockRequest {
	r := &blockRequest{msg: Message{Type: Confirmable, Code: CodeGET}}
	r.msg.SetPath(path)
	for _, q := range queries {
		r.msg.AddOption(OptUriQuery, q)
	}
	r.msg.AddOption(OptBlock2, nil)
	return r
}

// next readies the request for block b under token.
func (r *blockRequest) next(token []byte, b Block) *Message {
	r.msg.Token = token
	r.msg.Options[len(r.msg.Options)-1].Value = b.AppendTo(r.block[:0])
	return &r.msg
}

// Poll asks the server for the latest version (step 3, as a poll).
func (c *PullClient) Poll() (uint16, error) {
	req := &Message{Type: Confirmable, Code: CodeGET, Token: c.nextToken()}
	req.SetPath(PathVersion)
	req.AddOption(OptUriQuery, c.appQuery())
	resp, err := c.Ex.Exchange(req)
	if err != nil {
		return 0, err
	}
	if resp.Code != CodeContent || len(resp.Payload) != 2 {
		return 0, fmt.Errorf("%w: %s", ErrServerRefused, resp.Code)
	}
	return binary.BigEndian.Uint16(resp.Payload), nil
}

// nextToken advances the client's token in place and returns it: valid
// until the next call, which is as long as any one exchange needs it.
func (c *PullClient) nextToken() []byte {
	if c.token == nil {
		c.token = []byte{0x75, 0x6B, 0, 0}
	}
	c.token[2]++
	if c.token[2] == 0 {
		c.token[3]++
	}
	return c.token
}

// CheckAndUpdate performs one full pull update cycle: poll the version,
// and if a newer one exists, request it with a fresh device token,
// verify the manifest, and stream the image into the agent. It returns
// true when a verified update is staged and the device should reboot.
//
// When the agent holds a journaled, interrupted download of the latest
// version, the cycle resumes it instead: the journaled device token is
// re-presented to the server and the Block2 transfer continues at the
// block containing the journaled offset, so only the remaining bytes
// travel again.
//
// A leg whose bytes fail verification is excluded and the cycle retried
// over the remaining legs — at most once per leg, so a fully poisoned
// source list still terminates.
func (c *PullClient) CheckAndUpdate() (bool, error) {
	latest, err := c.Poll()
	if err != nil {
		return false, err
	}
	if latest <= c.Agent.CurrentVersion() {
		return false, ErrNoUpdate
	}

	dead := make([]bool, max(len(c.Sources), 1))
	for {
		staged, err := c.updateCycle(latest, dead)
		var se *SourceError
		if !errors.As(err, &se) {
			return staged, err
		}
		dead[se.Source] = true
		live := 0
		for _, d := range dead {
			if !d {
				live++
			}
		}
		if live == 0 {
			return false, err
		}
		c.Events.Emit(events.KindSourceFailover, latest,
			fmt.Sprintf("%s served rejected bytes; retrying via %d remaining source(s)", se.Name, live))
	}
}

// updateCycle runs one resume-or-fresh update cycle against latest,
// skipping the legs marked dead.
func (c *PullClient) updateCycle(latest uint16, dead []bool) (bool, error) {
	if c.Agent.CanResume() {
		staged, handled, err := c.resume(latest, dead)
		if handled {
			return staged, err
		}
		// The journal did not apply (stale, or for an older version);
		// fall through to a fresh cycle.
	}

	tok, err := c.Agent.RequestDeviceToken()
	if err != nil {
		return false, err
	}
	tokBytes, err := tok.MarshalBinary()
	if err != nil {
		c.Agent.Abort()
		return false, err
	}
	req := &Message{Type: Confirmable, Code: CodePOST, Token: c.nextToken(), Payload: tokBytes}
	req.SetPath(PathRequest)
	req.AddOption(OptUriQuery, c.appQuery())
	resp, err := c.Ex.Exchange(req)
	if err != nil {
		c.Agent.Abort()
		return false, err
	}
	if resp.Code != CodeContent {
		c.Agent.Abort()
		return false, fmt.Errorf("%w: %s", ErrServerRefused, resp.Code)
	}

	status, err := c.Agent.Receive(resp.Payload)
	if err != nil {
		// The agent rejected the manifest and has already cleaned itself
		// up (slot invalidated, state back to Waiting) — no Abort needed.
		return false, fmt.Errorf("coap: manifest rejected: %w", err)
	}
	if status != agent.StatusManifestAccepted {
		c.Agent.Abort()
		return false, fmt.Errorf("coap: unexpected agent status %v after manifest", status)
	}

	return c.transfer(tok, 0, dead)
}

// resume continues a journaled download. handled reports whether the
// resume path ran to a conclusion; when false the journal did not apply
// and the caller should run a fresh cycle.
func (c *PullClient) resume(latest uint16, dead []bool) (staged, handled bool, err error) {
	info, err := c.Agent.Resume()
	if err != nil {
		// The journal was stale or inconsistent; the agent has already
		// invalidated it, so a fresh cycle starts clean.
		return false, false, nil
	}
	if info.Version != latest {
		// The server moved on while the download was parked. Drop the
		// now-pointless partial transfer and fetch the newer version.
		c.Agent.Abort()
		return false, false, nil
	}
	if err := c.establishSession(info.Token); err != nil {
		return false, true, err
	}
	staged, err = c.transfer(info.Token, info.Received, dead)
	return staged, true, err
}

// establishSession re-presents tok to the server so it (re-)prepares
// the session — idempotent on the server per (device, nonce), so a
// resume replays the same manifest and payload bytes.
func (c *PullClient) establishSession(tok manifest.DeviceToken) error {
	tokBytes, err := tok.MarshalBinary()
	if err != nil {
		c.Agent.Abort()
		return err
	}
	req := &Message{Type: Confirmable, Code: CodePOST, Token: c.nextToken(), Payload: tokBytes}
	req.SetPath(PathRequest)
	req.AddOption(OptUriQuery, c.appQuery())
	resp, err := c.exchange(c.Ex, req)
	if err != nil {
		c.suspendOrAbort(err)
		return err
	}
	if resp.Code != CodeContent {
		c.Agent.Abort()
		return fmt.Errorf("%w: %s", ErrServerRefused, resp.Code)
	}
	return nil
}

// suspendOrAbort ends an in-flight transfer that failed with err: a
// retryable transport failure suspends it, so the journal keeps the
// offset for the next cycle; anything else aborts it.
func (c *PullClient) suspendOrAbort(err error) {
	if retryableTransport(err) {
		_ = c.Agent.Suspend()
	} else {
		c.Agent.Abort()
	}
}

// fetchName asks the origin (over the client's primary exchanger) for
// the session payload's content name — the only per-session fact the
// named-block legs need from the origin itself. The length the reply
// also carries is not used: the verified manifest fixes it.
func (c *PullClient) fetchName(tok manifest.DeviceToken) (name dist.Name, err error) {
	req := &Message{Type: Confirmable, Code: CodeGET, Token: c.nextToken()}
	req.SetPath(PathName)
	req.AddOption(OptUriQuery, hexQuery("d=", tok.DeviceID))
	req.AddOption(OptUriQuery, hexQuery("n=", tok.Nonce))
	resp, err := c.exchange(c.Ex, req)
	if err != nil {
		c.suspendOrAbort(err)
		return name, err
	}
	if resp.Code != CodeContent || len(resp.Payload) != dist.NameSize+4 {
		c.Agent.Abort()
		return name, fmt.Errorf("%w: %s for payload name", ErrServerRefused, resp.Code)
	}
	copy(name[:], resp.Payload)
	return name, nil
}

// transfer streams the payload into the agent (step 7 + 12), starting
// at offset (0 for a fresh transfer), over the transfer's legs in
// order. A leg is one place the blocks can come from. A client without
// Sources has one leg, the origin's session resource GET
// /upkit/image?d=&n= over Ex. A client with Sources first fetches the
// payload's name, then has one GET /upkit/blocks?b=<name> leg per
// source. One rule holds for every block on every leg:
//   - The exchange is retried on retryable transport errors.
//   - On the session leg, a 4.04 means the server forgot the session
//     (restart or eviction): the token is re-presented once and the
//     block asked for again.
//   - The reply must be 2.05 with a parsable Block2, and bytes must be
//     left once the prefix the agent already holds is trimmed — a
//     resume or a failover re-fetches the block containing offset, and
//     the legs' blocks line up because they are the same bytes.
//   - The transfer ends when the agent reports StatusUpdateReady: the
//     length comes from the manifest it verified, not from the server.
//     A last block (More=0) before that is a refusal.
//
// An exchange error or a refusal moves the transfer to the next live
// leg; the last leg's error decides how it ends (see suspendOrAbort).
// Bytes the agent rejects end the cycle with a *SourceError naming the
// leg: the agent has already invalidated the slot and journal, and
// CheckAndUpdate restarts without that leg.
func (c *PullClient) transfer(tok manifest.DeviceToken, offset int, dead []bool) (bool, error) {
	legs := c.Sources
	session := len(legs) == 0
	var req *blockRequest
	if session {
		legs = []BlockSource{{Name: "origin", Ex: c.Ex}}
		req = newBlockRequest(PathImage, hexQuery("d=", tok.DeviceID), hexQuery("n=", tok.Nonce))
	} else {
		name, err := c.fetchName(tok)
		if err != nil {
			return false, err
		}
		req = newBlockRequest(PathBlocks, []byte("b="+name.String()))
	}
	var collect []byte
	collecting := c.PayloadSink != nil && offset == 0
	reestablished := false
	var lastErr error
	for i := range legs {
		if dead[i] {
			continue
		}
		if lastErr != nil {
			c.Events.Emit(events.KindSourceFailover, c.Agent.Manifest().Version, lastErr.Error())
		}
		src := &legs[i]
		size := cmp.Or(src.BlockSize, c.BlockSize, DefaultBlockSize)
		szx, err := SZXForSize(size)
		if err != nil {
			c.Agent.Abort()
			return false, err
		}
		for {
			num := uint32(offset / size)
			resp, err := c.exchange(src.Ex, req.next(c.nextToken(), Block{Num: num, SZX: szx}))
			if err == nil && session && resp.Code == CodeNotFound && !reestablished {
				reestablished = true
				if err := c.establishSession(tok); err != nil {
					return false, err
				}
				continue
			}
			var chunk []byte
			more := false
			if err == nil {
				chunk, more, err = servedBlock(resp, offset%size)
			}
			if err != nil {
				lastErr = fmt.Errorf("coap: block %d from %s: %w", num, src.Name, err)
				break
			}
			status, err := c.Agent.Receive(chunk)
			if err != nil {
				return false, &SourceError{Source: i, Name: src.Name,
					Err: fmt.Errorf("coap: firmware rejected: %w", err)}
			}
			if collecting {
				collect = append(collect, chunk...)
			}
			offset += len(chunk)
			if status == agent.StatusUpdateReady {
				if collecting {
					c.PayloadSink(collect)
				}
				return true, nil
			}
			if !more {
				lastErr = fmt.Errorf("%w: %s ended the transfer at byte %d", ErrServerRefused, src.Name, offset)
				break
			}
		}
	}
	c.suspendOrAbort(lastErr)
	return false, lastErr
}

// servedBlock applies the per-block rule to one reply: 2.05, a parsable
// Block2, and bytes left after skipping the skip bytes the agent
// already holds. It returns those bytes and the Block2 More flag.
func servedBlock(resp *Message, skip int) ([]byte, bool, error) {
	if resp.Code != CodeContent {
		return nil, false, fmt.Errorf("%w: %s", ErrServerRefused, resp.Code)
	}
	raw, has := resp.Option(OptBlock2)
	if !has {
		return nil, false, fmt.Errorf("%w: missing Block2 in response", ErrServerRefused)
	}
	b, err := ParseBlock(raw)
	if err != nil {
		return nil, false, err
	}
	if skip >= len(resp.Payload) {
		return nil, false, fmt.Errorf("%w: %d-byte block, %d bytes already held", ErrServerRefused, len(resp.Payload), skip)
	}
	return resp.Payload[skip:], b.More, nil
}
