package coap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"upkit/internal/dist"
	"upkit/internal/telemetry"
)

// Content-addressed block transfer (the in-network propagation path):
//
//	GET /upkit/name?d=<hex>&n=<hex>   → 32-byte payload name + 4-byte
//	                                    total length for an established
//	                                    session
//	GET /upkit/blocks?b=<hex name>    → named payload, Block2 transfer
//
// /upkit/blocks is deliberately session-free: the name alone addresses
// immutable bytes, so any node holding them — origin, caching proxy,
// updated peer — can answer, and answers are cacheable across devices.
// The double signature carried by the manifest keeps all of them
// untrusted: a wrong block surfaces as a digest failure on the device,
// never as installed code.

// BlockServer serves named blocks from a dist.Source over CoAP Block2 —
// the one handler the origin, the caching proxy tier, and peer devices
// all reuse. The client-requested SZX is honoured (16..1024 bytes;
// ParseBlock has already rejected the reserved SZX 7).
type BlockServer struct {
	// Source holds the named payloads.
	Source dist.Source
	// Blocks, when set, counts served blocks. Nil drops the samples.
	Blocks *telemetry.Counter

	// last is the name parsed most recently, with its hex form. A fleet
	// pulls the blocks of one payload at a time, so nearly every request
	// names it again and costs a compare instead of a hex decode.
	last atomic.Pointer[parsedName]
}

type parsedName struct {
	hex  [2 * dist.NameSize]byte
	name dist.Name
}

// Handle is the CoAP Handler for the named-block resource.
func (s *BlockServer) Handle(req *Message) *Message {
	if req.Code != CodeGET || !req.PathIs(PathBlocks) {
		return &Message{Type: Acknowledgement, Code: CodeNotFound}
	}
	raw, ok := req.query("b")
	if !ok {
		return &Message{Type: Acknowledgement, Code: CodeBadReq}
	}
	parsed := s.last.Load()
	if parsed == nil || !bytes.Equal(parsed.hex[:], raw) {
		name, err := dist.ParseName(raw)
		if err != nil {
			return &Message{Type: Acknowledgement, Code: CodeBadReq}
		}
		parsed = &parsedName{name: name}
		copy(parsed.hex[:], raw)
		s.last.Store(parsed)
	}
	block := Block{SZX: DefaultSZX}
	if v, has := req.Option(OptBlock2); has {
		b, err := ParseBlock(v)
		if err != nil {
			return &Message{Type: Acknowledgement, Code: CodeBadReq}
		}
		block = b
	}
	data, more, err := s.Source.Block(parsed.name, block.Num, block.Size())
	switch {
	case errors.Is(err, dist.ErrUnknownName):
		return &Message{Type: Acknowledgement, Code: CodeNotFound}
	case errors.Is(err, dist.ErrOutOfRange):
		return &Message{Type: Acknowledgement, Code: CodeBadReq}
	case err != nil:
		return &Message{Type: Acknowledgement, Code: CodeIntErr}
	}
	s.Blocks.Inc()
	block.More = more
	return newBlockReply(block, data, noSize2)
}

// blockReply is the one allocation a served block costs: the response,
// its Block2 and Size2 options, their values, and a copy of the block.
// A copy, because sources may alias their stored payload, and responses
// travel through transports (and, in attack experiments, hostile hops)
// that must not reach back into it; the reply's own, because handlers
// serve many devices at once and a reply outlives the call that made
// it. The inline room is one block of the size the pull client asks
// for; append spills a larger one (a proxy filling 1 KiB chunks) into
// an array of its own.
type blockReply struct {
	msg   Message
	opts  [2]Option
	block [3]byte
	size2 [4]byte
	data  [DefaultBlockSize]byte
}

// noSize2 asks newBlockReply for a reply without a Size2 option.
const noSize2 = -1

// newBlockReply builds the 2.05 response carrying a copy of data as
// block b, with a Size2 option of total bytes unless total is noSize2.
func newBlockReply(b Block, data []byte, total int) *Message {
	r := new(blockReply)
	r.msg = Message{Type: Acknowledgement, Code: CodeContent, Options: r.opts[:1], Payload: append(r.data[:0], data...)}
	r.opts[0] = Option{Number: OptBlock2, Value: b.AppendTo(r.block[:0])}
	if total != noSize2 {
		binary.BigEndian.PutUint32(r.size2[:], uint32(total))
		r.opts[1] = Option{Number: OptSize2, Value: r.size2[:]}
		r.msg.Options = r.opts[:2]
	}
	return &r.msg
}

// Loopback is an Exchanger that runs the full codec round-trip against
// an in-process Handler — the hop between a caching proxy and its
// origin when both live in one process, and the test stand-in for a
// backhaul link with no radio to charge. Safe for concurrent use.
type Loopback struct {
	Handler Handler

	mu      sync.Mutex
	nextMID uint16
}

// Exchange implements Exchanger.
func (l *Loopback) Exchange(req *Message) (*Message, error) {
	l.mu.Lock()
	l.nextMID++
	req.MessageID = l.nextMID
	l.mu.Unlock()
	enc, err := req.Marshal()
	if err != nil {
		return nil, err
	}
	parsed, err := Unmarshal(enc)
	if err != nil {
		return nil, fmt.Errorf("coap: server parse: %w", err)
	}
	// Captured before the handler runs: a proxying handler forwards
	// parsed upstream, which renumbers it for that leg.
	mid, tok := parsed.MessageID, parsed.Token
	resp := l.Handler(parsed)
	if resp == nil {
		return nil, fmt.Errorf("coap: no response for %s %s", req.Code, req.Path())
	}
	resp.MessageID, resp.Token = mid, tok
	respEnc, err := resp.Marshal()
	if err != nil {
		return nil, err
	}
	return Unmarshal(respEnc)
}

// ExchangerSource adapts a remote block server reachable over Ex into a
// dist.Source — the caching proxy's origin-fill path, and what lets a
// cache tier stack (proxy filling from proxy filling from origin).
type ExchangerSource struct {
	Ex Exchanger
}

// Block implements dist.Source by one GET /upkit/blocks exchange.
func (s *ExchangerSource) Block(name dist.Name, num uint32, size int) ([]byte, bool, error) {
	szx, err := SZXForSize(size)
	if err != nil {
		return nil, false, err
	}
	req := newBlockRequest(PathBlocks, []byte("b="+name.String()))
	resp, err := s.Ex.Exchange(req.next(nil, Block{Num: num, SZX: szx}))
	if err != nil {
		return nil, false, err
	}
	switch resp.Code {
	case CodeContent:
	case CodeNotFound:
		return nil, false, dist.ErrUnknownName
	case CodeBadReq:
		return nil, false, fmt.Errorf("%w: block %d refused upstream", dist.ErrOutOfRange, num)
	default:
		return nil, false, fmt.Errorf("%w: %s for block %d", ErrServerRefused, resp.Code, num)
	}
	raw, has := resp.Option(OptBlock2)
	if !has {
		return nil, false, fmt.Errorf("%w: missing Block2 in block response", ErrServerRefused)
	}
	b, err := ParseBlock(raw)
	if err != nil {
		return nil, false, err
	}
	// Clone: the caller keeps what it is given (a cache stores it), and
	// the response is only lent until the next exchange over Ex.
	return bytes.Clone(resp.Payload), b.More, nil
}

// BlockSource is one place a PullClient can fetch named blocks from.
// Sources are tried in the order given (peer, proxy, origin); the
// client fails over to the next on timeout, refusal, or — restarting
// the cycle — when the verifier rejects what a source served.
type BlockSource struct {
	// Name labels the source in events and errors ("peer", "proxy",
	// "origin").
	Name string
	// Ex reaches the source's block server.
	Ex Exchanger
	// BlockSize overrides the client's Block2 size for this source;
	// 0 inherits PullClient.BlockSize. Well-connected hops (a proxy on
	// mains power) can pull 512/1024-byte blocks while the radio path
	// stays at 64.
	BlockSize int
}
