package coap

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"upkit/internal/telemetry"
	"upkit/internal/transport"
)

// Handler processes one CoAP request and produces the response. The
// request — the message and every byte its fields reference — is the
// handler's only for the duration of the call, and read-only: it may be
// decoded in place over the datagram the caller will retransmit. What a
// handler keeps it copies; what it returns it gives away.
type Handler func(req *Message) *Message

// Exchanger performs one confirmable request/response exchange. It may
// set req.MessageID but keeps nothing of req once Exchange returns, so a
// caller can rewrite one request in place for a whole transfer. The
// response is the caller's until its next Exchange on the same
// exchanger, which may decode over the same memory: what must outlive
// that is copied first.
type Exchanger interface {
	Exchange(req *Message) (*Message, error)
}

// ErrTimeout is returned when a UDP exchange receives no response.
var ErrTimeout = errors.New("coap: timeout")

// LinkExchanger runs exchanges against an in-process handler through a
// simulated radio link: every request and response is actually encoded
// and decoded by the codec, and its wire size is charged to the link.
//
// Confirmable semantics are honoured: when the link's loss model drops
// a request or response frame, the exchange retransmits after a timeout
// (charged to the clock), up to MaxRetransmit attempts — RFC 7252 §4.2.
//
// A LinkExchanger is one device's radio: it runs one exchange at a time
// and is not safe for concurrent use.
type LinkExchanger struct {
	Link    *transport.Link
	Handler Handler

	// MaxRetransmit bounds retransmissions per exchange; 0 selects the
	// RFC 7252 default of 4.
	MaxRetransmit int
	// AckTimeout is the (virtual) wait before a retransmission; 0
	// selects 2 s, the RFC default.
	AckTimeout time.Duration
	// Telemetry, when set, counts exchanges and retransmissions. Nil
	// drops the samples.
	Telemetry *telemetry.Registry

	nextMID uint16
	// Counter handles, resolved on Telemetry at first use rather than
	// through the registry (mutex, label key, map) on every exchange.
	exchanges, retransmissions *telemetry.Counter

	// The exchange in flight: its two datagrams as encoded, and the two
	// messages decoded in place over them. With one exchange at a time
	// the exchanger can own all four and reuse them: the handler has
	// req for the duration of its call, the caller resp until the next
	// Exchange.
	reqWire, respWire []byte
	req, resp         Message
}

// Exchange implements Exchanger.
func (e *LinkExchanger) Exchange(req *Message) (*Message, error) {
	e.nextMID++
	req.MessageID = e.nextMID
	enc, err := req.AppendTo(e.reqWire[:0])
	if err != nil {
		return nil, err
	}
	e.reqWire = enc
	retries := e.MaxRetransmit
	if retries <= 0 {
		retries = 4
	}
	timeout := e.AckTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	if e.exchanges == nil {
		e.exchanges = e.Telemetry.Counter("upkit_coap_exchanges_total", "Confirmable CoAP exchanges attempted.")
	}
	e.exchanges.Inc()
	for attempt := 0; ; attempt++ {
		resp, err := e.once(enc)
		if err == nil {
			return resp, nil
		}
		if !errors.Is(err, transport.ErrLost) || attempt >= retries {
			return nil, err
		}
		if e.retransmissions == nil {
			e.retransmissions = e.Telemetry.Counter("upkit_coap_retransmissions_total", "CoAP retransmissions after lost frames (RFC 7252 §4.2).")
		}
		e.retransmissions.Inc()
		// Retransmission timeout with binary exponential backoff.
		if e.Link.Clock != nil {
			e.Link.Clock.Advance(timeout << uint(attempt))
		}
	}
}

// once performs a single attempt: enc, the encoded request, there and
// the encoded response back.
func (e *LinkExchanger) once(enc []byte) (*Message, error) {
	if _, err := e.Link.Transfer(len(enc)); err != nil {
		return nil, err
	}
	// The server re-parses the exact bytes the client produced.
	if err := e.req.decode(enc); err != nil {
		return nil, fmt.Errorf("coap: server parse: %w", err)
	}
	// Captured before the handler runs: a proxying handler forwards the
	// request upstream, which renumbers it for that leg.
	mid, tok := e.req.MessageID, e.req.Token
	resp := e.Handler(&e.req)
	if resp == nil {
		return nil, fmt.Errorf("coap: no response for %s %s", e.req.Code, e.req.Path())
	}
	resp.MessageID, resp.Token = mid, tok
	wire, err := resp.AppendTo(e.respWire[:0])
	if err != nil {
		return nil, err
	}
	e.respWire = wire
	if _, err := e.Link.Transfer(len(wire)); err != nil {
		return nil, err
	}
	if err := e.resp.decode(wire); err != nil {
		return nil, err
	}
	return &e.resp, nil
}

// UDPServer serves CoAP over a real UDP socket (used by
// cmd/upkit-server so host tools can exercise the same code path).
type UDPServer struct {
	conn    *net.UDPConn
	handler Handler
}

// ListenUDP binds addr (e.g. "127.0.0.1:5683") and serves handler until
// Close. Serving runs on the caller's goroutine via Serve.
func ListenUDP(addr string, handler Handler) (*UDPServer, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("coap: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("coap: listen %s: %w", addr, err)
	}
	return &UDPServer{conn: conn, handler: handler}, nil
}

// Addr returns the bound address.
func (s *UDPServer) Addr() net.Addr { return s.conn.LocalAddr() }

// Serve processes datagrams until the connection is closed.
func (s *UDPServer) Serve() error {
	buf := make([]byte, 64*1024)
	for {
		n, peer, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		req, err := Unmarshal(buf[:n])
		if err != nil {
			continue // silently drop malformed datagrams
		}
		// Capture the correlation fields before the handler runs: a
		// proxying handler may forward req through an upstream
		// exchanger, which rewrites req.MessageID for its own leg.
		mid, tok := req.MessageID, req.Token
		resp := s.handler(req)
		if resp == nil {
			continue
		}
		resp.MessageID = mid
		resp.Token = tok
		if resp.Type == Confirmable {
			resp.Type = Acknowledgement
		}
		enc, err := resp.Marshal()
		if err != nil {
			continue
		}
		if _, err := s.conn.WriteToUDP(enc, peer); err != nil {
			return err
		}
	}
}

// Close shuts the server down.
func (s *UDPServer) Close() error { return s.conn.Close() }

// UDPExchanger exchanges messages with a remote CoAP server over UDP
// with the RFC 7252 §4.2 retransmission schedule: the response timeout
// doubles on every retransmission and is widened by a random factor in
// [1, ACK_RANDOM_FACTOR) so a fleet of clients recovering from the same
// outage does not retransmit in lockstep.
type UDPExchanger struct {
	conn    *net.UDPConn
	nextMID uint16
	// recv receives every datagram: the exchanger runs one exchange at
	// a time (nextMID is unsynchronised), so one buffer serves them all.
	recv []byte
	// Timeout is the initial response timeout (ACK_TIMEOUT).
	Timeout time.Duration
	// Retries is the number of retransmissions after the first attempt
	// (MAX_RETRANSMIT).
	Retries int
	// Rand supplies the jitter source in [0,1); nil selects math/rand.
	Rand func() float64
}

// ackRandomFactor is RFC 7252 §4.8's ACK_RANDOM_FACTOR: each timeout is
// scaled by a uniform factor in [1, 1.5).
const ackRandomFactor = 1.5

// retryTimeout computes the response timeout for the given attempt:
// base << attempt, jittered by rand01 per ACK_RANDOM_FACTOR.
func retryTimeout(base time.Duration, attempt int, rand01 func() float64) time.Duration {
	if base <= 0 {
		base = 2 * time.Second
	}
	t := base << uint(attempt)
	if rand01 != nil {
		t += time.Duration(rand01() * (ackRandomFactor - 1) * float64(t))
	}
	return t
}

// DialUDP connects to a CoAP server at addr.
func DialUDP(addr string) (*UDPExchanger, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("coap: resolve %s: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, fmt.Errorf("coap: dial %s: %w", addr, err)
	}
	return &UDPExchanger{conn: conn, recv: make([]byte, 64*1024), Timeout: 2 * time.Second, Retries: 3}, nil
}

// Close releases the socket.
func (e *UDPExchanger) Close() error { return e.conn.Close() }

// Exchange implements Exchanger with retransmission.
func (e *UDPExchanger) Exchange(req *Message) (*Message, error) {
	e.nextMID++
	req.MessageID = e.nextMID
	enc, err := req.Marshal()
	if err != nil {
		return nil, err
	}
	rand01 := e.Rand
	if rand01 == nil {
		rand01 = rand.Float64
	}
	for attempt := 0; attempt <= e.Retries; attempt++ {
		if _, err := e.conn.Write(enc); err != nil {
			return nil, err
		}
		if err := e.conn.SetReadDeadline(time.Now().Add(retryTimeout(e.Timeout, attempt, rand01))); err != nil {
			return nil, err
		}
		// Drain datagrams until the matching response or the deadline.
		// Stale answers (responses to an earlier exchange on this
		// long-lived socket) must not count as this attempt's response —
		// and must not trigger a retransmission, which would generate yet
		// another response and leave the socket permanently one answer
		// behind.
		for {
			n, err := e.conn.Read(e.recv)
			if err != nil {
				var nerr net.Error
				if errors.As(err, &nerr) && nerr.Timeout() {
					break // retransmit
				}
				return nil, err
			}
			// Unmarshal copies: the response outlives the next Read
			// into recv.
			resp, err := Unmarshal(e.recv[:n])
			if err != nil || resp.MessageID != req.MessageID {
				continue // malformed or stale: keep reading
			}
			return resp, nil
		}
	}
	return nil, ErrTimeout
}
