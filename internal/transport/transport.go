// Package transport models the radio links of the evaluation platforms.
// UpKit itself is transport-agnostic (§IV-B): the same agent FSM is
// driven by a BLE push interface or a CoAP pull interface, and both of
// those are built on the Link abstraction here, which charges virtual
// time and radio energy for every byte on the air.
package transport

import (
	"errors"
	"math/rand"
	"time"

	"upkit/internal/energy"
	"upkit/internal/simclock"
	"upkit/internal/telemetry"
)

// Link errors.
var (
	// ErrLinkDown is returned by transfers over a disabled link (used
	// by the experiments to model disconnections).
	ErrLinkDown = errors.New("transport: link down")
	// ErrLost is returned when the loss model drops a transfer; the
	// radio time is still charged (the frame was sent, just not
	// received), and the caller retransmits like a real CoAP CON.
	ErrLost = errors.New("transport: frame lost")
)

// Link is a half-duplex radio link with chunked timing: payloads are
// carried in chunks of ChunkSize bytes, each taking ChunkTime on the
// air, plus a fixed PerMessage latency for every message exchange.
type Link struct {
	// Name labels the link ("ble", "802.15.4").
	Name string
	// ChunkSize is the usable payload per radio chunk (e.g. the ATT
	// payload for BLE, the block size for CoAP).
	ChunkSize int
	// ChunkTime is the air + protocol time per chunk (e.g. one BLE
	// connection-event share, or one CoAP block round trip).
	ChunkTime time.Duration
	// PerMessage is the fixed cost per message exchange (request setup,
	// radio wake-up).
	PerMessage time.Duration

	// Clock receives transfer durations. May be nil (instant link).
	Clock *simclock.Clock
	// Meter receives radio-on energy charges. May be nil.
	Meter *energy.Meter

	// Down simulates a link failure: transfers return ErrLinkDown.
	Down bool

	// lossRand drives the packet-loss model; nil means a perfect link.
	lossRand *rand.Rand
	lossRate float64

	// Resolved telemetry handles; nil (the default) drops all samples.
	telTransfers *telemetry.Counter
	telBytes     *telemetry.Counter
	telLost      *telemetry.Counter
}

// SetTelemetry attaches a metrics registry: transfers, payload bytes
// and lost frames are counted, labeled with the link's name. Handles are
// resolved once here so Transfer stays on the atomic fast path. Air time
// is virtual and stays on the link's Clock and Meter, out of the
// host-time registry.
func (l *Link) SetTelemetry(reg *telemetry.Registry) {
	lbl := telemetry.L("link", l.Name)
	l.telTransfers = reg.Counter("upkit_link_transfers_total", "Radio transfers attempted per link.", lbl)
	l.telBytes = reg.Counter("upkit_link_bytes_total", "Payload bytes put on the air per link.", lbl)
	l.telLost = reg.Counter("upkit_link_lost_frames_total", "Transfers dropped by the loss model per link.", lbl)
}

// SetLoss enables a deterministic packet-loss model: each Transfer is
// dropped with probability rate, using seed for reproducibility. A
// dropped transfer still costs air time and energy but returns ErrLost.
func (l *Link) SetLoss(rate float64, seed int64) {
	if rate <= 0 {
		l.lossRand = nil
		l.lossRate = 0
		return
	}
	l.lossRate = rate
	l.lossRand = rand.New(rand.NewSource(seed))
}

// TransferTime computes how long sending n payload bytes takes, without
// advancing the clock.
func (l *Link) TransferTime(n int) time.Duration {
	if n <= 0 {
		return l.PerMessage
	}
	chunks := (n + l.ChunkSize - 1) / l.ChunkSize
	return l.PerMessage + time.Duration(chunks)*l.ChunkTime
}

// Transfer models sending n payload bytes: it advances the clock,
// charges radio energy, and returns the transfer duration.
func (l *Link) Transfer(n int) (time.Duration, error) {
	if l.Down {
		return 0, ErrLinkDown
	}
	d := l.TransferTime(n)
	if l.Clock != nil {
		l.Clock.Advance(d)
	}
	if l.Meter != nil {
		l.Meter.ChargeRadio(d)
	}
	l.telTransfers.Inc()
	if n > 0 {
		l.telBytes.Add(uint64(n))
	}
	if l.lossRand != nil && l.lossRand.Float64() < l.lossRate {
		l.telLost.Inc()
		return d, ErrLost
	}
	return d, nil
}

// BLE returns the push-approach link: a BLE 4.x GATT connection as seen
// from a smartphone — three 20-byte ATT write-without-response payloads
// per ~26 ms connection event, ≈2.3 kB/s on the air. Together with the
// flash work performed while receiving, this lands the paper's push
// propagation phase (Fig. 8a: 100 kB in ≈47.7 s).
func BLE(clock *simclock.Clock, meter *energy.Meter) *Link {
	return &Link{
		Name:       "ble",
		ChunkSize:  60, // 3 × 20-byte ATT payloads per connection event
		ChunkTime:  26 * time.Millisecond,
		PerMessage: 30 * time.Millisecond,
		Clock:      clock,
		Meter:      meter,
	}
}

// IEEE802154 returns the pull-approach link: one ~7 ms 802.15.4 frame
// slot per 64-byte chunk plus a 1 ms turnaround. A CoAP block exchange
// (one request frame + a two-frame response) then costs ≈23 ms, which
// — again including the on-the-fly flash work — lands the paper's pull
// propagation phase (Fig. 8a: 100 kB in ≈41.7 s).
func IEEE802154(clock *simclock.Clock, meter *energy.Meter) *Link {
	return &Link{
		Name:       "802.15.4",
		ChunkSize:  64,
		ChunkTime:  7 * time.Millisecond,
		PerMessage: time.Millisecond,
		Clock:      clock,
		Meter:      meter,
	}
}
