// Package events provides a lightweight, typed event log for the
// update process: the observability layer a fleet operator needs to
// answer "what exactly happened on that device?". The agent, the
// bootloader, and the device emit events; the log keeps a bounded ring
// of them with virtual timestamps.
//
// The log is deliberately tiny — constrained devices export such logs
// over the management channel — and allocation-light: events are flat
// value structs.
package events

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind int

// Event kinds, in rough lifecycle order.
const (
	// KindTokenIssued: the agent issued a device token.
	KindTokenIssued Kind = iota + 1
	// KindManifestAccepted: agent-side verification passed.
	KindManifestAccepted
	// KindManifestRejected: agent-side verification failed (early
	// rejection — no firmware transfer happened).
	KindManifestRejected
	// KindFirmwareVerified: the received image passed the digest check.
	KindFirmwareVerified
	// KindFirmwareRejected: the received image failed verification.
	KindFirmwareRejected
	// KindUpdateStaged: a verified update awaits reboot.
	KindUpdateStaged
	// KindRebooted: the device power-cycled.
	KindRebooted
	// KindBootVerified: boot-side verification passed.
	KindBootVerified
	// KindInstalled: the bootloader moved a new image into place.
	KindInstalled
	// KindRolledBack: the bootloader fell back to a previous image.
	KindRolledBack
	// KindSwapResumed: an interrupted install swap was resumed.
	KindSwapResumed
	// KindBootFailed: no valid image could be booted.
	KindBootFailed
	// KindReceptionSuspended: an in-flight download was parked in the
	// reception journal for a later resume.
	KindReceptionSuspended
	// KindReceptionResumed: a journaled download was picked up again.
	KindReceptionResumed
	// KindSecVerAdvanced: the persisted anti-rollback counter moved
	// forward (before the staged image was marked complete).
	KindSecVerAdvanced
	// KindStagedRejected: the bootloader refused a staged (Complete but
	// never booted) image at its boot-time re-check — e.g. its signing
	// key was revoked, or its security version regressed — and kept the
	// previous image running.
	KindStagedRejected
	// KindKeysUpdated: the device applied a key bundle (new key records
	// and/or a revocation list).
	KindKeysUpdated
	// KindSourceFailover: a block source (peer, caching proxy) timed
	// out, refused, or served bytes the verifier rejected; the client
	// moved on to the next source in its list.
	KindSourceFailover
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTokenIssued:
		return "token-issued"
	case KindManifestAccepted:
		return "manifest-accepted"
	case KindManifestRejected:
		return "manifest-rejected"
	case KindFirmwareVerified:
		return "firmware-verified"
	case KindFirmwareRejected:
		return "firmware-rejected"
	case KindUpdateStaged:
		return "update-staged"
	case KindRebooted:
		return "rebooted"
	case KindBootVerified:
		return "boot-verified"
	case KindInstalled:
		return "installed"
	case KindRolledBack:
		return "rolled-back"
	case KindSwapResumed:
		return "swap-resumed"
	case KindBootFailed:
		return "boot-failed"
	case KindReceptionSuspended:
		return "reception-suspended"
	case KindReceptionResumed:
		return "reception-resumed"
	case KindSecVerAdvanced:
		return "secver-advanced"
	case KindStagedRejected:
		return "staged-rejected"
	case KindKeysUpdated:
		return "keys-updated"
	case KindSourceFailover:
		return "source-failover"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	// At is the virtual instant the event was recorded.
	At time.Duration
	// Kind classifies it.
	Kind Kind
	// Version is the firmware version involved, when applicable.
	Version uint16
	// Detail carries a short free-form annotation (e.g. the rejection
	// reason).
	Detail string
}

// String renders "[12.3s] manifest-rejected v2: nonce mismatch".
func (e Event) String() string {
	out := fmt.Sprintf("[%7.2fs] %s", e.At.Seconds(), e.Kind)
	if e.Version != 0 {
		out += fmt.Sprintf(" v%d", e.Version)
	}
	if e.Detail != "" {
		out += ": " + e.Detail
	}
	return out
}

// Clock abstracts the timestamp source (satisfied by simclock.Clock).
type Clock interface {
	Now() time.Duration
}

// DefaultCapacity is the ring size when none is given.
const DefaultCapacity = 64

// Log is a bounded ring of events. Safe for concurrent use. A nil *Log
// is valid and drops everything, so emitters never need nil checks.
type Log struct {
	mu    sync.Mutex
	clock Clock
	ring  []Event
	next  int
	count int
}

// NewLog creates a log of the given capacity (0 selects
// DefaultCapacity) stamped from clock (nil means zero timestamps).
func NewLog(clock Clock, capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{clock: clock, ring: make([]Event, capacity)}
}

// Emit records an event.
func (l *Log) Emit(kind Kind, version uint16, detail string) {
	if l == nil {
		return
	}
	var at time.Duration
	if l.clock != nil {
		at = l.clock.Now()
	}
	l.mu.Lock()
	l.ring[l.next] = Event{At: at, Kind: kind, Version: version, Detail: detail}
	l.next = (l.next + 1) % len(l.ring)
	if l.count < len(l.ring) {
		l.count++
	}
	l.mu.Unlock()
}

// Events returns the recorded events, oldest first.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.count)
	start := (l.next - l.count + len(l.ring)) % len(l.ring)
	for i := range l.count {
		out = append(out, l.ring[(start+i)%len(l.ring)])
	}
	return out
}

// Count reports how many events of kind are currently retained.
func (l *Log) Count(kind Kind) int {
	n := 0
	for _, e := range l.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// String renders the whole log, one event per line.
func (l *Log) String() string {
	events := l.Events()
	lines := make([]string, len(events))
	for i, e := range events {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}
