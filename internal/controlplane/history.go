package controlplane

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"upkit/internal/fleet"
	"upkit/internal/framelog"
)

// history is one campaign's per-device attempt record: an in-memory
// index answering GET .../devices/{id}, backed (when the manager is
// durable) by a framelog.Log so the history survives a process
// restart. Its records carry magic "UPCH" and one Attempt as JSON, in
// completion order; replay truncates a torn tail.
//
// Unlike the release store, appends are buffered: a campaign emits one
// record per device attempt and an fsync per record would gate the
// scheduler on the disk. The log is synced at every lifecycle edge that
// persists a checkpoint (pause, abort, completion, close), and a failed
// sync fails the campaign instead of persisting a checkpoint that
// claims records the log may not hold — so the durable history is
// always at least as complete as the checkpoint that references it.
type history struct {
	mu sync.Mutex
	// byDev is the replayable index; nil when history is disabled for
	// the fleet size.
	byDev map[uint32][]Attempt
	log   *framelog.Log // nil when memory-only or disabled
}

// Attempt is one terminal device outcome within a campaign run.
type Attempt struct {
	Device uint32 `json:"device"`
	// Status is the outcome: "updated", "failed", or "skipped".
	Status string `json:"status"`
	// Version is the device's version after the attempt.
	Version uint16 `json:"version"`
	// Attempts is how many tries the device consumed this run.
	Attempts int `json:"attempts"`
	// Error is the last error for failed devices.
	Error string `json:"error,omitempty"`
	// Unix is the completion time (seconds).
	Unix int64 `json:"unix"`
}

const histRecMagic uint32 = 0x55504348 // "UPCH"

// syncLog makes a history log durable; tests swap it to inject a
// failure.
var syncLog = (*framelog.Log).Sync

// openHistory opens (or creates) a campaign's history. path=="" keeps
// it memory-only; enabled==false disables it entirely (fleets past the
// manager's history bound).
func openHistory(path string, enabled bool) (*history, error) {
	h := &history{}
	if !enabled {
		return h, nil
	}
	h.byDev = make(map[uint32][]Attempt)
	if path == "" {
		return h, nil
	}
	log, _, err := framelog.Open(path, histRecMagic, func(p []byte, _ framelog.Frame) bool {
		var a Attempt
		if json.Unmarshal(p, &a) != nil {
			return false
		}
		h.byDev[a.Device] = append(h.byDev[a.Device], a)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("controlplane: history log: %w", err)
	}
	h.log = log
	return h, nil
}

// record is the fleet.Policy.OnResult hook: index the outcome and
// stage its log record. Called concurrently from campaign workers.
func (h *history) record(res fleet.Result) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.byDev == nil {
		return
	}
	a := Attempt{
		Device:   res.DeviceID,
		Status:   res.Status.String(),
		Version:  res.Version,
		Attempts: res.Attempts,
		Unix:     time.Now().Unix(),
	}
	if res.Err != nil {
		a.Error = res.Err.Error()
	}
	h.byDev[a.Device] = append(h.byDev[a.Device], a)
	if h.log == nil {
		return
	}
	if p, err := json.Marshal(a); err == nil {
		h.log.Buffer(p)
	}
}

// sync makes the history durable up to every recorded attempt; called
// at the lifecycle edges that persist a checkpoint.
func (h *history) sync() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.log == nil {
		return nil
	}
	return syncLog(h.log)
}

// device reports one device's attempts, oldest first.
func (h *history) device(dev uint32) ([]Attempt, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.byDev == nil {
		return nil, ErrHistoryDisabled
	}
	list := h.byDev[dev]
	out := make([]Attempt, len(list))
	copy(out, list)
	return out, nil
}

// close syncs and releases the log handle.
func (h *history) close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.log == nil {
		return nil
	}
	err := h.log.Close()
	h.log = nil
	return err
}
