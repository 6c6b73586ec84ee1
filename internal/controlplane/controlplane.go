// Package controlplane turns fleet campaigns into server-managed HTTP
// resources: an operator creates a campaign from a device census and a
// rollout policy, watches live per-stage progress, pauses, resumes,
// and aborts it — all over /api/v1/campaigns — and can pull any
// device's attempt history afterwards.
//
// The package wraps internal/fleet, which owns the hard scheduling
// problems (sharded lanes, exact cursors, breaker); the control plane
// adds what an operator-facing service needs on top:
//
//   - Lifecycle state that survives the process. Every transition
//     writes a small meta JSON (atomic tmp+rename) carrying the
//     campaign's definition and its latest fleet.Checkpoint, so a
//     restarted server lists the same campaigns and resumes a paused
//     one with exactly-once re-dispatch — the checkpoint's shard
//     cursors are exact completed prefixes, and the deterministic
//     census rebuilds an identical fleet to apply them to.
//   - Per-device attempt history in a framelog.Log, the release
//     store's append-only log: a crash tears at most the final record,
//     and a torn tail fails its CRC instead of corrupting replay.
//   - A census registry. A census names a device source ("sim" is
//     built in, backed by internal/simdev) plus its parameters; the
//     source must be deterministic so resume-after-restart sees the
//     same fleet.
package controlplane

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"upkit/internal/fleet"
	"upkit/internal/framelog"
	"upkit/internal/simdev"
)

// Campaign lifecycle states.
const (
	// StatePending: created but never run (CreateRequest.Paused).
	StatePending = "pending"
	// StateRunning: a run is in flight.
	StateRunning = "running"
	// StatePaused: halted by pause; checkpoint persisted, resumable.
	StatePaused = "paused"
	// StateInterrupted: the process died mid-run; the campaign resumes
	// from its last persisted checkpoint (possibly from scratch).
	StateInterrupted = "interrupted"
	// StateAborted: halted by a stage gate, the breaker, or an abort
	// request; checkpoint persisted, resumable.
	StateAborted = "aborted"
	// StateCompleted: every device reached a terminal outcome.
	StateCompleted = "completed"
	// StateFailed: the run returned an unexpected error.
	StateFailed = "failed"
)

// Control-plane errors.
var (
	ErrNotFound        = errors.New("controlplane: no such campaign")
	ErrManagerClosed   = errors.New("controlplane: manager is closed")
	ErrNotResumable    = errors.New("controlplane: campaign is not resumable")
	ErrNotPausable     = errors.New("controlplane: campaign is not running")
	ErrHistoryDisabled = errors.New("controlplane: per-device history disabled for this fleet size")
)

// Config sizes a Manager.
type Config struct {
	// Dir is the persistence root; one meta JSON and one history log
	// per campaign. Empty disables durability: campaigns live only as
	// long as the process.
	Dir string
	// MaxDevices bounds a single campaign's census; default 2,000,000.
	MaxDevices int
	// MaxHistoryDevices bounds per-device history: fleets larger than
	// this run without attempt history (the history index is O(fleet)).
	// Default 100,000.
	MaxHistoryDevices int
}

func (c *Config) applyDefaults() {
	if c.MaxDevices <= 0 {
		c.MaxDevices = 2_000_000
	}
	if c.MaxHistoryDevices <= 0 {
		c.MaxHistoryDevices = 100_000
	}
}

// Census names the device population a campaign rolls over: a source
// plus its parameters. The source must be deterministic in its
// parameters — resume-after-restart rebuilds the fleet from the census
// and applies the checkpoint's cursors to it.
type Census struct {
	// Source names the census source; "sim" is the only one.
	Source string `json:"source"`
	// Devices is the fleet size.
	Devices int `json:"devices"`
	// FailRate, for "sim", is the fraction of devices that fail every
	// attempt (spread deterministically).
	FailRate float64 `json:"fail_rate,omitempty"`
	// SimLatencyNS, for "sim", is the simulated per-attempt service
	// time in nanoseconds.
	SimLatencyNS int64 `json:"sim_latency_ns,omitempty"`
}

// CreateRequest is the body of POST /api/v1/campaigns.
type CreateRequest struct {
	// Name is a free-form operator label.
	Name string `json:"name,omitempty"`
	// Target is the firmware version the campaign rolls the fleet to.
	Target uint16 `json:"target"`
	Census Census `json:"census"`
	// Policy is the rollout policy (stages, breaker, retries — see
	// fleet.Policy's JSON form). The zero policy is one full-fleet wave.
	Policy fleet.Policy `json:"policy"`
	// Paused creates the campaign without starting it.
	Paused bool `json:"paused,omitempty"`
}

// Status is a campaign's externally visible state — the body of
// GET /api/v1/campaigns/{id} and the elements of the list response.
type Status struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	Target      uint16 `json:"target"`
	State       string `json:"state"`
	AbortReason string `json:"abort_reason,omitempty"`
	Census      Census `json:"census"`
	CreatedUnix int64  `json:"created_unix"`
	UpdatedUnix int64  `json:"updated_unix"`
	// Progress is the live per-stage snapshot while running, the
	// checkpointed one otherwise.
	Progress fleet.Progress `json:"progress"`
}

// meta is the persisted half of a campaign: everything needed to list
// it, resume it, and rebuild its fleet after a restart.
type meta struct {
	ID          string            `json:"id"`
	Name        string            `json:"name,omitempty"`
	Target      uint16            `json:"target"`
	Census      Census            `json:"census"`
	Policy      fleet.Policy      `json:"policy"`
	State       string            `json:"state"`
	AbortReason string            `json:"abort_reason,omitempty"`
	CreatedUnix int64             `json:"created_unix"`
	UpdatedUnix int64             `json:"updated_unix"`
	Checkpoint  *fleet.Checkpoint `json:"checkpoint,omitempty"`
}

// campaign is one managed campaign: persisted meta plus the in-flight
// run machinery.
type campaign struct {
	m *Manager

	mu   sync.Mutex
	meta meta
	// fc is the fleet campaign of the most recent run; nil before the
	// first run of this process lifetime.
	fc      *fleet.Campaign
	hist    *history
	running bool
	cancel  context.CancelFunc
	done    chan struct{}
}

// Manager owns the campaign set: creation, lifecycle transitions,
// persistence, and the census source registry.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	camps  map[string]*campaign
	seq    int
	closed bool
}

// NewManager opens a manager rooted at cfg.Dir (creating it if
// needed), reloading every persisted campaign. Campaigns that were
// running when the process died come back as StateInterrupted,
// resumable from their last persisted checkpoint.
func NewManager(cfg Config) (*Manager, error) {
	cfg.applyDefaults()
	m := &Manager{
		cfg:   cfg,
		camps: make(map[string]*campaign),
	}
	if cfg.Dir == "" {
		return m, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("controlplane: state dir: %w", err)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("controlplane: state dir: %w", err)
	}
	for _, e := range entries {
		id, ok := idFromMetaName(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		if err := m.loadCampaign(id); err != nil {
			return nil, fmt.Errorf("controlplane: load %s: %w", id, err)
		}
	}
	return m, nil
}

// simSource is the synthetic census, the only source.
const simSource = "sim"

// metaName renders a campaign's meta file name.
func metaName(id string) string { return id + ".json" }

// histName renders a campaign's history log file name.
func histName(id string) string { return id + ".hist" }

// idFromMetaName parses the campaign ID out of a meta file name.
func idFromMetaName(name string) (string, bool) {
	id, ok := strings.CutSuffix(name, ".json")
	if !ok || !strings.HasPrefix(id, "c-") {
		return "", false
	}
	return id, true
}

// loadCampaign reloads one persisted campaign into the manager.
func (m *Manager) loadCampaign(id string) error {
	blob, err := os.ReadFile(filepath.Join(m.cfg.Dir, metaName(id)))
	if err != nil {
		return err
	}
	var mt meta
	if err := json.Unmarshal(blob, &mt); err != nil {
		return fmt.Errorf("parse meta: %w", err)
	}
	if mt.ID != id {
		return fmt.Errorf("meta names %q", mt.ID)
	}
	if mt.State == StateRunning {
		// The process died mid-run: the last persisted checkpoint (from
		// the preceding pause, or none) is all that survives.
		mt.State = StateInterrupted
	}
	c := &campaign{m: m, meta: mt}
	var err2 error
	c.hist, err2 = openHistory(m.histPath(id), m.historyEnabled(mt.Census))
	if err2 != nil {
		return err2
	}
	if n := seqFromID(id); n > m.seq {
		m.seq = n
	}
	m.camps[id] = c
	return nil
}

// seqFromID extracts the numeric suffix of a campaign ID, 0 if none.
func seqFromID(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "c-"))
	if err != nil {
		return 0
	}
	return n
}

// histPath is the campaign's history log path, "" when memory-only.
func (m *Manager) histPath(id string) string {
	if m.cfg.Dir == "" {
		return ""
	}
	return filepath.Join(m.cfg.Dir, histName(id))
}

// historyEnabled reports whether a census's fleet is small enough for
// per-device attempt history.
func (m *Manager) historyEnabled(c Census) bool {
	return c.Devices <= m.cfg.MaxHistoryDevices
}

// Create registers a new campaign and, unless req.Paused, starts it.
func (m *Manager) Create(req CreateRequest) (*Status, error) {
	if req.Census.Devices <= 0 {
		return nil, fmt.Errorf("controlplane: census must name a positive device count")
	}
	if req.Census.Devices > m.cfg.MaxDevices {
		return nil, fmt.Errorf("controlplane: census of %d devices exceeds the %d-device bound",
			req.Census.Devices, m.cfg.MaxDevices)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	if req.Census.Source != simSource {
		m.mu.Unlock()
		return nil, fmt.Errorf("controlplane: unknown census source %q", req.Census.Source)
	}
	m.seq++
	id := fmt.Sprintf("c-%06d", m.seq)
	m.mu.Unlock()

	now := time.Now().Unix()
	c := &campaign{m: m, meta: meta{
		ID:          id,
		Name:        req.Name,
		Target:      req.Target,
		Census:      req.Census,
		Policy:      req.Policy,
		State:       StatePending,
		CreatedUnix: now,
		UpdatedUnix: now,
	}}
	var err error
	c.hist, err = openHistory(m.histPath(id), m.historyEnabled(req.Census))
	if err != nil {
		return nil, err
	}
	// Validate the definition by building the campaign once before it
	// becomes visible: a census or policy the fleet rejects must fail
	// the create, not leave a stillborn resource behind. (The reserved
	// ID is burnt on failure, which only costs a gap in the sequence.)
	if _, err := c.buildFleet(nil); err != nil {
		c.hist.close()
		if c.m.cfg.Dir != "" {
			os.Remove(m.histPath(id))
		}
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		c.hist.close()
		return nil, ErrManagerClosed
	}
	m.camps[id] = c
	m.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.persistLocked(); err != nil {
		return nil, err
	}
	if !req.Paused {
		if err := c.startLocked(); err != nil {
			return nil, err
		}
	}
	return c.statusLocked(), nil
}

// buildFleet turns a campaign definition into a runnable
// fleet.Campaign, wiring the history hook and restoring cp if given.
func (c *campaign) buildFleet(cp *fleet.Checkpoint) (*fleet.Campaign, error) {
	cen := c.meta.Census
	ups := simdev.Build(cen.Devices, cen.FailRate, time.Duration(cen.SimLatencyNS))
	pol := c.meta.Policy
	// Per-device records would be O(fleet) in the report; the control
	// plane streams them into the history log instead.
	pol.MaxResults = -1
	pol.OnResult = c.hist.record
	fc, err := fleet.New(c.meta.Target, pol, ups)
	if err != nil {
		return nil, err
	}
	if cp != nil {
		if err := fc.Restore(cp); err != nil {
			return nil, err
		}
	}
	return fc, nil
}

// get looks a campaign up.
func (m *Manager) get(id string) (*campaign, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.camps[id]
	if !ok {
		return nil, ErrNotFound
	}
	return c, nil
}

// Get reports one campaign's status.
func (m *Manager) Get(id string) (*Status, error) {
	c, err := m.get(id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked(), nil
}

// List reports every campaign, oldest first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	camps := make([]*campaign, 0, len(m.camps))
	for _, c := range m.camps {
		camps = append(camps, c)
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(camps))
	for _, c := range camps {
		c.mu.Lock()
		out = append(out, *c.statusLocked())
		c.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Pause halts a running campaign: dispatch stops, devices already in
// flight finish their current attempt, everything unattempted stays
// pending. Pause waits for the run to drain and persists the resume
// checkpoint before returning — a success from pause means the
// checkpoint is durable.
func (m *Manager) Pause(id string) (*Status, error) {
	c, err := m.get(id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if !c.running || c.fc == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w (state %s)", ErrNotPausable, c.meta.State)
	}
	fc, done := c.fc, c.done
	c.mu.Unlock()
	if err := fc.Pause(); err != nil && !errors.Is(err, fleet.ErrNotRunning) {
		return nil, err
	}
	<-done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked(), nil
}

// Abort cancels a running campaign: unattempted devices are marked
// skipped and the persisted checkpoint re-schedules them on resume.
func (m *Manager) Abort(id string) (*Status, error) {
	c, err := m.get(id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if !c.running || c.cancel == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w (state %s)", ErrNotPausable, c.meta.State)
	}
	cancel, done := c.cancel, c.done
	c.mu.Unlock()
	cancel()
	<-done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked(), nil
}

// Resume restarts a paused, interrupted, aborted, or pending campaign
// from its persisted checkpoint. The census rebuilds the fleet and the
// checkpoint's exact shard cursors guarantee completed devices are not
// re-dispatched.
func (m *Manager) Resume(id string) (*Status, error) {
	c, err := m.get(id)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	m.mu.Unlock()
	if c.meta.Census.Source != simSource {
		return nil, fmt.Errorf("controlplane: unknown census source %q", c.meta.Census.Source)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.meta.State {
	case StatePending, StatePaused, StateInterrupted, StateAborted:
	default:
		return nil, fmt.Errorf("%w (state %s)", ErrNotResumable, c.meta.State)
	}
	if c.running {
		return nil, fleet.ErrAlreadyRunning
	}
	if err := c.startLocked(); err != nil {
		return nil, err
	}
	return c.statusLocked(), nil
}

// DeviceHistory reports every recorded attempt outcome for one device
// of one campaign, oldest first.
func (m *Manager) DeviceHistory(id string, device uint32) ([]Attempt, error) {
	c, err := m.get(id)
	if err != nil {
		return nil, err
	}
	return c.hist.device(device)
}

// Close aborts in-flight runs, waits for them to persist their
// checkpoints, and closes every history log. Campaigns persist; a new
// manager over the same directory serves them again.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	camps := make([]*campaign, 0, len(m.camps))
	for _, c := range m.camps {
		camps = append(camps, c)
	}
	m.mu.Unlock()
	var first error
	for _, c := range camps {
		c.mu.Lock()
		cancel, done := c.cancel, c.done
		running := c.running
		c.mu.Unlock()
		if running && cancel != nil {
			cancel()
			<-done
		}
		c.mu.Lock()
		if err := c.hist.close(); err != nil && first == nil {
			first = err
		}
		c.mu.Unlock()
	}
	return first
}

// startLocked launches a run; c.mu must be held.
func (c *campaign) startLocked() error {
	fc, err := c.buildFleet(c.meta.Checkpoint)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	c.fc, c.cancel, c.done = fc, cancel, done
	c.running = true
	c.meta.State = StateRunning
	c.meta.AbortReason = ""
	if err := c.persistLocked(); err != nil {
		cancel()
		c.running = false
		return err
	}
	go c.run(ctx, fc, done)
	return nil
}

// run drives one campaign run to its end state and persists the
// outcome. It owns the transition out of StateRunning.
func (c *campaign) run(ctx context.Context, fc *fleet.Campaign, done chan struct{}) {
	defer close(done)
	report, err := fc.RunContext(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.running = false
	c.cancel = nil
	c.meta.Checkpoint = fc.Checkpoint()
	switch {
	case err == nil:
		c.meta.State = StateCompleted
	case errors.Is(err, fleet.ErrCampaignPaused):
		c.meta.State = StatePaused
	case errors.Is(err, fleet.ErrCampaignAborted), errors.Is(err, context.Canceled):
		c.meta.State = StateAborted
		if report != nil {
			c.meta.AbortReason = report.AbortReason
		}
	default:
		c.meta.State = StateFailed
		c.meta.AbortReason = err.Error()
	}
	// History first: the meta's state must never claim more than the
	// durable log holds.
	if err := c.hist.sync(); err != nil {
		c.meta.State = StateFailed
		c.meta.AbortReason = "history: " + err.Error()
	}
	if err := c.persistLocked(); err != nil {
		c.meta.State = StateFailed
		c.meta.AbortReason = "persist: " + err.Error()
	}
}

// statusLocked renders the campaign's Status; c.mu must be held.
func (c *campaign) statusLocked() *Status {
	st := &Status{
		ID:          c.meta.ID,
		Name:        c.meta.Name,
		Target:      c.meta.Target,
		State:       c.meta.State,
		AbortReason: c.meta.AbortReason,
		Census:      c.meta.Census,
		CreatedUnix: c.meta.CreatedUnix,
		UpdatedUnix: c.meta.UpdatedUnix,
	}
	switch {
	case c.fc != nil:
		st.Progress = c.fc.Progress()
	case c.meta.Checkpoint != nil:
		st.Progress = progressFromCheckpoint(c.meta.Target, c.meta.Checkpoint)
	default:
		st.Progress = fleet.Progress{
			Target:  c.meta.Target,
			Devices: c.meta.Census.Devices,
			Pending: c.meta.Census.Devices,
		}
	}
	return st
}

// progressFromCheckpoint derives a Progress for a campaign whose fleet
// is not materialized this process lifetime (loaded from disk, never
// resumed).
func progressFromCheckpoint(target uint16, cp *fleet.Checkpoint) fleet.Progress {
	return fleet.Progress{
		Target:  target,
		Devices: cp.Devices,
		Updated: cp.Updated,
		Failed:  cp.Failed,
		Pending: cp.Devices - cp.Updated - cp.Failed,
		Stage:   cp.Stage,
	}
}

// persistLocked writes the campaign's meta JSON atomically
// (framelog.WriteFile); c.mu must be held. Memory-only managers skip
// the disk.
func (c *campaign) persistLocked() error {
	c.meta.UpdatedUnix = time.Now().Unix()
	if c.m.cfg.Dir == "" {
		return nil
	}
	blob, err := json.MarshalIndent(&c.meta, "", "  ")
	if err != nil {
		return err
	}
	return framelog.WriteFile(filepath.Join(c.m.cfg.Dir, metaName(c.meta.ID)), blob)
}
