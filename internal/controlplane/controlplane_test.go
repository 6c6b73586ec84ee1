package controlplane

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"upkit/internal/fleet"
	"upkit/internal/framelog"
	"upkit/internal/httpapi"
	"upkit/internal/simdev"
)

// serve mounts a manager on a fresh table behind a test server.
func serve(t *testing.T, m *Manager) (*httptest.Server, *Client) {
	t.Helper()
	table := httpapi.NewTable()
	m.Register(table)
	ts := httptest.NewServer(table)
	t.Cleanup(ts.Close)
	return ts, &Client{Base: ts.URL, HTTP: ts.Client()}
}

// simCreate is the request used across tests: a staged rollout over a
// deterministic sim fleet, slow enough per attempt that a pause lands
// mid-run.
func simCreate(devices int, latency time.Duration) CreateRequest {
	return CreateRequest{
		Name:   "test rollout",
		Target: 2,
		Census: Census{
			Source:       "sim",
			Devices:      devices,
			FailRate:     0.02,
			SimLatencyNS: int64(latency),
		},
		Policy: fleet.Policy{
			Stages:               []float64{0.1, 0.5, 1},
			MaxCanaryFailureRate: 0.1,
			Parallelism:          8,
		},
	}
}

// expectFailures counts the deterministic failing population of a sim
// census.
func expectFailures(devices int, rate float64) int {
	n := 0
	for i := range devices {
		if simdev.Fails(i, rate) {
			n++
		}
	}
	return n
}

// TestLifecycleOverHTTP drives the full operator flow through the API:
// create → poll live progress → pause → kill the server process state
// → restart over the same directory → resume → complete. The final
// counts must equal an uninterrupted run's, and the device history
// must show exactly one terminal attempt per device — the
// exactly-once re-dispatch guarantee, observed across a real restart.
func TestLifecycleOverHTTP(t *testing.T) {
	const devices = 400
	dir := t.TempDir()

	// Baseline: the same campaign uninterrupted, memory-only.
	base, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	_, cb := serve(t, base)
	req := simCreate(devices, 0)
	bst, err := cb.Create(req)
	if err != nil {
		t.Fatal(err)
	}
	bst, err = waitTerminal(cb, bst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bst.State != StateCompleted {
		t.Fatalf("baseline state = %s (%s)", bst.State, bst.AbortReason)
	}
	wantFailed := expectFailures(devices, req.Census.FailRate)
	if bst.Progress.Failed != wantFailed || bst.Progress.Updated != devices-wantFailed {
		t.Fatalf("baseline counts = %+v, want %d updated / %d failed",
			bst.Progress, devices-wantFailed, wantFailed)
	}

	// The real run: durable manager, per-attempt latency so the pause
	// lands mid-campaign.
	m1, err := NewManager(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1, c1 := serve(t, m1)
	req = simCreate(devices, 2*time.Millisecond)
	st, err := c1.Create(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning {
		t.Fatalf("created state = %s, want running", st.State)
	}
	id := st.ID

	// Live progress: poll until some devices completed.
	deadline := time.After(30 * time.Second)
	for {
		st, err = c1.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Progress.Updated+st.Progress.Failed >= 20 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("campaign never progressed: %+v", st.Progress)
		case <-time.After(time.Millisecond):
		}
	}
	if !st.Progress.Running || st.Progress.ElapsedSeconds <= 0 {
		t.Fatalf("live progress not running: %+v", st.Progress)
	}

	st, err = c1.Pause(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State == StateRunning {
		t.Fatalf("state after pause = %s", st.State)
	}
	pausedDone := st.Progress.Updated + st.Progress.Failed
	if st.State == StatePaused {
		if st.Progress.Pending == 0 {
			t.Fatalf("pause drained the whole fleet: %+v", st.Progress)
		}
		if st.Progress.Skipped != 0 {
			t.Fatalf("pause skipped %d devices; they must stay pending", st.Progress.Skipped)
		}
	}

	// Kill the process state: close the server and the manager. The
	// meta JSON + checkpoint + history log on disk are all that's left.
	ts1.Close()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, metaName(id))); err != nil {
		t.Fatalf("meta not persisted: %v", err)
	}

	// Restart over the same directory.
	m2, err := NewManager(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	_, c2 := serve(t, m2)
	list, err := c2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != id {
		t.Fatalf("restarted list = %+v", list)
	}
	st, err = c2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePaused && st.State != StateCompleted {
		t.Fatalf("restarted state = %s", st.State)
	}
	if got := st.Progress.Updated + st.Progress.Failed; got != pausedDone {
		t.Fatalf("restart lost progress: %d done, want %d", got, pausedDone)
	}

	if st.State == StatePaused {
		if _, err = c2.Resume(id); err != nil {
			t.Fatal(err)
		}
	}
	st, err = waitTerminal(c2, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCompleted {
		t.Fatalf("final state = %s (%s)", st.State, st.AbortReason)
	}
	if st.Progress.Updated != bst.Progress.Updated || st.Progress.Failed != bst.Progress.Failed ||
		st.Progress.Pending != 0 {
		t.Fatalf("final counts %+v differ from uninterrupted run %+v", st.Progress, bst.Progress)
	}

	// Exactly-once re-dispatch: every device has exactly one terminal
	// attempt record across both runs, served from the replayed log.
	for i := range devices {
		dev := uint32(simdev.IDBase + i)
		hist, err := c2.DeviceHistory(id, dev)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != 1 {
			t.Fatalf("device %#x has %d attempt records, want 1: %+v", dev, len(hist), hist)
		}
		wantStatus := "updated"
		if simdev.Fails(i, req.Census.FailRate) {
			wantStatus = "failed"
		}
		if hist[0].Status != wantStatus {
			t.Fatalf("device %#x status = %s, want %s", dev, hist[0].Status, wantStatus)
		}
	}
}

func TestCreateRejectsBadDefinitions(t *testing.T) {
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, c := serve(t, m)

	cases := []CreateRequest{
		{Target: 2, Census: Census{Source: "warehouse-42", Devices: 10}},
		{Target: 2, Census: Census{Source: "sim", Devices: 0}},
		{Target: 2, Census: Census{Source: "sim", Devices: 10},
			Policy: fleet.Policy{Stages: []float64{0.5, 0.2}}},
	}
	for i, req := range cases {
		if _, err := c.Create(req); err == nil {
			t.Fatalf("case %d: create accepted a bad definition", i)
		}
	}
	if list, _ := c.List(); len(list) != 0 {
		t.Fatalf("failed creates left campaigns behind: %+v", list)
	}
}

func TestResumeRejectsUnknownPersistedSource(t *testing.T) {
	// The meta file is outside input too: a persisted campaign whose
	// census names an unknown source must fail Resume cleanly, leaving
	// the campaign where it was and dispatching no device.
	dir := t.TempDir()
	m1, err := NewManager(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Create(CreateRequest{Target: 2, Census: Census{Source: "sim", Devices: 10}, Paused: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, metaName(st.ID))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var mt meta
	if err := json.Unmarshal(blob, &mt); err != nil {
		t.Fatal(err)
	}
	mt.Census.Source = "warehouse-42"
	if blob, err = json.Marshal(mt); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Resume(st.ID); err == nil {
		t.Fatal("Resume accepted an unknown census source")
	}
	got, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StatePending || got.Progress.Updated+got.Progress.Failed != 0 {
		t.Fatalf("after refused resume: state %s, progress %+v", got.State, got.Progress)
	}
	hist, err := m2.DeviceHistory(st.ID, simdev.IDBase)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 0 {
		t.Fatalf("refused resume dispatched a device: %+v", hist)
	}
}

func TestLifecycleConflicts(t *testing.T) {
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, c := serve(t, m)

	if _, err := c.Get("c-999999"); err == nil {
		t.Fatal("get of unknown campaign succeeded")
	}
	req := simCreate(50, 0)
	req.Census.FailRate = 0 // a 5-device canary can't absorb any failure
	st, err := c.Create(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = waitTerminal(c, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCompleted {
		t.Fatalf("state = %s", st.State)
	}
	if _, err := c.Pause(st.ID); err == nil {
		t.Fatal("pause of a completed campaign succeeded")
	}
	if _, err := c.Resume(st.ID); err == nil {
		t.Fatal("resume of a completed campaign succeeded")
	}
}

func TestPendingCreateAndAbort(t *testing.T) {
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, c := serve(t, m)

	req := simCreate(200, 2*time.Millisecond)
	req.Paused = true
	st, err := c.Create(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePending || st.Progress.Pending != 200 {
		t.Fatalf("paused create = %+v", st)
	}
	if st, err = c.Resume(st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning {
		t.Fatalf("state after resume = %s", st.State)
	}
	if st, err = c.Abort(st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != StateAborted && st.State != StateCompleted {
		t.Fatalf("state after abort = %s", st.State)
	}
	if st.State == StateAborted {
		// Aborted campaigns resume from their checkpoint too.
		if _, err := c.Resume(st.ID); err != nil {
			t.Fatal(err)
		}
		if st, err = waitTerminal(c, st.ID); err != nil {
			t.Fatal(err)
		}
		if st.State != StateCompleted || st.Progress.Pending != 0 {
			t.Fatalf("resumed-after-abort = %+v", st)
		}
	}
}

func TestHistoryDisabledPastBound(t *testing.T) {
	m, err := NewManager(Config{MaxHistoryDevices: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, c := serve(t, m)
	st, err := c.Create(simCreate(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = waitTerminal(c, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeviceHistory(st.ID, simdev.IDBase); err == nil {
		t.Fatal("history served past the device bound")
	}
	if _, err := m.DeviceHistory(st.ID, simdev.IDBase); !errors.Is(err, ErrHistoryDisabled) {
		t.Fatalf("err = %v, want ErrHistoryDisabled", err)
	}
}

func TestHistoryTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c-000001.hist")
	h, err := openHistory(path, true)
	if err != nil {
		t.Fatal(err)
	}
	h.record(fleet.Result{DeviceID: 1, Status: fleet.StatusUpdated, Version: 2, Attempts: 1})
	h.record(fleet.Result{DeviceID: 2, Status: fleet.StatusFailed, Version: 1, Attempts: 3,
		Err: errors.New("boom")})
	if err := h.close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a crash mid-append leaves a partial record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0x50, 0x43, 0x48, 0x00, 0x00, 0x00, 0x30, 'p', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	h2, err := openHistory(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.close()
	got, err := h2.device(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Status != "failed" || got[0].Error != "boom" || got[0].Attempts != 3 {
		t.Fatalf("replayed attempt = %+v", got)
	}
	if one, _ := h2.device(1); len(one) != 1 || one[0].Status != "updated" {
		t.Fatalf("replayed device 1 = %+v", one)
	}
	// The torn tail is gone: appends after replay stay parseable.
	h2.record(fleet.Result{DeviceID: 3, Status: fleet.StatusUpdated, Version: 2, Attempts: 1})
	h2.sync()
	h3, err := openHistory(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer h3.close()
	if three, _ := h3.device(3); len(three) != 1 {
		t.Fatalf("post-truncate append lost: %+v", three)
	}
}

// TestHistorySyncFailureFailsCampaign: when the history cannot be made
// durable at the end of a run, the campaign fails with the reason
// rather than persisting a checkpoint that claims records the log may
// not hold.
func TestHistorySyncFailureFailsCampaign(t *testing.T) {
	injected := errors.New("injected sync failure")
	syncLog = func(*framelog.Log) error { return injected }
	t.Cleanup(func() { syncLog = (*framelog.Log).Sync })
	dir := t.TempDir()
	m, err := NewManager(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Create(simCreate(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.State == StateRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		if st, err = m.Get(st.ID); err != nil {
			t.Fatal(err)
		}
	}
	want := "history: " + injected.Error()
	if st.State != StateFailed || st.AbortReason != want {
		t.Fatalf("state %s (%q), want %s (%q)", st.State, st.AbortReason, StateFailed, want)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewManager(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st, err := re.Get(st.ID); err != nil || st.State != StateFailed || st.AbortReason != want {
		t.Fatalf("after restart: %+v, %v", st, err)
	}
}

// TestLegacyHistoryReplays replays a history log written by the
// implementation before it moved onto framelog, ending in a torn tail.
func TestLegacyHistoryReplays(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "c-000001.hist"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c-000001.hist")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := openHistory(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	one, _ := h.device(1)
	if len(one) != 2 || one[0].Status != "failed" || one[0].Error != "link lost" || one[0].Attempts != 2 ||
		one[1].Status != "updated" || one[1].Version != 2 {
		t.Fatalf("device 1 = %+v", one)
	}
	if two, _ := h.device(2); len(two) != 1 || two[0].Status != "updated" {
		t.Fatalf("device 2 = %+v", two)
	}
	if three, _ := h.device(3); len(three) != 0 {
		t.Fatalf("the torn record replayed: %+v", three)
	}
	if fi, _ := os.Stat(path); fi.Size() >= int64(len(data)) {
		t.Fatalf("torn tail not truncated: %d of %d bytes", fi.Size(), len(data))
	}
}

// waitTerminal polls c until the campaign leaves StateRunning and
// returns its final status.
func waitTerminal(c *Client, id string) (*Status, error) {
	for {
		st, err := c.Get(id)
		if err != nil || st.State != StateRunning {
			return st, err
		}
		time.Sleep(time.Millisecond)
	}
}
