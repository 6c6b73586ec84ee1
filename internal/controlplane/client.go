package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"upkit/internal/httpapi"
)

// Client drives the campaign API over HTTP — the operator's view of
// the control plane. The zero
// value is unusable; set Base to the server root (http://host:port).
type Client struct {
	// Base is the server root, without the /api/v1 prefix.
	Base string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one API request and decodes the JSON response into out,
// turning enveloped errors into Go errors.
func (c *Client) do(method, path string, body, out any) error {
	var rd *bytes.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(blob)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return fmt.Errorf("controlplane: %s %s: HTTP %d: %s",
			method, path, resp.StatusCode, httpapi.DecodeError(resp))
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("controlplane: %s %s: decode: %w", method, path, err)
	}
	return nil
}

// Create submits a campaign definition; unless req.Paused the campaign
// starts immediately.
func (c *Client) Create(req CreateRequest) (*Status, error) {
	st := &Status{}
	if err := c.do(http.MethodPost, "/api/v1/campaigns", req, st); err != nil {
		return nil, err
	}
	return st, nil
}

// List fetches every campaign's status, oldest first.
func (c *Client) List() ([]Status, error) {
	var out []Status
	if err := c.do(http.MethodGet, "/api/v1/campaigns", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Get fetches one campaign's status (live progress while it runs).
func (c *Client) Get(id string) (*Status, error) {
	st := &Status{}
	if err := c.do(http.MethodGet, "/api/v1/campaigns/"+id, nil, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Pause halts a running campaign; the returned status reflects the
// drained, checkpointed state.
func (c *Client) Pause(id string) (*Status, error) {
	st := &Status{}
	if err := c.do(http.MethodPost, "/api/v1/campaigns/"+id+"/pause", nil, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Resume restarts a paused, interrupted, aborted, or pending campaign
// from its checkpoint.
func (c *Client) Resume(id string) (*Status, error) {
	st := &Status{}
	if err := c.do(http.MethodPost, "/api/v1/campaigns/"+id+"/resume", nil, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Abort cancels a running campaign.
func (c *Client) Abort(id string) (*Status, error) {
	st := &Status{}
	if err := c.do(http.MethodPost, "/api/v1/campaigns/"+id+"/abort", nil, st); err != nil {
		return nil, err
	}
	return st, nil
}

// DeviceHistory fetches one device's attempt history within a
// campaign.
func (c *Client) DeviceHistory(id string, device uint32) ([]Attempt, error) {
	var out []Attempt
	path := fmt.Sprintf("/api/v1/campaigns/%s/devices/%d", id, device)
	if err := c.do(http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// WaitTerminal polls Get every interval (default 50ms) until the
// campaign leaves StateRunning, returning the final status. poll, if
// non-nil, observes every intermediate status — live progress for a
// caller that wants to print it.
func (c *Client) WaitTerminal(id string, interval time.Duration, poll func(*Status)) (*Status, error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	for {
		st, err := c.Get(id)
		if err != nil {
			return nil, err
		}
		if st.State != StateRunning {
			return st, nil
		}
		if poll != nil {
			poll(st)
		}
		time.Sleep(interval)
	}
}
