package updateserver

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"upkit/internal/httpapi"
	"upkit/internal/manifest"
	"upkit/internal/telemetry"
	"upkit/internal/vendorserver"
)

// HTTP API — the Internet-facing surface of the update server that
// smartphones and gateways use in the push approach (Fig. 2, steps 3–7:
// poll for the release, send the device token, receive the
// double-signed image),
// plus an admin plane over the release store.
//
//	GET  /api/v1/version?app=<hex>     → {"version": n}
//	POST /api/v1/update?app=<hex>      body: device-token JSON
//	                                   → update JSON (manifest + payload,
//	                                     base64); 204 No Content when the
//	                                     device already runs the latest
//	                                     version (404 stays reserved for
//	                                     unknown apps)
//	GET  /api/v1/apps                  → release-store listing JSON
//	POST /api/v1/images                body: vendor-signed image
//	                                   (manifest || firmware, as built by
//	                                   upkit-sign), application/octet-stream
//	                                   → 201 {"appId": n, "version": n};
//	                                     409 when the version is not newer
//	                                     than the stored latest
//	GET  /api/v1/stats                 → patch-cache counters JSON
//	GET  /api/v1/metrics               → Prometheus text exposition
//
// Every route is registered on one httpapi.Table, so the whole
// /api/v1 surface shares the JSON error envelope
// ({"error":{"code":...,"message":...}}), answers 405 with an Allow
// header on wrong methods, and returns 413 for any oversized request
// body.
//
// Every request body is bounded with http.MaxBytesReader and every
// body-carrying endpoint checks its Content-Type. The images endpoint
// cannot verify the vendor signature (the update server holds no
// vendor key — devices do, end-to-end), so deployments must gate it
// like any admin surface.
//
// The CoAP endpoint (internal/coap) serves pulling devices directly;
// this HTTP endpoint serves proxies, which then forward the image over
// their local connection to the device.

// Request-body bounds.
const (
	// maxTokenBody bounds the device-token JSON on POST /api/v1/update.
	maxTokenBody = 4096
	// maxImageBody bounds a published image (manifest + firmware) on
	// POST /api/v1/images — generous for constrained-device firmware.
	maxImageBody = 32 << 20
)

// tokenJSON is the wire form of a device token on the HTTP API.
type tokenJSON struct {
	DeviceID       uint32 `json:"deviceId"`
	Nonce          uint32 `json:"nonce"`
	CurrentVersion uint16 `json:"currentVersion"`
}

// updateJSON is the wire form of a prepared update.
type updateJSON struct {
	Version      uint16 `json:"version"`
	Differential bool   `json:"differential"`
	Encrypted    bool   `json:"encrypted"`
	Manifest     string `json:"manifest"` // base64, manifest.EncodedSize bytes
	Payload      string `json:"payload"`  // base64
}

// versionJSON is the version-poll response.
type versionJSON struct {
	Version uint16 `json:"version"`
}

// AppInfo is one app's row in the release-store listing
// (GET /api/v1/apps).
type AppInfo struct {
	AppID    uint32 `json:"appId"`
	Latest   uint16 `json:"latest"`
	Releases int    `json:"releases"`
}

// appsJSON is the release-store listing response.
type appsJSON struct {
	Apps []AppInfo `json:"apps"`
}

// publishedJSON is the successful publish response.
type publishedJSON struct {
	AppID   uint32 `json:"appId"`
	Version uint16 `json:"version"`
}

// Handler returns the HTTP handler exposing the server's API: one
// httpapi.Table carrying the update/publish endpoints. Every request is
// counted in upkit_http_requests_total{path,code}, where path is the
// matched route's pattern, or "other" when no route matched, so the
// series count is bounded by the route table.
func (s *Server) Handler() http.Handler {
	t := httpapi.NewTable()
	t.HandleFunc(http.MethodGet, "/api/v1/version", s.handleHTTPVersion)
	t.HandleFunc(http.MethodPost, "/api/v1/update", s.handleHTTPUpdate)
	t.HandleFunc(http.MethodGet, "/api/v1/apps", s.handleHTTPApps)
	t.HandleFunc(http.MethodPost, "/api/v1/images", s.handleHTTPPublish)
	t.HandleFunc(http.MethodGet, "/api/v1/stats", s.handleHTTPStats)
	t.HandleFunc(http.MethodGet, "/api/v1/keys", s.handleHTTPKeys)
	t.Handle(http.MethodGet, "/api/v1/metrics", s.tel.Handler())
	return s.countRequests(t)
}

// statusRecorder captures the status code a handler writes so the
// middleware can label the request counter with it.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (s *Server) countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.code == 0 {
			rec.code = http.StatusOK
		}
		path := r.Pattern
		if path == "" {
			path = "other"
		}
		s.tel.Counter("upkit_http_requests_total", "HTTP API requests by path and status code.",
			telemetry.L("path", path),
			telemetry.L("code", strconv.Itoa(rec.code))).Inc()
	})
}

// appFromQuery parses the hex app parameter.
func appFromQuery(r *http.Request) (uint32, error) {
	raw := r.URL.Query().Get("app")
	if raw == "" {
		return 0, fmt.Errorf("missing app parameter")
	}
	v, err := strconv.ParseUint(raw, 16, 32)
	if err != nil {
		return 0, fmt.Errorf("bad app parameter: %w", err)
	}
	return uint32(v), nil
}

func (s *Server) handleHTTPVersion(w http.ResponseWriter, r *http.Request) {
	appID, err := appFromQuery(r)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
		return
	}
	v, ok := s.Latest(appID)
	if !ok {
		httpapi.WriteError(w, http.StatusNotFound, "unknown_app", "unknown app")
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, versionJSON{Version: v})
}

func (s *Server) handleHTTPUpdate(w http.ResponseWriter, r *http.Request) {
	appID, err := appFromQuery(r)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
		return
	}
	var tok tokenJSON
	// DecodeJSON classifies an oversized body as 413, a wrong media
	// type as 415, and malformed JSON as 400 — the same discipline as
	// every other body-carrying endpoint on the table.
	if !httpapi.DecodeJSON(w, r, maxTokenBody, &tok) {
		return
	}
	u, err := s.PrepareUpdate(appID, manifest.DeviceToken{
		DeviceID:       tok.DeviceID,
		Nonce:          tok.Nonce,
		CurrentVersion: tok.CurrentVersion,
	})
	switch {
	case err == nil:
	case errors.Is(err, ErrNoNewUpdate):
		// Success-shaped: the device is already current. Proxies polling
		// on behalf of up-to-date devices must be able to tell this
		// apart from an unknown app (404 below).
		w.WriteHeader(http.StatusNoContent)
		return
	case errors.Is(err, ErrUnknownApp):
		httpapi.WriteError(w, http.StatusNotFound, "unknown_app", err.Error())
		return
	default:
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, err.Error())
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, updateJSON{
		Version:      u.Manifest.Version,
		Differential: u.Differential,
		Encrypted:    u.Encrypted,
		Manifest:     base64.StdEncoding.EncodeToString(u.ManifestBytes),
		Payload:      base64.StdEncoding.EncodeToString(u.Payload),
	})
}

// handleHTTPKeys serves the encoded key bundle (root-signed key records
// plus the current revocation list). 204 until a bundle is published:
// deployments without key lifecycle simply have nothing to distribute.
func (s *Server) handleHTTPKeys(w http.ResponseWriter, _ *http.Request) {
	b := s.KeyBundle()
	if len(b) == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

func (s *Server) handleHTTPApps(w http.ResponseWriter, _ *http.Request) {
	apps := s.store.Apps()
	out := appsJSON{Apps: make([]AppInfo, 0, len(apps))}
	for _, app := range apps {
		list := s.store.Snapshot(app)
		if len(list) == 0 {
			continue // pruned between Apps and Snapshot
		}
		out.Apps = append(out.Apps, AppInfo{
			AppID:    app,
			Latest:   list[len(list)-1].Manifest.Version,
			Releases: len(list),
		})
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleHTTPPublish(w http.ResponseWriter, r *http.Request) {
	if !httpapi.RequireContentType(w, r, "application/octet-stream") {
		return
	}
	body, ok := httpapi.ReadBody(w, r, maxImageBody)
	if !ok {
		return
	}
	if len(body) == 0 {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, "empty image body")
		return
	}
	if len(body) < manifest.EncodedSize {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, "image smaller than a manifest")
		return
	}
	m, err := manifest.Unmarshal(body[:manifest.EncodedSize])
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, "bad manifest: "+err.Error())
		return
	}
	fw := body[manifest.EncodedSize:]
	if int(m.Size) != len(fw) {
		httpapi.Errorf(w, http.StatusBadRequest, httpapi.CodeBadRequest,
			"manifest says %d firmware bytes, body has %d", m.Size, len(fw))
		return
	}
	img := &vendorserver.Image{Manifest: *m, Firmware: fw}
	switch err := s.Publish(img); {
	case err == nil:
	case errors.Is(err, ErrStaleVersion):
		httpapi.WriteError(w, http.StatusConflict, httpapi.CodeConflict, err.Error())
		return
	default:
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, err.Error())
		return
	}
	httpapi.WriteJSON(w, http.StatusCreated, publishedJSON{AppID: m.AppID, Version: m.Version})
}

func (s *Server) handleHTTPStats(w http.ResponseWriter, _ *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, s.Stats())
}

// HTTPClient fetches updates from a remote update server's HTTP API —
// the smartphone side of the Internet hop.
type HTTPClient struct {
	// BaseURL is the server root, e.g. "https://updates.example.com".
	BaseURL string
	// Client is the http.Client to use; nil selects http.DefaultClient.
	Client *http.Client
}

func (c *HTTPClient) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

// Stats fetches the server's patch-cache counters.
func (c *HTTPClient) Stats(ctx context.Context) (CacheStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/api/v1/stats", nil)
	if err != nil {
		return CacheStats{}, err
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return CacheStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return CacheStats{}, fmt.Errorf("updateserver: stats: HTTP %d", resp.StatusCode)
	}
	var st CacheStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return CacheStats{}, err
	}
	return st, nil
}

// Apps fetches the server's release-store listing.
func (c *HTTPClient) Apps(ctx context.Context) ([]AppInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/api/v1/apps", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("updateserver: apps: HTTP %d", resp.StatusCode)
	}
	var out appsJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Apps, nil
}

// Request fetches the double-signed update for a device token. When
// the device already runs the latest version (HTTP 204), it returns
// ErrNoNewUpdate, mirroring the in-process PrepareUpdate contract.
// The context cancels the in-flight request.
func (c *HTTPClient) Request(ctx context.Context, appID uint32, tok manifest.DeviceToken) (*Update, error) {
	body, err := json.Marshal(tokenJSON{
		DeviceID:       tok.DeviceID,
		Nonce:          tok.Nonce,
		CurrentVersion: tok.CurrentVersion,
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/api/v1/update?app=%x", c.BaseURL, appID), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return nil, ErrNoNewUpdate
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("updateserver: update: HTTP %d", resp.StatusCode)
	}
	var u updateJSON
	if err := json.NewDecoder(resp.Body).Decode(&u); err != nil {
		return nil, err
	}
	manifestBytes, err := base64.StdEncoding.DecodeString(u.Manifest)
	if err != nil {
		return nil, fmt.Errorf("updateserver: manifest decode: %w", err)
	}
	payload, err := base64.StdEncoding.DecodeString(u.Payload)
	if err != nil {
		return nil, fmt.Errorf("updateserver: payload decode: %w", err)
	}
	m, err := manifest.Unmarshal(manifestBytes)
	if err != nil {
		return nil, err
	}
	return &Update{
		Manifest:      *m,
		ManifestBytes: manifestBytes,
		Payload:       payload,
		Differential:  u.Differential,
		Encrypted:     u.Encrypted,
	}, nil
}
