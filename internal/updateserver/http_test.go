package updateserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"upkit/internal/httpapi"
	"upkit/internal/manifest"
	"upkit/internal/vendorserver"
)

func newHTTPServer(t *testing.T) (*servers, *httptest.Server) {
	t.Helper()
	s := newServers(t)
	ts := httptest.NewServer(s.update.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestHTTPVersionEndpoint(t *testing.T) {
	s, ts := newHTTPServer(t)
	s.publish(t, 0x2A, 3, bytes.Repeat([]byte("v3"), 500))

	resp, err := http.Get(ts.URL + "/api/v1/version?app=2a")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v versionJSON
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || v.Version != 3 {
		t.Fatalf("GET /api/v1/version = %d, v%d; want 200, v3", resp.StatusCode, v.Version)
	}
}

func TestHTTPUpdateEndpoint(t *testing.T) {
	s, ts := newHTTPServer(t)
	fw := bytes.Repeat([]byte("payload"), 1000)
	s.publish(t, 0x2A, 2, fw)

	client := &HTTPClient{BaseURL: ts.URL}
	tok := manifest.DeviceToken{DeviceID: 0xD1, Nonce: 0x4E}
	u, err := client.Request(context.Background(), 0x2A, tok)
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	if u.Manifest.Version != 2 || u.Manifest.DeviceID != 0xD1 || u.Manifest.Nonce != 0x4E {
		t.Fatalf("manifest = %+v", u.Manifest)
	}
	if !bytes.Equal(u.Payload, fw) {
		t.Fatal("payload mismatch over HTTP")
	}
	// The double signature survives the HTTP round trip.
	if !u.Manifest.VerifyVendorSig(s.suite, s.vendor.PublicKey()) {
		t.Fatal("vendor signature broken by HTTP transfer")
	}
	if !u.Manifest.VerifyServerSig(s.suite, s.update.PublicKey()) {
		t.Fatal("server signature broken by HTTP transfer")
	}
}

func TestHTTPDifferentialAndEncrypted(t *testing.T) {
	s, ts := newHTTPServer(t)
	v1 := bytes.Repeat([]byte("stable-base"), 2000)
	v2 := bytes.Clone(v1)
	copy(v2[100:], []byte("delta"))
	s.publish(t, 0x2A, 1, v1)
	s.publish(t, 0x2A, 2, v2)
	key := bytes.Repeat([]byte{0x22}, 16)
	if err := s.update.SetPayloadEncryption(key, nil); err != nil {
		t.Fatal(err)
	}

	client := &HTTPClient{BaseURL: ts.URL}
	u, err := client.Request(context.Background(), 0x2A, manifest.DeviceToken{DeviceID: 1, Nonce: 2, CurrentVersion: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !u.Differential || !u.Encrypted {
		t.Fatalf("flags = diff %v enc %v, want both", u.Differential, u.Encrypted)
	}
	if int(u.Manifest.PatchSize)+16 != len(u.Payload) {
		t.Fatalf("payload = %d bytes, want plaintext patch %d + 16 IV", len(u.Payload), u.Manifest.PatchSize)
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	s, ts := newHTTPServer(t)
	s.publish(t, 0x2A, 1, []byte("v1"))

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/api/v1/version"); got != http.StatusBadRequest {
		t.Errorf("missing app: %d", got)
	}
	if got := get("/api/v1/version?app=zz"); got != http.StatusBadRequest {
		t.Errorf("bad app: %d", got)
	}
	if got := get("/api/v1/version?app=99"); got != http.StatusNotFound {
		t.Errorf("unknown app: %d", got)
	}
	if got := post("/api/v1/update?app=2a", "not json"); got != http.StatusBadRequest {
		t.Errorf("bad token body: %d", got)
	}
	// Device already on the latest version → success-shaped 204, so a
	// proxy polling for an up-to-date device can tell "nothing to do"
	// apart from "unknown app" (404).
	if got := post("/api/v1/update?app=2a", `{"deviceId":1,"nonce":2,"currentVersion":1}`); got != http.StatusNoContent {
		t.Errorf("no new update: %d, want 204", got)
	}
	if got := post("/api/v1/update?app=99", `{"deviceId":1,"nonce":2,"currentVersion":1}`); got != http.StatusNotFound {
		t.Errorf("unknown app on update: %d, want 404", got)
	}
	if got := get("/api/v1/nope"); got != http.StatusNotFound {
		t.Errorf("unknown path: %d", got)
	}
}

func TestHTTPClientMapsNoContentToErrNoNewUpdate(t *testing.T) {
	s, ts := newHTTPServer(t)
	s.publish(t, 0x2A, 1, []byte("v1"))
	client := &HTTPClient{BaseURL: ts.URL}
	_, err := client.Request(context.Background(), 0x2A, manifest.DeviceToken{DeviceID: 1, Nonce: 2, CurrentVersion: 1})
	if !errors.Is(err, ErrNoNewUpdate) {
		t.Fatalf("error = %v, want ErrNoNewUpdate", err)
	}
}

func TestHTTPStatsEndpoint(t *testing.T) {
	s, ts := newHTTPServer(t)
	v1 := bytes.Repeat([]byte("stats-base"), 2000)
	v2 := bytes.Clone(v1)
	copy(v2[64:], []byte("edit"))
	s.publish(t, 0x2A, 1, v1)
	s.publish(t, 0x2A, 2, v2)

	client := &HTTPClient{BaseURL: ts.URL}
	for i := range 3 {
		tok := manifest.DeviceToken{DeviceID: uint32(i + 1), Nonce: uint32(i + 10), CurrentVersion: 1}
		if _, err := client.Request(context.Background(), 0x2A, tok); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Computations != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 computation and 2 hits", st)
	}
}

func TestHTTPClientAgainstDeadServer(t *testing.T) {
	client := &HTTPClient{BaseURL: "http://127.0.0.1:1"} // nothing listens
	if _, err := client.Request(context.Background(), 1, manifest.DeviceToken{}); err == nil {
		t.Fatal("Request against a dead server must fail")
	}
}

func TestHTTPClientNon200(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "backend down", http.StatusInternalServerError)
	}))
	defer ts.Close()

	client := &HTTPClient{BaseURL: ts.URL}
	if _, err := client.Stats(context.Background()); err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("Stats error = %v, want HTTP 500", err)
	}
	if _, err := client.Request(context.Background(), 0x2A, manifest.DeviceToken{}); err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("Request error = %v, want HTTP 500", err)
	}
}

func TestHTTPClientContextCancelsInFlightRequest(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release // hold the response until the test ends
	}))
	defer ts.Close()
	defer close(release)

	client := &HTTPClient{BaseURL: ts.URL}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := client.Request(ctx, 0x2A, manifest.DeviceToken{DeviceID: 1})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestHTTPClientPreCanceledContext(t *testing.T) {
	_, ts := newHTTPServer(t)
	client := &HTTPClient{BaseURL: ts.URL}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Request(ctx, 0x2A, manifest.DeviceToken{DeviceID: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestHTTPAppsEndpoint(t *testing.T) {
	s, ts := newHTTPServer(t)
	client := &HTTPClient{BaseURL: ts.URL}
	apps, err := client.Apps(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 0 {
		t.Fatalf("empty server lists %v", apps)
	}
	s.publish(t, 0x2A, 1, []byte("v1"))
	s.publish(t, 0x2A, 2, []byte("v2"))
	s.publish(t, 7, 5, []byte("other"))
	apps, err = client.Apps(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 2 {
		t.Fatalf("apps = %v, want 2 entries", apps)
	}
	if apps[0].AppID != 7 || apps[0].Latest != 5 || apps[0].Releases != 1 {
		t.Fatalf("apps[0] = %+v", apps[0])
	}
	if apps[1].AppID != 0x2A || apps[1].Latest != 2 || apps[1].Releases != 2 {
		t.Fatalf("apps[1] = %+v", apps[1])
	}
}

func TestHTTPPublishEndpoint(t *testing.T) {
	s, ts := newHTTPServer(t)
	client := &HTTPClient{BaseURL: ts.URL}

	fw := bytes.Repeat([]byte("uploaded"), 100)
	img, err := s.vendor.BuildImage(vendorserver.Release{
		AppID: 0x2A, Version: 3, LinkOffset: 0xFFFFFFFF, Firmware: fw,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := img.Manifest.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	upload := func() int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/images", "application/octet-stream",
			bytes.NewReader(append(m, img.Firmware...)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := upload(); got != http.StatusCreated {
		t.Fatalf("upload: %d, want 201", got)
	}
	// The uploaded release is immediately servable, signature intact.
	u, err := client.Request(context.Background(), 0x2A, manifest.DeviceToken{DeviceID: 1, Nonce: 2})
	if err != nil {
		t.Fatal(err)
	}
	if u.Manifest.Version != 3 || !bytes.Equal(u.Payload, fw) {
		t.Fatal("uploaded release not served back")
	}
	if !u.Manifest.VerifyVendorSig(s.suite, s.vendor.PublicKey()) {
		t.Fatal("vendor signature broken by the publish round trip")
	}

	// Republishing the same version is a conflict.
	if got := upload(); got != http.StatusConflict {
		t.Fatalf("republish: %d, want 409", got)
	}
}

func TestHTTPPublishRejectsBadBodies(t *testing.T) {
	_, ts := newHTTPServer(t)
	post := func(contentType string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/images", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("application/json", []byte("{}")); got != http.StatusUnsupportedMediaType {
		t.Errorf("wrong content type: %d, want 415", got)
	}
	if got := post("", []byte("x")); got != http.StatusUnsupportedMediaType {
		t.Errorf("missing content type: %d, want 415", got)
	}
	if got := post("application/octet-stream", nil); got != http.StatusBadRequest {
		t.Errorf("empty body: %d, want 400", got)
	}
	if got := post("application/octet-stream", []byte("short")); got != http.StatusBadRequest {
		t.Errorf("truncated manifest: %d, want 400", got)
	}
	garbage := bytes.Repeat([]byte{0xFF}, manifest.EncodedSize+10)
	if got := post("application/octet-stream", garbage); got != http.StatusBadRequest {
		t.Errorf("garbage manifest: %d, want 400", got)
	}
}

func TestHTTPPublishSizeMismatchRejected(t *testing.T) {
	s, ts := newHTTPServer(t)
	img, err := s.vendor.BuildImage(vendorserver.Release{
		AppID: 0x2A, Version: 1, LinkOffset: 0xFFFFFFFF, Firmware: []byte("complete-firmware"),
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := img.Manifest.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Manifest promises len(firmware) bytes; send one fewer.
	body := append(m, img.Firmware[:len(img.Firmware)-1]...)
	resp, err := http.Post(ts.URL+"/api/v1/images", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("size mismatch: %d, want 400", resp.StatusCode)
	}
}

func TestHTTPUpdateRequiresJSONContentType(t *testing.T) {
	s, ts := newHTTPServer(t)
	s.publish(t, 0x2A, 1, []byte("v1"))
	resp, err := http.Post(ts.URL+"/api/v1/update?app=2a", "text/plain",
		strings.NewReader(`{"deviceId":1,"nonce":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("non-JSON update: %d, want 415", resp.StatusCode)
	}
	// A charset parameter on the right media type is fine.
	resp, err = http.Post(ts.URL+"/api/v1/update?app=2a", "application/json; charset=utf-8",
		strings.NewReader(`{"deviceId":1,"nonce":2,"currentVersion":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json+charset update: %d, want 200", resp.StatusCode)
	}
}

// Oversized bodies answer 413 with the shared envelope on every
// endpoint — the update endpoint used to say 400 while the images
// endpoint said 413 for the same condition.
func TestHTTPOversizedBodiesAnswer413(t *testing.T) {
	s, ts := newHTTPServer(t)
	s.publish(t, 0x2A, 1, []byte("v1"))

	huge := `{"deviceId":1,"nonce":2,"pad":"` + strings.Repeat("A", maxTokenBody) + `"}`
	resp, err := http.Post(ts.URL+"/api/v1/update?app=2a", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	env := decodeErrorEnvelope(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized token body: %d, want 413", resp.StatusCode)
	}
	if env.Error.Code != httpapi.CodeTooLarge {
		t.Fatalf("code = %q, want %q", env.Error.Code, httpapi.CodeTooLarge)
	}

	resp, err = http.Post(ts.URL+"/api/v1/images", "application/octet-stream",
		bytes.NewReader(make([]byte, maxImageBody+1)))
	if err != nil {
		t.Fatal(err)
	}
	env = decodeErrorEnvelope(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized image body: %d, want 413", resp.StatusCode)
	}
	if env.Error.Code != httpapi.CodeTooLarge {
		t.Fatalf("code = %q, want %q", env.Error.Code, httpapi.CodeTooLarge)
	}
}

// decodeErrorEnvelope asserts a response carries the shared JSON error
// envelope and closes the body.
func decodeErrorEnvelope(t *testing.T, resp *http.Response) httpapi.ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type = %q, want application/json", ct)
	}
	var env httpapi.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope incomplete: %+v", env)
	}
	return env
}

func TestHTTPWrongMethodAnswers405WithAllow(t *testing.T) {
	_, ts := newHTTPServer(t)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/images", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	env := decodeErrorEnvelope(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Fatalf("Allow = %q, want POST", allow)
	}
	if env.Error.Code != httpapi.CodeMethodNotAllowed {
		t.Fatalf("code = %q", env.Error.Code)
	}

	// GET on the same path must keep working: stats is GET-only.
	resp, err = http.Post(ts.URL+"/api/v1/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST stats: %d, want 405", resp.StatusCode)
	}
}

func TestHTTPErrorsUseEnvelope(t *testing.T) {
	_, ts := newHTTPServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/version?app=99")
	if err != nil {
		t.Fatal(err)
	}
	if env := decodeErrorEnvelope(t, resp); env.Error.Code != "unknown_app" {
		t.Fatalf("code = %q, want unknown_app", env.Error.Code)
	}
	resp, err = http.Get(ts.URL + "/api/v1/does-not-exist")
	if err != nil {
		t.Fatal(err)
	}
	if env := decodeErrorEnvelope(t, resp); env.Error.Code != httpapi.CodeNotFound {
		t.Fatalf("code = %q, want %q", env.Error.Code, httpapi.CodeNotFound)
	}
	// No patch-farm admin route is mounted.
	resp, err = http.Post(ts.URL+"/api/v1/patchfarm/warm", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /api/v1/patchfarm/warm: %d, want 404", resp.StatusCode)
	}
	if env := decodeErrorEnvelope(t, resp); env.Error.Code != httpapi.CodeNotFound {
		t.Fatalf("code = %q, want %q", env.Error.Code, httpapi.CodeNotFound)
	}
}

// TestHTTPRequestCounterCardinalityBounded: upkit_http_requests_total
// is labelled with the matched route pattern, or "other" when nothing
// matched, so neither unknown paths nor query strings grow the series
// set.
func TestHTTPRequestCounterCardinalityBounded(t *testing.T) {
	s := newServers(t)
	h := s.update.Handler()
	serve := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	// series maps each upkit_http_requests_total series to its count.
	series := func() map[string]string {
		var buf bytes.Buffer
		if err := s.update.Telemetry().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, line := range strings.Split(buf.String(), "\n") {
			if name, value, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "upkit_http_requests_total{") {
				out[name] = value
			}
		}
		return out
	}
	before := series()
	for i := range 500 {
		if code := serve(fmt.Sprintf("/api/v1/unknown-%d", i)); code != http.StatusNotFound {
			t.Fatalf("unknown path: %d, want 404", code)
		}
	}
	for i := range 50 {
		if code := serve(fmt.Sprintf("/api/v1/stats?probe=%d", i)); code != http.StatusOK {
			t.Fatalf("stats route: %d, want 200", code)
		}
	}
	after := series()
	added := make(map[string]int) // new series per status code
	for name := range after {
		if _, ok := before[name]; !ok {
			_, code, _ := strings.Cut(name, `code="`)
			code, _, _ = strings.Cut(code, `"`)
			added[code]++
		}
	}
	for code, n := range added {
		if n > 2 {
			t.Errorf("status %s gained %d series, want at most 2", code, n)
		}
	}
	for name, want := range map[string]string{
		`upkit_http_requests_total{code="404",path="other"}`:         "500",
		`upkit_http_requests_total{code="200",path="/api/v1/stats"}`: "50",
	} {
		if after[name] != want {
			t.Errorf("%s = %q, want %s", name, after[name], want)
		}
	}
}
