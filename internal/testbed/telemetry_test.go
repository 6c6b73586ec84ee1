package testbed

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"upkit/internal/platform"
	"upkit/internal/telemetry"
)

// completedSpan returns the single completed span a one-update bed run
// must leave behind.
func completedSpan(t *testing.T, b *Bed) telemetry.Span {
	t.Helper()
	spans := b.Telemetry().Spans().Completed()
	if len(spans) != 1 {
		t.Fatalf("completed spans = %d, want 1: %v", len(spans), spans)
	}
	return spans[0]
}

// assertFourPhases checks a span traced every phase of Fig. 8a with a
// positive duration and ended as installed.
func assertFourPhases(t *testing.T, s telemetry.Span) {
	t.Helper()
	if len(s.Phases) != len(telemetry.AllPhases) {
		t.Fatalf("span missing phases: %s", s)
	}
	for _, p := range telemetry.AllPhases {
		if s.Phases[p] <= 0 {
			t.Errorf("phase %s = %v, want > 0", p, s.Phases[p])
		}
	}
	if s.Outcome != "installed" {
		t.Errorf("outcome = %q, want installed", s.Outcome)
	}
}

func TestPullUpdateFourPhaseSpan(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Differential: true})
	if err := b.PublishVersion(2, DeriveAppChange(MakeFirmware("factory-v1", fwSize), 900)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PullUpdate(); err != nil {
		t.Fatalf("PullUpdate: %v", err)
	}
	s := completedSpan(t, b)
	assertFourPhases(t, s)
	// The span is keyed by the token the double signature binds.
	if s.Key.DeviceID != b.opts.DeviceID || s.Key.AppID != b.opts.AppID {
		t.Errorf("key = %s, want device %#x app %#x", s.Key, b.opts.DeviceID, b.opts.AppID)
	}
	if s.Key.From != 1 || s.Key.To != 2 {
		t.Errorf("key versions = v%d→v%d, want v1→v2", s.Key.From, s.Key.To)
	}
}

func TestPushUpdateFourPhaseSpan(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Push})
	if err := b.PublishVersion(2, MakeFirmware("v2-span", fwSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PushUpdate(); err != nil {
		t.Fatalf("PushUpdate: %v", err)
	}
	s := completedSpan(t, b)
	assertFourPhases(t, s)
	if s.Key.To != 2 {
		t.Errorf("key = %s, want target v2", s.Key)
	}
}

// TestMetricsExposition scrapes the update server's /api/v1/metrics
// endpoint after a full pull update and checks that every instrumented
// layer of the bed reported into the one shared registry.
func TestMetricsExposition(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Differential: true})
	if err := b.PublishVersion(2, DeriveAppChange(MakeFirmware("factory-v1", fwSize), 800)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PullUpdate(); err != nil {
		t.Fatalf("PullUpdate: %v", err)
	}

	ts := httptest.NewServer(b.Update.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q, want Prometheus 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, series := range []string{
		"upkit_server_requests_total",   // update server
		"upkit_patch_cache_hits_total",  // differential-patch cache
		"upkit_link_transfers_total",    // radio transport
		"upkit_coap_requests_total",     // CoAP pull front end
		"upkit_agent_transitions_total", // device FSM
		"upkit_pipeline_bytes_total",    // reception pipeline
		"upkit_boot_total",              // bootloader
		"upkit_vendor_images_total",     // vendor server
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition is missing %s", series)
		}
	}
}

// TestTelemetryOverrideRegistry checks Options.Telemetry redirects the
// whole bed away from the update server's own registry.
func TestTelemetryOverrideRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := newBed(t, Options{Approach: platform.Pull, Telemetry: reg})
	if b.Telemetry() != reg {
		t.Fatal("bed ignored the registry override")
	}
	if err := b.PublishVersion(2, MakeFirmware("v2-override", fwSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PullUpdate(); err != nil {
		t.Fatalf("PullUpdate: %v", err)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "upkit_link_transfers_total") {
		t.Error("override registry saw no link traffic")
	}
}
