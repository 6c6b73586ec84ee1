// Package proxy implements the smartphone/gateway of the push approach
// (Fig. 2): a forwarder that obtains the device token over BLE, fetches
// the per-request update image from the update server, and pushes it to
// the device — without modifying it, because it cannot: the double
// signature makes the proxy a passive pipe.
//
// Compromised variants (tampering, replaying) are provided for the
// security experiments; UpKit must reject everything they produce.
package proxy

import (
	"context"
	"errors"
	"fmt"

	"upkit/internal/ble"
	"upkit/internal/updateserver"
)

// ErrNothingCaptured is returned by a replaying proxy with no captured
// update.
var ErrNothingCaptured = errors.New("proxy: nothing captured to replay")

// Smartphone is the push-approach proxy application (the paper's iOS
// app, §V).
type Smartphone struct {
	// Server is the update server the app talks to (in-process).
	// Exactly one of Server and HTTP must be set.
	Server *updateserver.Server
	// HTTP, when set, fetches updates over the server's HTTP API
	// instead — the real Internet hop of Fig. 2.
	HTTP *updateserver.HTTPClient
	// Central is the BLE connection to the IoT device.
	Central *ble.Central
	// AppID is the application the device runs.
	AppID uint32

	// TamperManifest and TamperPayload, when set, simulate a compromised
	// proxy modifying data in transit.
	TamperManifest func([]byte) []byte
	TamperPayload  func([]byte) []byte
	// Replay, when set, pushes this previously captured update instead
	// of requesting a fresh one (a freshness attack).
	Replay *updateserver.Update

	// Captured holds the last update fetched, for later replay attacks.
	Captured *updateserver.Update
}

// PushUpdate runs one complete push cycle: read the device token,
// obtain the (double-signed) image for it, and forward manifest and
// firmware over BLE. The returned error surfaces the device's early
// rejection, if any.
func (s *Smartphone) PushUpdate() error {
	tok, err := s.Central.ReadDeviceToken()
	if err != nil {
		return fmt.Errorf("proxy: read device token: %w", err)
	}

	var u *updateserver.Update
	switch {
	case s.Replay != nil:
		u = s.Replay
	case s.HTTP != nil:
		u, err = s.HTTP.Request(context.Background(), s.AppID, tok)
		if err != nil {
			return fmt.Errorf("proxy: request update over http: %w", err)
		}
		s.Captured = u
	default:
		u, err = s.Server.PrepareUpdate(s.AppID, tok)
		if err != nil {
			return fmt.Errorf("proxy: request update: %w", err)
		}
		s.Captured = u
	}

	manifestBytes := u.ManifestBytes
	if s.TamperManifest != nil {
		manifestBytes = s.TamperManifest(clone(manifestBytes))
	}
	payload := u.Payload
	if s.TamperPayload != nil {
		payload = s.TamperPayload(clone(payload))
	}

	if err := s.Central.SendManifest(manifestBytes); err != nil {
		return fmt.Errorf("proxy: push manifest: %w", err)
	}
	if err := s.Central.SendFirmware(payload); err != nil {
		return fmt.Errorf("proxy: push firmware: %w", err)
	}
	return nil
}

// ReplayCaptured re-pushes the previously captured update, modelling an
// attacker who recorded a valid image and tries to install it again (or
// on another device).
func (s *Smartphone) ReplayCaptured() error {
	if s.Captured == nil {
		return ErrNothingCaptured
	}
	old := s.Replay
	s.Replay = s.Captured
	err := s.PushUpdate()
	s.Replay = old
	return err
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
