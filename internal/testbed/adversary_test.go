package testbed

import (
	"errors"
	"testing"
	"time"

	"upkit/internal/adversary"
	"upkit/internal/agent"
	"upkit/internal/bootloader"
	"upkit/internal/coap"
	"upkit/internal/events"
	"upkit/internal/flash"
	"upkit/internal/manifest"
	"upkit/internal/platform"
	"upkit/internal/security"
	"upkit/internal/telemetry"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
	"upkit/internal/verifier"
)

// The adversarial tier: each test plays one attack from the threat
// model (DESIGN.md §13) and asserts the exact rejection point — the
// agent FSM state, the lifecycle event, and the upkit_reject_total
// counter — plus the availability property that the device still boots
// its previous image afterwards.

// rejectCount reads the cross-layer rejection counter for one
// (layer, reason) pair.
func rejectCount(b *Bed, layer, reason string) uint64 {
	return b.Telemetry().Counter("upkit_reject_total",
		"Update images rejected, by layer and verification reason.",
		telemetry.L("layer", layer), telemetry.L("reason", reason)).Value()
}

// feedForged plays an attacker delivering a prepared update straight to
// the agent — the position of a compromised proxy or server that has
// already passed the transport.
func feedForged(t *testing.T, b *Bed, u *updateserver.Update) error {
	t.Helper()
	if _, err := b.Device.Agent.Receive(u.ManifestBytes); err != nil {
		return err
	}
	for off := 0; off < len(u.Payload); off += 512 {
		end := min(off+512, len(u.Payload))
		if _, err := b.Device.Agent.Receive(u.Payload[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// assertWaitingAndBootable asserts the canonical post-rejection state:
// the FSM cleaned back to Waiting, and a reboot still lands on wantV.
func assertWaitingAndBootable(t *testing.T, b *Bed, wantV uint16) {
	t.Helper()
	if st := b.Device.Agent.State(); st != agent.StateWaiting {
		t.Fatalf("agent state = %v, want Waiting", st)
	}
	res, err := b.Device.Reboot()
	if err != nil {
		t.Fatalf("reboot after rejected attack: %v", err)
	}
	if res.Version != wantV {
		t.Fatalf("booted v%d after rejected attack, want v%d", res.Version, wantV)
	}
}

// A captured, validly double-signed image replayed after the device has
// moved on: the per-request nonce is stale, so the agent rejects at the
// manifest — before a single firmware byte travels.
func TestAdversaryReplayStaleSignedImage(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Push, Seed: "adv-replay"})
	if err := b.PublishVersion(2, MakeFirmware("adv-v2", fwSize)); err != nil {
		t.Fatal(err)
	}
	phone := b.Smartphone()
	if err := phone.PushUpdate(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Device.ApplyStagedUpdate(); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishVersion(3, MakeFirmware("adv-v3", fwSize)); err != nil {
		t.Fatal(err)
	}

	// The attacker reconnects after the reboot (phones bind to the BLE
	// session of the agent they connected to) and replays the capture.
	attacker := b.Smartphone()
	attacker.Captured = phone.Captured

	// The BLE transport flattens the verifier error into a status byte,
	// so the precise rejection point is asserted below via the reject
	// counter's reason label and the event stream.
	before := rejectCount(b, "agent", "nonce")
	if err := attacker.ReplayCaptured(); err == nil {
		t.Fatal("replayed image must be rejected")
	}
	if got := rejectCount(b, "agent", "nonce"); got != before+1 {
		t.Fatalf("upkit_reject_total{agent,nonce} = %d, want %d", got, before+1)
	}
	if b.Device.Events.Count(events.KindManifestRejected) == 0 {
		t.Fatal("no KindManifestRejected event")
	}
	assertWaitingAndBootable(t, b, 2)
}

// A downgrade with nothing wrong but the version: the attacker steals
// the CURRENT update-server key, obtains a fresh token (valid nonce!),
// and serves the old v1 image re-signed for this device. Only the
// strictly-newer version gate stands — and it holds.
func TestAdversaryDowngradeWithStolenServerKey(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Lifecycle: true, Seed: "adv-downgrade"})
	if err := b.PublishVersion(2, MakeFirmware("adv-v2", fwSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PullUpdate(); err != nil {
		t.Fatal(err)
	}

	v1img, ok := b.Update.Store().ByVersion(b.opts.AppID, 1)
	if !ok {
		t.Fatal("v1 image not in store")
	}
	tok, err := b.Device.Agent.RequestDeviceToken()
	if err != nil {
		t.Fatal(err)
	}
	forged, err := adversary.ForgeUpdate(b.Suite, v1img, b.serverKey, b.serverKeyID, tok)
	if err != nil {
		t.Fatal(err)
	}
	before := rejectCount(b, "agent", "version")
	if err := feedForged(t, b, forged); !errors.Is(err, verifier.ErrVersion) {
		t.Fatalf("downgrade error = %v, want ErrVersion", err)
	}
	if got := rejectCount(b, "agent", "version"); got != before+1 {
		t.Fatalf("upkit_reject_total{agent,version} = %d, want %d", got, before+1)
	}
	assertWaitingAndBootable(t, b, 2)
}

// Anti-rollback proper: a NEWER app version carrying an OLDER security
// version (a withdrawn beta the attacker kept). The version gate passes;
// the persisted security counter rejects it.
func TestAdversarySecurityVersionRollback(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Lifecycle: true, Seed: "adv-rollback"})
	if err := b.PublishRelease(vendorserver.Release{
		Version: 2, Firmware: MakeFirmware("adv-s5", fwSize), SecurityVersion: 5,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PullUpdate(); err != nil {
		t.Fatal(err)
	}
	if got := b.Device.SecurityVersion(); got != 5 {
		t.Fatalf("security counter = %d after install, want 5", got)
	}

	// v3 regresses the security version — published in error, or served
	// by an attacker from a capture. The device must refuse it.
	if err := b.PublishRelease(vendorserver.Release{
		Version: 3, Firmware: MakeFirmware("adv-s2", fwSize), SecurityVersion: 2,
	}); err != nil {
		t.Fatal(err)
	}
	before := rejectCount(b, "agent", "rollback")
	_, err := b.PullClient().CheckAndUpdate()
	if !errors.Is(err, verifier.ErrRollback) {
		t.Fatalf("rollback error = %v, want ErrRollback", err)
	}
	if got := rejectCount(b, "agent", "rollback"); got != before+1 {
		t.Fatalf("upkit_reject_total{agent,rollback} = %d, want %d", got, before+1)
	}
	if b.Device.Events.Count(events.KindManifestRejected) == 0 {
		t.Fatal("no KindManifestRejected event")
	}
	assertWaitingAndBootable(t, b, 2)

	// A release that advances the counter again installs normally.
	if err := b.PublishRelease(vendorserver.Release{
		Version: 4, Firmware: MakeFirmware("adv-s6", fwSize), SecurityVersion: 6,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := b.PullUpdate()
	if err != nil {
		t.Fatalf("recovery update: %v", err)
	}
	if res.Version != 4 || b.Device.SecurityVersion() != 6 {
		t.Fatalf("after recovery: v%d counter %d, want v4 counter 6", res.Version, b.Device.SecurityVersion())
	}
}

// The headline lifecycle scenario: the update-server key leaks. The
// vendor rotates to key ID 2 and revokes ID 1 under the root signature;
// the device learns both over the (untrusted) update channel. The
// attacker's forgeries with the stolen key then die at the manifest,
// while legitimate updates under the new key still flow.
func TestAdversaryCompromisedServerKeyRotation(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Lifecycle: true, Seed: "adv-stolen"})
	if err := b.PublishVersion(2, MakeFirmware("adv-v2", fwSize)); err != nil {
		t.Fatal(err)
	}

	stolen, err := b.RotateServerKey()
	if err != nil {
		t.Fatal(err)
	}
	added, err := b.SyncKeys()
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("device learned no new key records")
	}
	if b.Device.Events.Count(events.KindKeysUpdated) == 0 {
		t.Fatal("no KindKeysUpdated event after key sync")
	}
	if !b.Keystore.IsRevoked(security.RoleServer, 1) {
		t.Fatal("server key 1 not revoked in device keystore")
	}

	// The attacker forges with the stolen (now revoked) key ID 1.
	img, ok := b.Update.LatestImage(b.opts.AppID)
	if !ok {
		t.Fatal("no latest image")
	}
	tok, err := b.Device.Agent.RequestDeviceToken()
	if err != nil {
		t.Fatal(err)
	}
	forged, err := adversary.ForgeUpdate(b.Suite, img, stolen, 1, tok)
	if err != nil {
		t.Fatal(err)
	}
	before := rejectCount(b, "agent", "server-key-revoked")
	err = feedForged(t, b, forged)
	if !errors.Is(err, verifier.ErrServerKey) || !errors.Is(err, security.ErrKeyRevoked) {
		t.Fatalf("forged-update error = %v, want ErrServerKey/ErrKeyRevoked", err)
	}
	if got := rejectCount(b, "agent", "server-key-revoked"); got != before+1 {
		t.Fatalf("upkit_reject_total{agent,server-key-revoked} = %d, want %d", got, before+1)
	}
	assertWaitingAndBootable(t, b, 1)

	// Legitimate updates signed with key 2 still work.
	res, err := b.PullUpdate()
	if err != nil {
		t.Fatalf("post-rotation update: %v", err)
	}
	if res.Version != 2 {
		t.Fatalf("booted v%d after rotation, want v2", res.Version)
	}
}

// A manifest past its expiry: correctly signed, correct nonce, but the
// device's clock has moved beyond NotAfter.
func TestAdversaryExpiredManifest(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Lifecycle: true, Seed: "adv-expired"})
	if err := b.PublishRelease(vendorserver.Release{
		Version:  2,
		Firmware: MakeFirmware("adv-exp", fwSize),
		NotAfter: b.epoch + 3600, // valid for one hour
	}); err != nil {
		t.Fatal(err)
	}
	b.Device.Clock.Advance(2 * time.Hour)

	before := rejectCount(b, "agent", "expired")
	_, err := b.PullClient().CheckAndUpdate()
	if !errors.Is(err, verifier.ErrExpired) {
		t.Fatalf("expired-manifest error = %v, want ErrExpired", err)
	}
	if got := rejectCount(b, "agent", "expired"); got != before+1 {
		t.Fatalf("upkit_reject_total{agent,expired} = %d, want %d", got, before+1)
	}
	assertWaitingAndBootable(t, b, 1)
}

// A revoked vendor key: the root signs a revocation of vendor key 1,
// and every image signed by it — including a perfectly fresh release —
// becomes uninstallable. The running image, signed by the same revoked
// key, keeps booting: revocation gates installs, never availability.
func TestAdversaryRevokedVendorKey(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Lifecycle: true, Seed: "adv-revoked"})
	if err := b.PublishVersion(2, MakeFirmware("adv-rv2", fwSize)); err != nil {
		t.Fatal(err)
	}
	if err := b.Revoke(security.RoleVendor, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SyncKeys(); err != nil {
		t.Fatal(err)
	}

	before := rejectCount(b, "agent", "vendor-key-revoked")
	_, err := b.PullClient().CheckAndUpdate()
	if !errors.Is(err, verifier.ErrVendorKey) || !errors.Is(err, security.ErrKeyRevoked) {
		t.Fatalf("revoked-vendor error = %v, want ErrVendorKey/ErrKeyRevoked", err)
	}
	if got := rejectCount(b, "agent", "vendor-key-revoked"); got != before+1 {
		t.Fatalf("upkit_reject_total{agent,vendor-key-revoked} = %d, want %d", got, before+1)
	}
	// Availability: the running v1 image was ALSO signed by the revoked
	// key; the bootloader grandfathers it.
	assertWaitingAndBootable(t, b, 1)
}

// A malicious on-path proxy flips one bit in a firmware block
// mid-transfer. Both signatures and the manifest pass — the corruption
// is caught by the streamed digest at the end of reception, the slot is
// invalidated, and a clean retry succeeds.
func TestAdversaryProxyMutatesBlockMidTransfer(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Seed: "adv-proxy"})
	v2 := MakeFirmware("adv-mut", fwSize)
	if err := b.PublishVersion(2, v2); err != nil {
		t.Fatal(err)
	}

	c := b.PullClient()
	c.Ex = &adversary.Interceptor{
		Inner:      c.Ex,
		OnResponse: adversary.FlipBitInBlock(5, 3),
	}
	before := rejectCount(b, "agent", "digest")
	_, err := c.CheckAndUpdate()
	if !errors.Is(err, verifier.ErrDigest) {
		t.Fatalf("mutated-block error = %v, want ErrDigest", err)
	}
	if got := rejectCount(b, "agent", "digest"); got != before+1 {
		t.Fatalf("upkit_reject_total{agent,digest} = %d, want %d", got, before+1)
	}
	if b.Device.Events.Count(events.KindFirmwareRejected) == 0 {
		t.Fatal("no KindFirmwareRejected event")
	}
	assertWaitingAndBootable(t, b, 1)

	// The honest path still works.
	res, err := b.PullUpdate()
	if err != nil {
		t.Fatalf("clean retry: %v", err)
	}
	if res.Version != 2 {
		t.Fatalf("retry booted v%d, want v2", res.Version)
	}
}

// Boot-time re-check, revocation arriving between staging and reboot:
// the agent verified with a then-valid key, the keystore revoked it
// before the reboot, and the bootloader's strict check on the staged
// (never-booted) slot refuses to promote it. The confirmed image —
// signed by the same revoked key — is grandfathered and boots.
func TestBootloaderRejectsStagedImageWithRevokedKey(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Lifecycle: true, Seed: "adv-staged"})
	if err := b.PublishVersion(2, MakeFirmware("adv-st2", fwSize)); err != nil {
		t.Fatal(err)
	}
	staged, err := b.PullClient().CheckAndUpdate()
	if err != nil || !staged {
		t.Fatalf("staging: staged=%v err=%v", staged, err)
	}

	// The revocation lands while the device waits to reboot.
	if err := b.Revoke(security.RoleVendor, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SyncKeys(); err != nil {
		t.Fatal(err)
	}

	// Power-loss interleaving: arm a fault for the first boot attempt.
	// The reject path is nearly read-only, so the fault may not fire; if
	// it does, power returns and the outcome must not change.
	before := rejectCount(b, "bootloader", "vendor-key-revoked")
	b.Device.Internal.FailAfter(1)
	res, err := b.Device.Reboot()
	if err != nil {
		if !errors.Is(err, flash.ErrPowerLoss) {
			t.Fatalf("interrupted reboot error = %v, want ErrPowerLoss", err)
		}
		b.Device.Internal.ClearFault()
		if res, err = b.Device.Reboot(); err != nil {
			t.Fatalf("reboot after power loss: %v", err)
		}
	}
	b.Device.Internal.ClearFault()
	if res.Version != 1 {
		t.Fatalf("booted v%d, want v1 (staged image must not promote)", res.Version)
	}
	if got := rejectCount(b, "bootloader", "vendor-key-revoked"); got <= before {
		t.Fatal("upkit_reject_total{bootloader,vendor-key-revoked} did not increase")
	}
	if b.Device.Events.Count(events.KindStagedRejected) == 0 {
		t.Fatal("no KindStagedRejected event")
	}

	// Recovery: rotate the vendor key, release v3 under it, and update.
	if _, err := b.RotateVendorKey(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SyncKeys(); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishVersion(3, MakeFirmware("adv-st3", fwSize)); err != nil {
		t.Fatal(err)
	}
	res, err = b.PullUpdate()
	if err != nil {
		t.Fatalf("post-rotation update: %v", err)
	}
	if res.Version != 3 {
		t.Fatalf("booted v%d after vendor rotation, want v3", res.Version)
	}
}

// Boot-time re-check, security-version regression: a complete,
// correctly double-signed image with an older security version appears
// in the idle slot (the agent bypassed — a compromised reception path
// or direct flash write). The bootloader's strict check catches what
// the agent never saw, across an interleaved power loss.
func TestBootloaderRejectsSecurityVersionRegression(t *testing.T) {
	b := newBed(t, Options{
		Approach: platform.Pull, Mode: bootloader.ModeAB,
		Lifecycle: true, Seed: "adv-boot-rb",
	})
	if err := b.PublishRelease(vendorserver.Release{
		Version: 2, Firmware: MakeFirmware("adv-br2", fwSize), SecurityVersion: 5,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PullUpdate(); err != nil {
		t.Fatal(err)
	}
	if b.Device.SecurityVersion() != 5 {
		t.Fatalf("counter = %d, want 5", b.Device.SecurityVersion())
	}

	// Craft a v3 image with security version 1 and plant it, fully
	// signed and Complete, in the idle slot.
	if err := b.PublishRelease(vendorserver.Release{
		Version: 3, Firmware: MakeFirmware("adv-br3", fwSize), SecurityVersion: 1,
	}); err != nil {
		t.Fatal(err)
	}
	img, ok := b.Update.Store().ByVersion(b.opts.AppID, 3)
	if !ok {
		t.Fatal("v3 image not in store")
	}
	forged, err := adversary.ForgeUpdate(b.Suite, img, b.serverKey, b.serverKeyID,
		agentToken(t, b))
	if err != nil {
		t.Fatal(err)
	}
	b.Device.Agent.Abort() // the token above was only bait for the forge
	idle := b.Device.SlotA
	if b.Device.Running() == idle {
		idle = b.Device.SlotB
	}
	w, err := idle.BeginReceive()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(forged.Payload); err != nil {
		t.Fatal(err)
	}
	if err := idle.WriteManifest(&forged.Manifest); err != nil {
		t.Fatal(err)
	}
	if err := idle.MarkComplete(); err != nil {
		t.Fatal(err)
	}

	// Power loss interleaved with the boot that should reject it: the
	// reject path is nearly read-only, so the fault may not fire; either
	// way the regressed image must never win.
	before := rejectCount(b, "bootloader", "rollback")
	b.Device.Internal.FailAfter(1)
	res, err := b.Device.Reboot()
	if err != nil {
		if !errors.Is(err, flash.ErrPowerLoss) {
			t.Fatalf("interrupted reboot error = %v, want ErrPowerLoss", err)
		}
		b.Device.Internal.ClearFault()
		if res, err = b.Device.Reboot(); err != nil {
			t.Fatalf("reboot after power loss: %v", err)
		}
	}
	b.Device.Internal.ClearFault()
	if res.Version != 2 {
		t.Fatalf("booted v%d, want v2 (regressed image must not win)", res.Version)
	}
	if got := rejectCount(b, "bootloader", "rollback"); got <= before {
		t.Fatal("upkit_reject_total{bootloader,rollback} did not increase")
	}
	if b.Device.Events.Count(events.KindStagedRejected) == 0 {
		t.Fatal("no KindStagedRejected event")
	}
	if b.Device.SecurityVersion() != 5 {
		t.Fatalf("counter = %d after rejected regression, want 5", b.Device.SecurityVersion())
	}
}

// agentToken issues a device token purely as forge input.
func agentToken(t *testing.T, b *Bed) manifest.DeviceToken {
	t.Helper()
	tok, err := b.Device.Agent.RequestDeviceToken()
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// The security counter's power-loss contract: the counter is advanced
// BEFORE the slot swap becomes visible, so at every fault point the
// persisted value is either the old one or the new one — and once the
// new image runs, the counter covers it.
func TestSecurityCounterPowerLossSweep(t *testing.T) {
	for _, n := range []int{0, 5, 20, 80, 320, 900} {
		v1 := MakeFirmware("sv-v1", 48*1024)
		v2 := MakeFirmware("sv-v2", 48*1024)
		b, err := New(Options{
			Approach: platform.Push, Lifecycle: true, Seed: "sv-sweep",
		}, v1)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.PublishRelease(vendorserver.Release{
			Version: 2, Firmware: v2, SecurityVersion: 2,
		}); err != nil {
			t.Fatal(err)
		}

		b.Device.Internal.FailAfter(n)
		pushErr := b.Smartphone().PushUpdate()
		var applyErr error
		if pushErr == nil {
			_, applyErr = b.Device.ApplyStagedUpdate()
		}
		b.Device.Internal.ClearFault()
		if pushErr != nil || applyErr != nil {
			if _, err := b.Device.Reboot(); err != nil {
				t.Fatalf("n=%d: reboot after power loss: %v", n, err)
			}
		}

		// Invariant: the counter is 0 (fault before the advance) or 2
		// (advance persisted) — never torn — and a running v2 is always
		// covered.
		sv := b.Device.SecurityVersion()
		if sv != 0 && sv != 2 {
			t.Fatalf("n=%d: counter = %d, want 0 or 2", n, sv)
		}
		if b.Device.RunningVersion() == 2 && sv != 2 {
			t.Fatalf("n=%d: running v2 with counter %d", n, sv)
		}

		// The retry completes and the counter lands at 2.
		if b.Device.RunningVersion() != 2 {
			if err := b.Smartphone().PushUpdate(); err != nil {
				t.Fatalf("n=%d: retry push: %v", n, err)
			}
			if _, err := b.Device.ApplyStagedUpdate(); err != nil {
				t.Fatalf("n=%d: retry apply: %v", n, err)
			}
		}
		if sv := b.Device.SecurityVersion(); sv != 2 {
			t.Fatalf("n=%d: final counter = %d, want 2", n, sv)
		}
		// And survives a plain reboot.
		if _, err := b.Device.Reboot(); err != nil {
			t.Fatalf("n=%d: final reboot: %v", n, err)
		}
		if sv := b.Device.SecurityVersion(); sv != 2 {
			t.Fatalf("n=%d: counter after reboot = %d, want 2", n, sv)
		}
	}
}

// Key sync is idempotent and tamper-proof: a second sync adds nothing,
// and a bundle mutated in flight is rejected without poisoning the
// keystore.
func TestKeySyncTamperedBundleRejected(t *testing.T) {
	b := newBed(t, Options{Approach: platform.Pull, Lifecycle: true, Seed: "adv-bundle"})
	if _, err := b.RotateServerKey(); err != nil {
		t.Fatal(err)
	}

	// The on-path attacker flips a byte inside the first key record.
	c := b.PullClient()
	c.Ex = &adversary.Interceptor{
		Inner: c.Ex,
		OnResponse: func(req, resp *coap.Message) *coap.Message {
			if req.Path() == coap.PathKeys && len(resp.Payload) > 40 {
				resp.Payload[40] ^= 1
			}
			return resp
		},
	}
	if _, err := c.SyncKeys(); err == nil {
		t.Fatal("tampered bundle must be rejected")
	}
	if b.Keystore.IsRevoked(security.RoleServer, 1) {
		t.Fatal("tampered bundle must not change revocation state")
	}

	// The clean channel works; a repeat sync learns nothing new.
	added, err := b.SyncKeys()
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("clean sync learned nothing")
	}
	again, err := b.SyncKeys()
	if err != nil {
		t.Fatal(err)
	}
	_ = again // records re-verify and overwrite idempotently
	if !b.Keystore.IsRevoked(security.RoleServer, 1) {
		t.Fatal("revocation lost after repeat sync")
	}
}
