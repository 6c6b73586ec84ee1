// Package device assembles a complete simulated constrained IoT device:
// flash chips per the MCU profile, the slot layout of the chosen update
// configuration, the update agent, the bootloader, the shared verifier,
// and the clock/energy instrumentation. It is the unit the examples and
// experiments operate on.
package device

import (
	"errors"
	"fmt"
	"time"

	"upkit/internal/agent"
	"upkit/internal/bootloader"
	"upkit/internal/energy"
	"upkit/internal/events"
	"upkit/internal/flash"
	"upkit/internal/manifest"
	"upkit/internal/platform"
	"upkit/internal/security"
	"upkit/internal/simclock"
	"upkit/internal/slot"
	"upkit/internal/telemetry"
	"upkit/internal/updateserver"
	"upkit/internal/verifier"
)

// PhaseLoading mirrors the bootloader's phase name; reboot overhead is
// charged to it (device re-initialisation before the jump).
const PhaseLoading = bootloader.PhaseLoading

// Default timing constants, calibrated with the rest of the Fig. 8a
// configuration (see EXPERIMENTS.md).
const (
	// DefaultRebootTime is the device re-initialisation time after a
	// reset, before the bootloader runs.
	DefaultRebootTime = 200 * time.Millisecond
	// DefaultJumpTime is the bootloader's fixed loading cost: vector
	// table relocation, RAM init, and the jump to the application.
	DefaultJumpTime = 800 * time.Millisecond
)

// Device errors.
var (
	ErrNoUpdateStaged = errors.New("device: no verified update staged")
	ErrTooSmallFlash  = errors.New("device: flash too small for the requested layout")
)

// Options configures a simulated device.
type Options struct {
	// Name labels the device in logs.
	Name string
	// MCU selects the hardware platform profile.
	MCU platform.MCU
	// Mode selects static (Configuration B) or A/B (Configuration A).
	Mode bootloader.Mode
	// SlotBytes is the per-slot size; it must be a multiple of the
	// sector size. Zero selects the largest symmetric layout.
	SlotBytes int
	// Suite is the cryptographic implementation.
	Suite security.Suite
	// Keys are the provisioned verification keys.
	Keys verifier.Keys
	// KeySource, when set, overrides Keys with a lifecycle-aware key
	// resolver (typically a security.Keystore fed by key bundles): the
	// verifier then honours key IDs, rotation, revocation, and validity
	// windows.
	KeySource verifier.KeySource
	// TimeSource supplies Unix-seconds wall time for manifest-expiry
	// checks; nil models a device without a real-time clock (expiry is
	// not enforced).
	TimeSource func() uint64
	// DeviceID and AppID identify the device and its application.
	DeviceID uint32
	AppID    uint32
	// SupportDifferential enables differential updates in device tokens.
	SupportDifferential bool
	// NonceSeed seeds the deterministic nonce stream (simulation only).
	NonceSeed string
	// RebootTime is the device re-initialisation time on reboot.
	RebootTime time.Duration
	// JumpTime is the bootloader's fixed loading cost (vector table
	// relocation and jump).
	JumpTime time.Duration
	// PayloadKey enables the pipeline's decryption stage: the update
	// server must encrypt payloads under the same symmetric key.
	PayloadKey []byte
	// CheckpointEvery tunes the reception journal's cadence (bytes of
	// durably written firmware between checkpoints); zero selects the
	// agent default of four pipeline buffers.
	CheckpointEvery int
	// WithRecovery allocates a third, non-bootable recovery slot
	// holding the factory image (Fig. 6, Configuration B): the
	// bootloader's last resort when neither slot verifies. It lives on
	// external flash when the platform has one.
	WithRecovery bool
	// Telemetry, when set, is shared with the agent and bootloader so
	// device-side metrics and phase spans land in one registry (usually
	// the update server's). Nil keeps the device silent.
	Telemetry *telemetry.Registry
}

// Device is one simulated IoT device.
type Device struct {
	Name  string
	Clock *simclock.Clock
	Meter *energy.Meter
	// Phases accumulates the per-phase time breakdown of Fig. 8a.
	Phases *simclock.Timer

	Internal *flash.Memory
	External *flash.Memory

	SlotA *slot.Slot
	SlotB *slot.Slot
	// Recovery is the optional factory-image slot (nil unless
	// Options.WithRecovery).
	Recovery *slot.Slot

	Agent      *agent.Agent
	Bootloader *bootloader.Bootloader
	Verifier   *verifier.Verifier
	// Events records the device's update lifecycle.
	Events *events.Log

	opts       Options
	scratch    flash.Region
	journal    flash.Region
	rjournal   flash.Region
	recJournal *slot.ReceptionJournal
	secRegion  flash.Region
	secVer     *slot.SecurityCounter
	running    *slot.Slot
	reboots    int
}

// New builds a device per opts. The internal flash layout is
//
//	[bootloader][slot A][slot B*][scratch][swap journal][reception journal][security counter]
//
// with slot B placed on external flash when the MCU has one and its
// internal flash cannot hold both slots (the CC2650 case, §V). The
// reception journal and the anti-rollback security counter each span
// two sectors so their latest record always survives their ring's own
// sector erases.
func New(opts Options) (*Device, error) {
	if opts.Suite == nil {
		return nil, errors.New("device: options need a crypto suite")
	}
	clock := simclock.New()
	meter := energy.NewMeter(energy.NRF52840Profile())
	internal, err := flash.New(opts.MCU.Internal, clock)
	if err != nil {
		return nil, err
	}
	var external *flash.Memory
	if opts.MCU.HasExternalFlash() {
		external, err = flash.New(*opts.MCU.External, clock)
		if err != nil {
			return nil, err
		}
	}

	sector := opts.MCU.Internal.SectorSize
	// scratch + swap journal + 2-sector reception journal + 2-sector
	// security counter
	overhead := opts.MCU.ReservedBootloader + 6*sector
	slotBytes := opts.SlotBytes
	// Internal slots: A and B, plus the recovery slot when it cannot go
	// to external flash.
	internalSlots := 2
	if opts.WithRecovery && external == nil {
		internalSlots = 3
	}
	// Decide where slot B lives: internal if it fits, else external.
	bOnExternal := false
	if slotBytes == 0 {
		slotBytes = (opts.MCU.Internal.Size - overhead) / internalSlots / sector * sector
	}
	if opts.WithRecovery && external == nil {
		overhead += slotBytes // recovery shares internal flash
	}
	if overhead+2*slotBytes > opts.MCU.Internal.Size {
		if external == nil || slotBytes > opts.MCU.External.Size {
			return nil, fmt.Errorf("%w: need 2×%d bytes", ErrTooSmallFlash, slotBytes)
		}
		if overhead+slotBytes > opts.MCU.Internal.Size {
			return nil, fmt.Errorf("%w: slot A (%d bytes) does not fit", ErrTooSmallFlash, slotBytes)
		}
		bOnExternal = true
	}

	base := opts.MCU.ReservedBootloader
	regionA, err := flash.NewRegion(internal, base, slotBytes)
	if err != nil {
		return nil, err
	}
	var regionB flash.Region
	var afterB int
	if bOnExternal {
		regionB, err = flash.NewRegion(external, 0, slotBytes)
		afterB = base + slotBytes
	} else {
		regionB, err = flash.NewRegion(internal, base+slotBytes, slotBytes)
		afterB = base + 2*slotBytes
	}
	if err != nil {
		return nil, err
	}
	scratch, err := flash.NewRegion(internal, afterB, sector)
	if err != nil {
		return nil, err
	}
	journal, err := flash.NewRegion(internal, afterB+sector, sector)
	if err != nil {
		return nil, err
	}
	rjournal, err := flash.NewRegion(internal, afterB+2*sector, 2*sector)
	if err != nil {
		return nil, err
	}
	recJournal, err := slot.NewReceptionJournal(rjournal)
	if err != nil {
		return nil, err
	}
	secRegion, err := flash.NewRegion(internal, afterB+4*sector, 2*sector)
	if err != nil {
		return nil, err
	}
	secVer, err := slot.NewSecurityCounter(secRegion)
	if err != nil {
		return nil, err
	}
	var recovery *slot.Slot
	if opts.WithRecovery {
		var recRegion flash.Region
		if external != nil {
			// On external flash, after slot B if that is external too.
			recOffset := 0
			if bOnExternal {
				recOffset = slotBytes
			}
			recRegion, err = flash.NewRegion(external, recOffset, slotBytes)
		} else {
			recRegion, err = flash.NewRegion(internal, afterB+6*sector, slotBytes)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: recovery slot", ErrTooSmallFlash)
		}
		recovery, err = slot.New("recovery", recRegion, slot.NonBootable, slot.AnyLink)
		if err != nil {
			return nil, err
		}
	}

	kindB := slot.Bootable
	if opts.Mode == bootloader.ModeStatic || bOnExternal {
		kindB = slot.NonBootable
	}
	slotA, err := slot.New("A", regionA, slot.Bootable, slot.AnyLink)
	if err != nil {
		return nil, err
	}
	slotB, err := slot.New("B", regionB, kindB, slot.AnyLink)
	if err != nil {
		return nil, err
	}

	phases := simclock.NewTimer(clock)
	log := events.NewLog(clock, 0)
	ver := verifier.New(opts.Suite, opts.Keys, clock)
	ver.Source = opts.KeySource
	bl, err := bootloader.New(bootloader.Config{
		Mode:             opts.Mode,
		Boot:             slotA,
		Alt:              slotB,
		Recovery:         recovery,
		Scratch:          scratch,
		Journal:          journal,
		ReceptionJournal: rjournal,
		Verifier:         ver,
		DeviceID:         opts.DeviceID,
		AppID:            opts.AppID,
		Clock:            clock,
		JumpTime:         opts.JumpTime,
		Phases:           phases,
		Events:           log,
		Telemetry:        opts.Telemetry,
		SecVer:           secVer,
		TimeSource:       opts.TimeSource,
	})
	if err != nil {
		return nil, err
	}

	d := &Device{
		Name:       opts.Name,
		Events:     log,
		Clock:      clock,
		Meter:      meter,
		Phases:     phases,
		Internal:   internal,
		External:   external,
		SlotA:      slotA,
		SlotB:      slotB,
		Recovery:   recovery,
		Bootloader: bl,
		Verifier:   ver,
		opts:       opts,
		scratch:    scratch,
		journal:    journal,
		rjournal:   rjournal,
		recJournal: recJournal,
		secRegion:  secRegion,
		secVer:     secVer,
	}
	if err := d.rebuildAgent(); err != nil {
		return nil, err
	}
	return d, nil
}

// rebuildAgent recreates the update agent after a (re)boot: it targets
// the slot that is not running.
func (d *Device) rebuildAgent() error {
	target := d.SlotB
	if d.running == d.SlotB {
		target = d.SlotA
	}
	a, err := agent.New(agent.Config{
		DeviceID:            d.opts.DeviceID,
		AppID:               d.opts.AppID,
		Targets:             []*slot.Slot{target},
		Running:             d.running,
		Verifier:            d.Verifier,
		NonceSource:         security.NewDeterministicReader(d.opts.NonceSeed + fmt.Sprint(d.reboots)),
		SupportDifferential: d.opts.SupportDifferential,
		Clock:               d.Clock,
		Phases:              d.Phases,
		PayloadKey:          d.opts.PayloadKey,
		Journal:             d.recJournal,
		CheckpointEvery:     d.opts.CheckpointEvery,
		Events:              d.Events,
		Telemetry:           d.opts.Telemetry,
		SecVer:              d.secVer,
		TimeSource:          d.opts.TimeSource,
	})
	if err != nil {
		return err
	}
	d.Agent = a
	return nil
}

// Running returns the slot currently executing, or nil before first
// boot.
func (d *Device) Running() *slot.Slot { return d.running }

// ReceptionPending reports whether the reception journal holds a valid
// download checkpoint (i.e. an interrupted transfer awaits resume).
func (d *Device) ReceptionPending() bool { return slot.ReceptionPending(d.rjournal) }

// SecurityVersion reports the persisted anti-rollback counter: the
// highest manifest security version the device has accepted.
func (d *Device) SecurityVersion() uint32 { return d.secVer.Value() }

// RunningVersion reports the executing firmware version, or 0.
func (d *Device) RunningVersion() uint16 {
	if d.running == nil {
		return 0
	}
	return d.running.Version()
}

// Reboots reports how many times the device has rebooted.
func (d *Device) Reboots() int { return d.reboots }

// FactoryProvision writes a prepared update image directly into slot A
// and boots it — modelling factory programming over JTAG rather than an
// over-the-air update.
func (d *Device) FactoryProvision(u *updateserver.Update) error {
	if u.Differential {
		return errors.New("device: factory image must be a full image")
	}
	payload := u.Payload
	if u.Encrypted {
		if len(d.opts.PayloadKey) == 0 {
			return errors.New("device: encrypted factory image but no payload key")
		}
		var err error
		payload, err = security.DecryptPayload(d.opts.PayloadKey, payload)
		if err != nil {
			return err
		}
	}
	w, err := d.SlotA.BeginReceive()
	if err != nil {
		return err
	}
	m := u.Manifest
	if err := d.SlotA.WriteManifest(&m); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	if err := d.SlotA.MarkComplete(); err != nil {
		return err
	}
	if d.Recovery != nil {
		if err := d.SlotA.CopyTo(d.Recovery); err != nil {
			return fmt.Errorf("device: write recovery image: %w", err)
		}
	}
	_, err = d.Reboot()
	return err
}

// Reboot power-cycles the device: charges the reboot cost, runs the
// bootloader (verification + loading phases), and restarts the agent in
// the newly running firmware. When the reboot applies a staged update,
// its loading time is contributed to the update's phase span and the
// span is ended with the boot outcome.
func (d *Device) Reboot() (bootloader.Result, error) {
	// Snapshot the staged update's identity before the bootloader (and
	// the agent rebuild) discard it; factory provisions and plain reboots
	// carry no staged manifest and produce no span.
	var spanKey telemetry.SpanKey
	spanUpdate := d.opts.Telemetry != nil && d.Agent != nil && d.Agent.Manifest() != nil
	if spanUpdate {
		tok := d.Agent.Token()
		spanKey = telemetry.SpanKey{
			DeviceID: d.opts.DeviceID,
			AppID:    d.opts.AppID,
			From:     tok.CurrentVersion,
			To:       d.Agent.Manifest().Version,
		}
	}
	loadingBefore := d.Phases.Phase(PhaseLoading)

	d.reboots++
	d.Meter.ChargeReboot()
	d.Events.Emit(events.KindRebooted, d.RunningVersion(), "")
	if d.opts.RebootTime > 0 {
		if err := d.Phases.Measure(PhaseLoading, func() error {
			d.Clock.Advance(d.opts.RebootTime)
			return nil
		}); err != nil {
			return bootloader.Result{}, err
		}
	}
	res, err := d.Bootloader.Boot()
	if spanUpdate {
		spans := d.opts.Telemetry.Spans()
		spans.Record(spanKey, telemetry.PhaseLoading, d.Phases.Phase(PhaseLoading)-loadingBefore)
		switch {
		case err != nil:
			spans.End(spanKey, "boot-failed")
		case res.RolledBack:
			spans.End(spanKey, "rolled-back")
		default:
			spans.End(spanKey, "installed")
		}
	}
	if err != nil {
		d.Events.Emit(events.KindBootFailed, 0, err.Error())
		return res, err
	}
	d.Events.Emit(events.KindBootVerified, res.Version, "slot "+res.Booted.Name)
	if res.Installed {
		d.Events.Emit(events.KindInstalled, res.Version, "")
	}
	if res.RolledBack {
		d.Events.Emit(events.KindRolledBack, res.Version, "")
	}
	d.running = res.Booted
	if err := d.rebuildAgent(); err != nil {
		return res, err
	}
	return res, nil
}

// ReadyToReboot reports whether the agent holds a verified update.
func (d *Device) ReadyToReboot() bool {
	return d.Agent.State() == agent.StateReadyToReboot
}

// ApplyStagedUpdate reboots into a staged, verified update and returns
// the boot result. It fails if no update is staged — UpKit never
// reboots on an unverified image.
func (d *Device) ApplyStagedUpdate() (bootloader.Result, error) {
	if !d.ReadyToReboot() {
		return bootloader.Result{}, ErrNoUpdateStaged
	}
	return d.Reboot()
}

// Manifest returns the manifest of the running image, or nil.
func (d *Device) Manifest() *manifest.Manifest {
	if d.running == nil {
		return nil
	}
	m, err := d.running.Manifest()
	if err != nil {
		return nil
	}
	return m
}
