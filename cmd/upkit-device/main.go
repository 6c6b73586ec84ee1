// Command upkit-device runs a simulated constrained IoT device that
// pulls updates from a live upkit-server over CoAP/UDP: a full
// end-to-end demonstration of the framework against real sockets.
//
// Usage:
//
//	upkit-sign keygen -seed demo-vendor -out vendor
//	upkit-sign keygen -seed demo-server -out server
//	upkit-sign release -key vendor.key -app 0x2A -version 1 -fw fw-v1.bin -out v1.upk
//	upkit-sign release -key vendor.key -app 0x2A -version 2 -fw fw-v2.bin -out v2.upk
//	upkit-sign provision -in v1.upk -server-key server.key \
//	    -device 0xD0D0CAFE -out v1.factory.upk
//	upkit-server -seed demo-server -image v1.upk -image v2.upk &
//	upkit-device -addr 127.0.0.1:5683 \
//	    -vendor-pub vendor.pub -server-pub server.pub -factory v1.factory.upk
//
// The device factory-provisions the v1 image, polls the server, pulls
// the v2 update through the full UpKit flow (device token, double
// verification, staged install, reboot) and prints the phase breakdown.
package main

import (
	"flag"
	"fmt"
	"os"

	"upkit/internal/bootloader"
	"upkit/internal/coap"
	"upkit/internal/device"
	"upkit/internal/manifest"
	"upkit/internal/platform"
	"upkit/internal/security"
	"upkit/internal/verifier"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "upkit-device:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:5683", "update server address")
	vendorPub := flag.String("vendor-pub", "", "vendor public key file")
	serverPub := flag.String("server-pub", "", "update-server public key file")
	factory := flag.String("factory", "", "factory image (.upk) to provision as the running firmware")
	deviceID := flag.Uint("device", 0xD0D0CAFE, "device ID")
	appID := flag.Uint("app", 0x2A, "application ID")
	mode := flag.String("mode", "static", "slot configuration: static or ab")
	suiteName := flag.String("suite", "tinycrypt", "crypto suite")
	diff := flag.Bool("differential", true, "advertise differential-update support")
	state := flag.String("state", "", "optional directory persisting the device's flash across runs")
	flag.Parse()

	if *vendorPub == "" || *serverPub == "" || *factory == "" {
		return fmt.Errorf("need -vendor-pub, -server-pub, and -factory")
	}
	keys, err := loadKeys(*vendorPub, *serverPub)
	if err != nil {
		return err
	}
	bootMode := bootloader.ModeStatic
	if *mode == "ab" {
		bootMode = bootloader.ModeAB
	}
	dev, err := newDevice(*suiteName, keys, bootMode, uint32(*deviceID), uint32(*appID), *diff)
	if err != nil {
		return err
	}
	restored := false
	if *state != "" {
		restored, err = dev.RestoreState(*state)
		if err != nil {
			return err
		}
	}
	if restored {
		fmt.Printf("restored flash state from %s\n", *state)
	} else if err := provision(dev, *factory); err != nil {
		return err
	}
	if *state != "" {
		defer func() {
			if err := dev.SaveState(*state); err != nil {
				fmt.Fprintln(os.Stderr, "upkit-device: save state:", err)
			} else {
				fmt.Printf("flash state saved to %s\n", *state)
			}
		}()
	}
	fmt.Printf("device %#x running v%d; polling %s\n",
		uint32(*deviceID), dev.RunningVersion(), *addr)

	ex, err := coap.DialUDP(*addr)
	if err != nil {
		return err
	}
	defer ex.Close()
	// Content-addressed transfer: the payload arrives as named blocks,
	// which any upkit-proxy between here and the origin can cache for
	// the rest of the wave.
	client := &coap.PullClient{Ex: ex, Agent: dev.Agent, AppID: uint32(*appID),
		Sources: []coap.BlockSource{{Name: "server", Ex: ex}}}

	latest, err := client.Poll()
	if err != nil {
		return fmt.Errorf("poll: %w", err)
	}
	fmt.Printf("server advertises v%d\n", latest)
	if latest <= dev.RunningVersion() {
		fmt.Println("already up to date")
		return nil
	}

	staged, err := client.CheckAndUpdate()
	if err != nil {
		return fmt.Errorf("update: %w", err)
	}
	if !staged {
		return fmt.Errorf("no update staged")
	}
	m := dev.Agent.Manifest()
	fmt.Printf("staged v%d (differential: %v, payload %d bytes); rebooting\n",
		m.Version, m.IsDifferential(), m.PayloadSize())
	res, err := dev.ApplyStagedUpdate()
	if err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	fmt.Printf("booted v%d from slot %s (installed: %v)\n",
		res.Version, res.Booted.Name, res.Installed)
	fmt.Printf("virtual phase breakdown: verification %.2fs, loading %.2fs, total %.2fs\n",
		dev.Phases.Phase("verification").Seconds(),
		dev.Phases.Phase("loading").Seconds(),
		dev.Clock.Now().Seconds())
	fmt.Printf("energy: %s\n", dev.Meter)
	return nil
}

// newDevice builds the simulated device. The CryptoAuthLib suite
// verifies only against keys sealed in its HSM, so the vendor and
// server keys go into slots 0 and 1 before the suite is built.
func newDevice(suiteName string, keys verifier.Keys, mode bootloader.Mode,
	deviceID, appID uint32, diff bool) (*device.Device, error) {
	hsm := security.NewHSM()
	if err := hsm.Provision(0, keys.Vendor, true); err != nil {
		return nil, err
	}
	if err := hsm.Provision(1, keys.Server, true); err != nil {
		return nil, err
	}
	suite, err := security.SuiteByName(suiteName, hsm)
	if err != nil {
		return nil, err
	}
	return device.New(device.Options{
		Name:                "upkit-device",
		MCU:                 platform.NRF52840(),
		Mode:                mode,
		SlotBytes:           platform.BuildSlotBytes(platform.Pull),
		Suite:               suite,
		Keys:                keys,
		DeviceID:            deviceID,
		AppID:               appID,
		SupportDifferential: diff,
		NonceSeed:           fmt.Sprintf("upkit-device-%d", os.Getpid()),
		RebootTime:          device.DefaultRebootTime,
		JumpTime:            device.DefaultJumpTime,
	})
}

func loadKeys(vendorPath, serverPath string) (verifier.Keys, error) {
	vendorData, err := os.ReadFile(vendorPath)
	if err != nil {
		return verifier.Keys{}, err
	}
	vendor, err := security.DecodePublicKey(vendorData)
	if err != nil {
		return verifier.Keys{}, err
	}
	serverData, err := os.ReadFile(serverPath)
	if err != nil {
		return verifier.Keys{}, err
	}
	server, err := security.DecodePublicKey(serverData)
	if err != nil {
		return verifier.Keys{}, err
	}
	return verifier.Keys{Vendor: vendor, Server: server}, nil
}

// provision writes a factory image (vendor-signed and server-signed by
// `upkit-sign provision`) into slot A and boots it.
func provision(dev *device.Device, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < manifest.EncodedSize {
		return fmt.Errorf("%s: smaller than a manifest", path)
	}
	m, err := manifest.Unmarshal(data[:manifest.EncodedSize])
	if err != nil {
		return err
	}
	fw := data[manifest.EncodedSize:]
	w, err := dev.SlotA.BeginReceive()
	if err != nil {
		return err
	}
	if err := dev.SlotA.WriteManifest(m); err != nil {
		return err
	}
	if _, err := w.Write(fw); err != nil {
		return err
	}
	if err := dev.SlotA.MarkComplete(); err != nil {
		return err
	}
	_, err = dev.Reboot()
	return err
}
