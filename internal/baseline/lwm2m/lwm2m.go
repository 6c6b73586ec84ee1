// Package lwm2m models the LwM2M firmware-update object as the paper's
// pull-approach baseline (§II): the client downloads whatever the
// firmware resource serves and stores it unverified; integrity,
// authenticity, and — crucially — freshness are delegated to the
// transport (DTLS) and to the mcuboot bootloader.
//
// The model makes the paper's architectural argument executable: with a
// direct, mutually authenticated channel to the server, replays are
// blocked by the transport; insert a compromised gateway (or any
// store-and-forward hop, like a smartphone) and the freshness guarantee
// silently disappears, because nothing in the *image* binds it to the
// request.
package lwm2m

import (
	"errors"
	"fmt"

	"upkit/internal/baseline/mcumgr"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
)

// Client errors.
var (
	ErrNoUpdate = errors.New("lwm2m: no newer version on server")
	ErrNoImage  = errors.New("lwm2m: server has no image")
)

// Gateway is a hop between the device and the server. A nil-returning
// Intercept forwards the genuine image.
type Gateway struct {
	// Intercept may replace the image in transit (replay/downgrade
	// attack). It runs only when the channel is not end-to-end secure.
	Intercept func(genuine *vendorserver.Image) *vendorserver.Image
}

// Client is the device-side LwM2M firmware-update object.
type Client struct {
	// Server is the LwM2M server's firmware resource.
	Server *updateserver.Server
	// Store writes the downloaded package to the staging slot (LwM2M
	// reuses the same unverified storage path as mcumgr).
	Store *mcumgr.Agent
	// AppID selects the firmware package.
	AppID uint32
	// CurrentVersion is the running firmware version.
	CurrentVersion uint16
	// SecureChannel models an end-to-end DTLS session with the server.
	// When false, traffic passes through Gateway, which may tamper.
	SecureChannel bool
	// Gateway is the intermediate hop (border router / smartphone).
	Gateway *Gateway
}

// Download performs the LwM2M firmware "Package URI" flow: fetch the
// latest image and write it to the staging slot. No verification
// happens on the device; the bootloader is the only check.
func (c *Client) Download() (uint16, error) {
	latest, ok := c.Server.Latest(c.AppID)
	if !ok {
		return 0, ErrNoImage
	}
	if latest <= c.CurrentVersion {
		return 0, ErrNoUpdate
	}
	img, ok := c.Server.LatestImage(c.AppID)
	if !ok {
		return 0, ErrNoImage
	}
	if !c.SecureChannel && c.Gateway != nil && c.Gateway.Intercept != nil {
		if injected := c.Gateway.Intercept(img); injected != nil {
			img = injected
		}
	}
	enc, err := wireImage(img)
	if err != nil {
		return 0, err
	}
	if err := c.Store.Upload(enc, 64); err != nil {
		return 0, fmt.Errorf("lwm2m: store package: %w", err)
	}
	return img.Manifest.Version, nil
}

// wireImage serialises a vendor image as manifest || firmware, the
// update-image layout shared with UpKit slots.
func wireImage(img *vendorserver.Image) ([]byte, error) {
	m := img.Manifest
	enc, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(enc)+len(img.Firmware))
	out = append(out, enc...)
	out = append(out, img.Firmware...)
	return out, nil
}
