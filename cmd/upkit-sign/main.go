// Command upkit-sign is the host-side signing tool: it generates key
// pairs and builds vendor-signed update images from raw firmware
// binaries (the generation phase of the paper, Fig. 2 step 1).
//
// Usage:
//
//	upkit-sign keygen  -out vendor            # vendor.key + vendor.pub
//	upkit-sign release -key vendor.key -app 0x2A -version 2 \
//	    -fw firmware.bin -out app-v2.upk
//	upkit-sign provision -in app-v1.upk -server-key server.key \
//	    -device 0xD0D0CAFE -out app-v1.factory.upk
//	upkit-sign inspect -in app-v2.upk [-vendor-pub vendor.pub]
//	upkit-sign rotate -root root.key -role server -id 2 \
//	    -pub server2.pub -out server2.ukr
//	upkit-sign revoke -root root.key -seq 1 -keys server:1 \
//	    -out revocations.url
//	upkit-sign bundle -records server2.ukr -revocation revocations.url \
//	    -out keys.ukb
//
// An .upk file is the wire layout of an update image: the fixed-size
// manifest followed by the firmware. The update server (upkit-server)
// loads these files, adds the per-request second signature, and serves
// them to devices.
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"upkit/internal/manifest"
	"upkit/internal/security"
	"upkit/internal/suit"
	"upkit/internal/vendorserver"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "upkit-sign:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: upkit-sign keygen|release|provision|export-suit|inspect-suit|inspect|rotate|revoke|bundle [flags]")
	}
	switch args[0] {
	case "keygen":
		return keygen(args[1:])
	case "release":
		return release(args[1:])
	case "provision":
		return provision(args[1:])
	case "export-suit":
		return exportSUIT(args[1:])
	case "inspect-suit":
		return inspectSUIT(args[1:])
	case "inspect":
		return inspect(args[1:])
	case "rotate":
		return rotate(args[1:])
	case "revoke":
		return revoke(args[1:])
	case "bundle":
		return bundle(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func keygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ContinueOnError)
	out := fs.String("out", "upkit", "output basename (<out>.key, <out>.pub)")
	seed := fs.String("seed", "", "derive a deterministic key from a seed (simulation only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var key *security.PrivateKey
	var err error
	if *seed != "" {
		key = security.MustGenerateKey(*seed)
	} else {
		key, err = security.GenerateKey(rand.Reader)
		if err != nil {
			return err
		}
	}
	if err := os.WriteFile(*out+".key", security.EncodePrivateKey(key), 0o600); err != nil {
		return err
	}
	if err := os.WriteFile(*out+".pub", security.EncodePublicKey(key.Public()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s.key and %s.pub\n", *out, *out)
	return nil
}

func parseUint32(s string) (uint32, error) {
	v, err := strconv.ParseUint(s, 0, 32)
	return uint32(v), err
}

func release(args []string) error {
	fs := flag.NewFlagSet("release", flag.ContinueOnError)
	keyPath := fs.String("key", "", "vendor private key file")
	appStr := fs.String("app", "0x2A", "application/platform ID")
	version := fs.Uint("version", 0, "release version (>= 1)")
	linkStr := fs.String("link", "0xFFFFFFFF", "link offset (0xFFFFFFFF = position independent)")
	fwPath := fs.String("fw", "", "raw firmware binary")
	out := fs.String("out", "", "output image file (.upk)")
	suiteName := fs.String("suite", "tinycrypt", "crypto suite")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" || *fwPath == "" || *out == "" {
		return fmt.Errorf("release needs -key, -fw, and -out")
	}
	keyData, err := os.ReadFile(*keyPath)
	if err != nil {
		return err
	}
	key, err := security.DecodePrivateKey(keyData)
	if err != nil {
		return err
	}
	fw, err := os.ReadFile(*fwPath)
	if err != nil {
		return err
	}
	appID, err := parseUint32(*appStr)
	if err != nil {
		return fmt.Errorf("bad -app: %w", err)
	}
	link, err := parseUint32(*linkStr)
	if err != nil {
		return fmt.Errorf("bad -link: %w", err)
	}
	suite, err := security.SuiteByName(*suiteName, nil)
	if err != nil {
		return err
	}
	vendor := vendorserver.New(suite, key)
	img, err := vendor.BuildImage(vendorserver.Release{
		AppID:      appID,
		Version:    uint16(*version),
		LinkOffset: link,
		Firmware:   fw,
	})
	if err != nil {
		return err
	}
	enc, err := img.Manifest.MarshalBinary()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(enc, fw...), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: app %#x v%d, %d firmware bytes, digest %x…\n",
		*out, appID, *version, len(fw), img.Manifest.FirmwareDigest[:8])
	return nil
}

// provision adds the update server's signature to a vendor-signed
// image, binding it to one device ID — the factory-programming step
// that lets a freshly flashed device pass its own boot verification.
func provision(args []string) error {
	fs := flag.NewFlagSet("provision", flag.ContinueOnError)
	in := fs.String("in", "", "vendor-signed image file (.upk)")
	serverKey := fs.String("server-key", "", "update-server private key file")
	deviceStr := fs.String("device", "", "device ID the image is provisioned for")
	out := fs.String("out", "", "output image file")
	suiteName := fs.String("suite", "tinycrypt", "crypto suite")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *serverKey == "" || *deviceStr == "" || *out == "" {
		return fmt.Errorf("provision needs -in, -server-key, -device, and -out")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	if len(data) < manifest.EncodedSize {
		return fmt.Errorf("%s: smaller than a manifest", *in)
	}
	m, err := manifest.Unmarshal(data[:manifest.EncodedSize])
	if err != nil {
		return err
	}
	deviceID, err := parseUint32(*deviceStr)
	if err != nil {
		return fmt.Errorf("bad -device: %w", err)
	}
	keyData, err := os.ReadFile(*serverKey)
	if err != nil {
		return err
	}
	key, err := security.DecodePrivateKey(keyData)
	if err != nil {
		return err
	}
	suite, err := security.SuiteByName(*suiteName, nil)
	if err != nil {
		return err
	}
	m.DeviceID = deviceID
	m.Nonce = 0xFAC70000 // factory pseudo-request
	if err := m.SignServer(suite, key); err != nil {
		return err
	}
	enc, err := m.MarshalBinary()
	if err != nil {
		return err
	}
	outData := append(enc, data[manifest.EncodedSize:]...)
	if err := os.WriteFile(*out, outData, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: provisioned for device %#x\n", *out, deviceID)
	return nil
}

// exportSUIT renders an image's manifest as a signed SUIT-shaped CBOR
// envelope (IETF draft-ietf-suit-manifest interop, the paper's §VIII
// future work).
func exportSUIT(args []string) error {
	fs := flag.NewFlagSet("export-suit", flag.ContinueOnError)
	in := fs.String("in", "", "image file (.upk)")
	keyPath := fs.String("key", "", "signing key for the SUIT envelope")
	out := fs.String("out", "", "output envelope file (.suit)")
	suiteName := fs.String("suite", "tinycrypt", "crypto suite")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *keyPath == "" || *out == "" {
		return fmt.Errorf("export-suit needs -in, -key, and -out")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	if len(data) < manifest.EncodedSize {
		return fmt.Errorf("%s: smaller than a manifest", *in)
	}
	m, err := manifest.Unmarshal(data[:manifest.EncodedSize])
	if err != nil {
		return err
	}
	keyData, err := os.ReadFile(*keyPath)
	if err != nil {
		return err
	}
	key, err := security.DecodePrivateKey(keyData)
	if err != nil {
		return err
	}
	cryptoSuite, err := security.SuiteByName(*suiteName, nil)
	if err != nil {
		return err
	}
	env, err := suit.Export(m, cryptoSuite, key)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, env, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: SUIT envelope, %d bytes (sequence number %d)\n", *out, len(env), m.Version)
	return nil
}

// inspectSUIT prints a SUIT envelope in diagnostic form, optionally
// verifying its signature.
func inspectSUIT(args []string) error {
	fs := flag.NewFlagSet("inspect-suit", flag.ContinueOnError)
	in := fs.String("in", "", "SUIT envelope file (.suit)")
	pubPath := fs.String("pub", "", "optional public key to verify against")
	suiteName := fs.String("suite", "tinycrypt", "crypto suite")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("inspect-suit needs -in")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	fmt.Print(suit.Diagnostic(data))
	if *pubPath != "" {
		pub, err := readPublicKey(*pubPath)
		if err != nil {
			return err
		}
		cryptoSuite, err := suiteWithKeys(*suiteName, pub, nil)
		if err != nil {
			return err
		}
		if _, err := suit.Parse(data, cryptoSuite, pub); err != nil {
			fmt.Printf("signature: INVALID (%v)\n", err)
		} else {
			fmt.Println("signature: valid")
		}
	}
	return nil
}

func inspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	in := fs.String("in", "", "image file (.upk)")
	vendorPub := fs.String("vendor-pub", "", "vendor public key to verify against")
	serverPub := fs.String("server-pub", "", "update-server public key to verify against")
	suiteName := fs.String("suite", "tinycrypt", "crypto suite")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("inspect needs -in")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	if len(data) < manifest.EncodedSize {
		return fmt.Errorf("%s: smaller than a manifest", *in)
	}
	m, err := manifest.Unmarshal(data[:manifest.EncodedSize])
	if err != nil {
		return err
	}
	fw := data[manifest.EncodedSize:]
	var vendor, server *security.PublicKey
	if *vendorPub != "" {
		if vendor, err = readPublicKey(*vendorPub); err != nil {
			return err
		}
	}
	if *serverPub != "" {
		if server, err = readPublicKey(*serverPub); err != nil {
			return err
		}
	}
	suite, err := suiteWithKeys(*suiteName, vendor, server)
	if err != nil {
		return err
	}

	fmt.Printf("manifest of %s\n", *in)
	fmt.Printf("  app id       %#x\n", m.AppID)
	fmt.Printf("  version      %d\n", m.Version)
	fmt.Printf("  size         %d bytes (payload in file: %d)\n", m.Size, len(fw))
	fmt.Printf("  link offset  %#x\n", m.LinkOffset)
	fmt.Printf("  digest       %x\n", m.FirmwareDigest)
	fmt.Printf("  device id    %#x\n", m.DeviceID)
	fmt.Printf("  nonce        %#x\n", m.Nonce)
	fmt.Printf("  old version  %d (differential: %v)\n", m.OldVersion, m.IsDifferential())
	fmt.Printf("  patch size   %d\n", m.PatchSize)

	if !m.IsDifferential() {
		got := suite.Digest(fw)
		fmt.Printf("  digest check %v\n", got == m.FirmwareDigest)
	}
	if vendor != nil {
		fmt.Printf("  vendor sig   %v\n", m.VerifyVendorSig(suite, vendor))
	}
	if server != nil {
		fmt.Printf("  server sig   %v\n", m.VerifyServerSig(suite, server))
	}
	return nil
}

// readPublicKey reads a public key file.
func readPublicKey(path string) (*security.PublicKey, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return security.DecodePublicKey(data)
}

// suiteWithKeys builds the named suite for verifying against the given
// keys. The CryptoAuthLib suite verifies only against keys sealed in
// its HSM, so the vendor and server keys go into slots 0 and 1, as on a
// device; nil keys leave their slot empty.
func suiteWithKeys(name string, vendor, server *security.PublicKey) (security.Suite, error) {
	hsm := security.NewHSM()
	for slot, key := range []*security.PublicKey{vendor, server} {
		if key == nil {
			continue
		}
		if err := hsm.Provision(slot, key, true); err != nil {
			return nil, err
		}
	}
	return security.SuiteByName(name, hsm)
}

// parseRole maps the CLI role name to the wire enum.
func parseRole(s string) (security.KeyRole, error) {
	switch s {
	case "vendor":
		return security.RoleVendor, nil
	case "server":
		return security.RoleServer, nil
	default:
		return 0, fmt.Errorf("bad role %q: want vendor or server", s)
	}
}

// rotate emits a root-signed key record introducing a new vendor or
// update-server verification key. Publish the record (in a bundle) and
// devices start accepting manifests that name the new key ID; pair it
// with a revoke of the old ID to complete the rotation.
func rotate(args []string) error {
	fs := flag.NewFlagSet("rotate", flag.ContinueOnError)
	rootPath := fs.String("root", "", "vendor root private key file")
	roleStr := fs.String("role", "", "key role: vendor or server")
	id := fs.Uint("id", 0, "new key ID (non-zero)")
	pubPath := fs.String("pub", "", "new verification public key file (.pub)")
	notBefore := fs.Uint64("not-before", 0, "validity start, Unix seconds (0 = always)")
	notAfter := fs.Uint64("not-after", 0, "validity end, Unix seconds (0 = no expiry)")
	out := fs.String("out", "", "output signed key record (.ukr)")
	suiteName := fs.String("suite", "tinycrypt", "crypto suite")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rootPath == "" || *roleStr == "" || *id == 0 || *pubPath == "" || *out == "" {
		return fmt.Errorf("rotate needs -root, -role, -id, -pub, and -out")
	}
	role, err := parseRole(*roleStr)
	if err != nil {
		return err
	}
	rootData, err := os.ReadFile(*rootPath)
	if err != nil {
		return err
	}
	root, err := security.DecodePrivateKey(rootData)
	if err != nil {
		return err
	}
	pubData, err := os.ReadFile(*pubPath)
	if err != nil {
		return err
	}
	pub, err := security.DecodePublicKey(pubData)
	if err != nil {
		return err
	}
	suite, err := security.SuiteByName(*suiteName, nil)
	if err != nil {
		return err
	}
	rec := &security.KeyRecord{
		Role:      role,
		KeyID:     uint32(*id),
		NotBefore: *notBefore,
		NotAfter:  *notAfter,
		Key:       pub,
	}
	if err := rec.Sign(suite, root); err != nil {
		return err
	}
	enc, err := rec.MarshalBinary()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s key %d (not-before %d, not-after %d)\n",
		*out, role, *id, *notBefore, *notAfter)
	return nil
}

// revoke emits a root-signed revocation list. The -seq counter is the
// list's own anti-rollback: devices ignore lists whose sequence is not
// newer than the one they hold, so every new list must carry a higher
// sequence AND the full set of revoked keys (revocation is cumulative).
func revoke(args []string) error {
	fs := flag.NewFlagSet("revoke", flag.ContinueOnError)
	rootPath := fs.String("root", "", "vendor root private key file")
	seq := fs.Uint("seq", 0, "revocation sequence number (must exceed the last published)")
	list := fs.String("keys", "", "comma-separated role:id pairs, e.g. server:1,vendor:3")
	out := fs.String("out", "", "output signed revocation list (.url)")
	suiteName := fs.String("suite", "tinycrypt", "crypto suite")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rootPath == "" || *seq == 0 || *list == "" || *out == "" {
		return fmt.Errorf("revoke needs -root, -seq, -keys, and -out")
	}
	rootData, err := os.ReadFile(*rootPath)
	if err != nil {
		return err
	}
	root, err := security.DecodePrivateKey(rootData)
	if err != nil {
		return err
	}
	suite, err := security.SuiteByName(*suiteName, nil)
	if err != nil {
		return err
	}
	rl := &security.RevocationList{Seq: uint32(*seq)}
	for _, pair := range strings.Split(*list, ",") {
		roleStr, idStr, ok := strings.Cut(strings.TrimSpace(pair), ":")
		if !ok {
			return fmt.Errorf("bad -keys entry %q: want role:id", pair)
		}
		role, err := parseRole(roleStr)
		if err != nil {
			return err
		}
		id, err := parseUint32(idStr)
		if err != nil {
			return fmt.Errorf("bad key ID in %q: %w", pair, err)
		}
		rl.Revoked = append(rl.Revoked, security.RevocationEntry{Role: role, KeyID: id})
	}
	if err := rl.Sign(suite, root); err != nil {
		return err
	}
	enc, err := rl.MarshalBinary()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: revocation seq %d, %d key(s)\n", *out, *seq, len(rl.Revoked))
	return nil
}

// bundle packs signed key records and an optional revocation list into
// the single blob the update server distributes at /api/v1/keys (HTTP)
// and /upkit/keys (CoAP).
func bundle(args []string) error {
	fs := flag.NewFlagSet("bundle", flag.ContinueOnError)
	records := fs.String("records", "", "comma-separated signed key record files (.ukr)")
	revocation := fs.String("revocation", "", "signed revocation list file (.url), optional")
	out := fs.String("out", "", "output key bundle (.ukb)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *records == "" || *out == "" {
		return fmt.Errorf("bundle needs -records and -out")
	}
	var kb security.KeyBundle
	for _, path := range strings.Split(*records, ",") {
		data, err := os.ReadFile(strings.TrimSpace(path))
		if err != nil {
			return err
		}
		rec, err := security.ParseKeyRecord(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		kb.Records = append(kb.Records, rec)
	}
	if *revocation != "" {
		data, err := os.ReadFile(*revocation)
		if err != nil {
			return err
		}
		rl, err := security.ParseRevocationList(data)
		if err != nil {
			return fmt.Errorf("%s: %w", *revocation, err)
		}
		kb.Revocation = rl
	}
	enc, err := kb.MarshalBinary()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d record(s), revocation %v\n",
		*out, len(kb.Records), kb.Revocation != nil)
	return nil
}
