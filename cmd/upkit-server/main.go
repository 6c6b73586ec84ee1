// Command upkit-server runs an UpKit update server: it loads
// vendor-signed image files (built with upkit-sign), and serves them to
// pulling devices over CoAP/UDP, performing the per-request double
// signature for each device token it receives.
//
// Usage:
//
//	upkit-sign keygen -seed demo-server -out server
//	upkit-server -addr 127.0.0.1:5683 -http 127.0.0.1:8080 \
//	    -key server.key -image app-v1.upk -image app-v2.upk
//
// A matching device simulation (cmd/upkit-device) can then pull updates
// from it over a real UDP socket.
//
// The server only answers: devices and gateways poll it for the latest
// version and pull the update themselves (§III-B). Simulated fleets are
// driven by internal/fleet, which makes each device pull directly.
//
// Serve-path scaling flags: -patch-state <dir> persists computed
// differential patches across restarts, and -signers N bounds
// per-request ECDSA signing to a worker pool — see the README's
// "Scaling the update server" section.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"upkit/internal/coap"
	"upkit/internal/manifest"
	"upkit/internal/security"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
)

// shutdownGrace bounds how long a drain may take once a signal arrives.
const shutdownGrace = 5 * time.Second

// imageList collects repeated -image flags.
type imageList []string

func (l *imageList) String() string     { return strings.Join(*l, ",") }
func (l *imageList) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "upkit-server:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:5683", "UDP address to serve CoAP on")
	httpAddr := flag.String("http", "", "optional TCP address for the HTTP API (e.g. 127.0.0.1:8080)")
	keyPath := flag.String("key", "", "update-server private key file")
	seed := flag.String("seed", "", "derive the server key from a seed (simulation only)")
	suiteName := flag.String("suite", "tinycrypt", "crypto suite")
	stateDir := flag.String("state", "", "directory for the durable release store; empty keeps releases in memory only")
	patchDir := flag.String("patch-state", "", "directory for the durable patch store; empty recomputes patches after every restart")
	signers := flag.Int("signers", 0, "parallel manifest-signing pool size (0 disables the pool, negative = GOMAXPROCS)")
	var images imageList
	flag.Var(&images, "image", "vendor-signed image file (.upk); repeatable")
	keysPath := flag.String("keys", "", "key bundle file (.ukb) served at /api/v1/keys and /upkit/keys")
	flag.Parse()

	suite, err := security.SuiteByName(*suiteName, nil)
	if err != nil {
		return err
	}
	var key *security.PrivateKey
	switch {
	case *keyPath != "":
		data, err := os.ReadFile(*keyPath)
		if err != nil {
			return err
		}
		key, err = security.DecodePrivateKey(data)
		if err != nil {
			return err
		}
	case *seed != "":
		key = security.MustGenerateKey(*seed)
	default:
		return fmt.Errorf("need -key or -seed")
	}

	var serverOpts []updateserver.Option
	if *stateDir != "" {
		store, err := updateserver.NewFileStore(*stateDir)
		if err != nil {
			return err
		}
		defer store.Close()
		st := store.Stats()
		fmt.Printf("release store %s: %d apps, %d releases, %d bytes (loaded in %.3fs",
			*stateDir, st.Apps, st.Releases, st.Bytes, st.LoadSeconds)
		if st.TornTails > 0 {
			fmt.Printf(", %d torn log tail(s) truncated", st.TornTails)
		}
		fmt.Println(")")
		serverOpts = append(serverOpts, updateserver.WithStore(store))
	}

	if *patchDir != "" {
		ps, err := updateserver.OpenPatchStore(*patchDir, 0)
		if err != nil {
			return err
		}
		// Closed after the server (defers run LIFO): the server's last
		// in-flight computations may still persist their results.
		defer ps.Close()
		st := ps.Stats()
		fmt.Printf("patch store %s: %d records, %d bytes", *patchDir, st.Entries, st.Bytes)
		if st.TornTails > 0 {
			fmt.Printf(", %d torn log tail(s) truncated", st.TornTails)
		}
		fmt.Println()
		serverOpts = append(serverOpts, updateserver.WithPatchStore(ps))
	}
	if *signers != 0 {
		serverOpts = append(serverOpts, updateserver.WithSigners(*signers))
	}

	server := updateserver.New(suite, key, serverOpts...)
	defer server.Close()
	if *keysPath != "" {
		bundle, err := os.ReadFile(*keysPath)
		if err != nil {
			return err
		}
		// Validate the encoding up front; the server distributes the
		// bundle opaquely and devices verify it against their root key.
		kb, err := security.ParseKeyBundle(bundle)
		if err != nil {
			return fmt.Errorf("%s: %w", *keysPath, err)
		}
		server.SetKeyBundle(bundle)
		fmt.Printf("key bundle %s: %d record(s), revocation list: %v\n",
			*keysPath, len(kb.Records), kb.Revocation != nil)
	}
	if err := publishImages(server, images, os.Stdout); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var httpServer *http.Server
	httpErr := make(chan error, 1)
	if *httpAddr != "" {
		httpServer = &http.Server{
			Addr:              *httpAddr,
			Handler:           server.Handler(),
			ReadTimeout:       10 * time.Second,
			ReadHeaderTimeout: 5 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			fmt.Printf("serving HTTP API on %s (stats at /api/v1/stats, metrics at /api/v1/metrics)\n", *httpAddr)
			if err := httpServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				httpErr <- err
			}
			close(httpErr)
		}()
	} else {
		close(httpErr)
	}

	pull := coap.NewPullServer(server)
	udp, err := coap.ListenUDP(*addr, pull.Handle)
	if err != nil {
		return err
	}
	fmt.Printf("serving CoAP on %s (server pubkey %x…)\n", udp.Addr(), key.Public().Bytes()[:8])
	udpErr := make(chan error, 1)
	go func() { udpErr <- udp.Serve() }()

	// Block until a shutdown signal or a server failure, then drain:
	// the HTTP listener finishes in-flight requests, the CoAP socket
	// closes so Serve returns.
	var runErr error
	udpDone := false
	select {
	case <-ctx.Done():
		fmt.Println("shutting down")
	case err := <-httpErr:
		if err != nil {
			runErr = fmt.Errorf("http: %w", err)
		}
	case err := <-udpErr:
		udpDone = true
		if err != nil {
			runErr = fmt.Errorf("coap: %w", err)
		}
	}
	if httpServer != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if err := httpServer.Shutdown(shutdownCtx); err != nil && runErr == nil {
			runErr = fmt.Errorf("http shutdown: %w", err)
		}
		cancel()
	}
	if err := udp.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if !udpDone {
		<-udpErr
	}
	fmt.Println("spans:", server.Telemetry().Spans().Summary())
	return runErr
}

// publishImages loads and publishes each .upk file. An image the
// server already holds (same or older version, the normal case when a
// durable server restarts with unchanged -image flags) is skipped with
// a notice instead of failing startup.
func publishImages(server *updateserver.Server, paths []string, out io.Writer) error {
	for _, path := range paths {
		img, err := loadImage(path)
		if err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		switch err := server.Publish(img); {
		case err == nil:
			fmt.Fprintf(out, "published %s: app %#x v%d (%d bytes)\n",
				path, img.Manifest.AppID, img.Manifest.Version, len(img.Firmware))
		case errors.Is(err, updateserver.ErrStaleVersion):
			fmt.Fprintf(out, "skipping %s: app %#x v%d already stored\n",
				path, img.Manifest.AppID, img.Manifest.Version)
		default:
			return fmt.Errorf("publish %s: %w", path, err)
		}
	}
	return nil
}

// loadImage parses a .upk file (manifest || firmware) into a
// vendor-signed image.
func loadImage(path string) (*vendorserver.Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < manifest.EncodedSize {
		return nil, fmt.Errorf("smaller than a manifest")
	}
	m, err := manifest.Unmarshal(data[:manifest.EncodedSize])
	if err != nil {
		return nil, err
	}
	fw := data[manifest.EncodedSize:]
	if int(m.Size) != len(fw) {
		return nil, fmt.Errorf("manifest says %d firmware bytes, file has %d", m.Size, len(fw))
	}
	return &vendorserver.Image{Manifest: *m, Firmware: fw}, nil
}
