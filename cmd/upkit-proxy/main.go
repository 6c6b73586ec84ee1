// Command upkit-proxy runs a caching CoAP proxy for UpKit firmware
// distribution: devices point their update client at the proxy instead
// of the origin update server, control traffic (version polls, update
// requests, name lookups) is forwarded verbatim, and content-addressed
// firmware blocks (GET /upkit/blocks) are served from an in-memory
// LRU cache that fills from the origin once per block — a wave of
// devices pulling the same release costs the origin one transfer, not
// one per device.
//
// The proxy needs no key material and is never trusted: every payload
// is covered by UpKit's double signature and digest, so a corrupted or
// stale cache produces a rejection and a failover on the device, never
// an installed image.
//
// Usage:
//
//	upkit-server -addr 127.0.0.1:5683 -key server.key -image app-v2.upk
//	upkit-proxy  -listen 127.0.0.1:5684 -origin 127.0.0.1:5683
//	upkit-device -addr 127.0.0.1:5684 ...   # devices talk to the proxy
//
// With -http the proxy exposes its cache counters
// (upkit_cache_{hit,miss,fill}_total, upkit_cache_{entries,bytes}) as a
// Prometheus scrape at /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"upkit/internal/coap"
	"upkit/internal/proxy"
	"upkit/internal/telemetry"
)

// shutdownGrace bounds how long a drain may take once a signal arrives.
const shutdownGrace = 5 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "upkit-proxy:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:5684", "UDP address to serve CoAP on")
	origin := flag.String("origin", "", "UDP address of the origin update server (required)")
	cacheKiB := flag.Int("cache", 0, "block cache size in KiB (0 = default)")
	httpAddr := flag.String("http", "", "optional TCP address for the /metrics scrape")
	instance := flag.String("instance", "", "proxy=<instance> label on exported metrics")
	flag.Parse()

	if *origin == "" {
		return errors.New("-origin is required: the proxy must know its update server")
	}
	up, err := coap.DialUDP(*origin)
	if err != nil {
		return err
	}
	defer up.Close()

	tel := telemetry.NewRegistry()
	cache := proxy.NewCache(up, proxy.CacheOptions{
		MaxBytes:  *cacheKiB * 1024,
		Telemetry: tel,
		Instance:  *instance,
	})

	srv, err := coap.ListenUDP(*listen, cache.Handle)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "upkit-proxy: serving CoAP on %s, origin %s\n", srv.Addr(), *origin)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var metrics *http.Server
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = tel.WritePrometheus(w)
		})
		metrics = &http.Server{Addr: *httpAddr, Handler: mux}
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			srv.Close()
			return err
		}
		fmt.Fprintf(os.Stderr, "upkit-proxy: metrics on http://%s/metrics\n", ln.Addr())
		go func() { _ = metrics.Serve(ln) }()
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	select {
	case <-ctx.Done():
		srv.Close()
		<-done
	case err := <-done:
		if err != nil {
			return err
		}
	}
	if metrics != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		_ = metrics.Shutdown(shutdownCtx)
	}
	return nil
}
