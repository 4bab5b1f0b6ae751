// Command logpsimd serves LogP simulations over HTTP with a content-addressed
// result cache.
//
// Because every simulation is a pure function of its job spec (the engines are
// bit-deterministic), the daemon hashes the canonical spec and serves repeat
// submissions from the cache byte-identically; N clients submitting the same
// spec concurrently share one simulation. See internal/service for the API.
//
// Usage:
//
//	logpsimd -addr 127.0.0.1:8080
//	curl -s localhost:8080/v1/jobs -d '{"program":"broadcast","machine":{"p":8,"l":6,"o":2,"g":4}}'
//
// The repository benchmark (logpbench, run with `bash logpbench/run.sh`)
// load-tests this daemon in-process; its sweep-hot workload drives the
// cached sweep path and checks every response body.
//
// Observability: every request is logged to stderr via log/slog
// (-log-level, -log-format) with its spec hash, cache verdict and
// per-stage latencies; the same stage timings come back to the client in
// an X-Logpsimd-Timing header; GET /metrics exports wall-clock service
// metrics in Prometheus text format; and -pprof mounts net/http/pprof.
// All of it observes the service — simulation results and their cached
// bodies are byte-identical with observability on or off.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"github.com/logp-model/logp/internal/obs"
	"github.com/logp-model/logp/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		workers      = flag.Int("workers", 0, "max simulations in flight (0 = GOMAXPROCS)")
		cacheEntries = flag.Int("cache-entries", 0, "result cache entry bound (0 = 4096)")
		cacheMB      = flag.Int64("cache-mb", 0, "result cache size bound in MiB (0 = 256)")
		logLevel     = flag.String("log-level", "info", "request log level: debug | info | warn | error")
		logFormat    = flag.String("log-format", "text", "request log format on stderr: text | json")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default: profiling endpoints are not for open networks)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "logpsimd:", err)
		os.Exit(2)
	}
	cfg := service.Config{
		Workers:      *workers,
		CacheEntries: *cacheEntries,
		CacheBytes:   *cacheMB << 20,
		Logger:       logger,
		EnablePprof:  *pprofOn,
	}

	srv := service.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "logpsimd:", err)
		os.Exit(1)
	}
	// Print the resolved address so scripts (and the smoke test) can find an
	// ephemeral port.
	fmt.Printf("logpsimd listening on http://%s\n", ln.Addr())
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, "logpsimd:", err)
		os.Exit(1)
	}
}
