// Command tndserve is the pattern query daemon: an HTTP/JSON server
// over one or more persisted pattern/embedding stores (written by
// tndfsg/tndtemporal/experiments with -store). It answers pattern
// lookup by code (singly or in batches), support and TID queries,
// per-level listings, and per-location occurrence queries — all
// decoded from the stored embedding lists, never by re-mining or
// re-matching.
//
// Usage:
//
//	tndserve -store out.tnd [-store more.tnd ...] [-addr :8321] [-parallelism N]
//	         [-cache-bytes N] [-access-log=false] [-pprof-addr 127.0.0.1:6060]
//
// Endpoints:
//
//	GET  /healthz
//	GET  /metrics
//	GET  /v1/stores
//	GET  /v1/levels
//	GET  /v1/levels/{edges}
//	GET  /v1/patterns/{code}
//	POST /v1/patterns:batch            {"codes": ["...", ...]}
//	GET  /v1/patterns/{code}/support
//	GET  /v1/patterns/{code}/occurrences[?limit=N]
//	GET  /v1/locations/{label}/patterns
//	POST /v1/admin/remount             {"store": "name", "path": "new.tnd"}
//
// A running daemon hot-swaps a mounted store for a newer generation
// of its lineage with no restart and no dropped request: the
// publisher POSTs the path to /v1/admin/remount (tndingest -remount
// does so after each durable publish); stale or foreign ones get 409.
//
// Every request is counted and timed into the built-in metrics
// registry, exposed in Prometheus text form at GET /metrics, and
// logged as one JSON line on stderr (disable with -access-log=false).
// -pprof-addr starts net/http/pprof on a second, private listener —
// profiling stays off the serving port and off by default.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener
// closes, in-flight requests finish, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers on DefaultServeMux
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"tnkd/internal/obs"
	"tnkd/internal/serve"
	"tnkd/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tndserve: ")
	var paths []string
	flag.Func("store", "store file to serve (repeatable)", func(v string) error {
		paths = append(paths, v)
		return nil
	})
	addr := flag.String("addr", ":8321", "listen address")
	parallelism := flag.Int("parallelism", 0, "worker count for store scans (0 = all CPUs)")
	cacheBytes := flag.Int("cache-bytes", 0, "per-mount pattern-body cache budget (0 = 8 MiB, negative disables)")
	accessLog := flag.Bool("access-log", true, "log one JSON line per request on stderr")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060; empty disables)")
	flag.Parse()
	if len(paths) == 0 {
		log.Fatal("at least one -store file is required")
	}

	var mounts []serve.Mount
	used := make(map[string]int)
	for _, p := range paths {
		r, err := store.Open(p)
		if err != nil {
			log.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
		if n := used[name]; n > 0 {
			name = fmt.Sprintf("%s#%d", name, n)
		}
		used[strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))]++
		mounts = append(mounts, serve.Mount{Name: name, Reader: r})
		log.Printf("mounted %s: format v%d (exact codes, persisted location index), %d transactions, %d patterns across %d levels",
			p, store.FormatVersion, r.NumTransactions(), r.NumPatterns(), len(r.Levels()))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger := obs.Discard()
	if *accessLog {
		logger = obs.NewLogger(os.Stderr, slog.LevelInfo)
	}
	srv := serve.New(mounts, serve.Options{
		Parallelism:       *parallelism,
		PatternCacheBytes: *cacheBytes,
		Logger:            logger,
	})
	if *pprofAddr != "" {
		// pprof rides DefaultServeMux (the blank import registered it)
		// on its own listener, so profiling endpoints never share the
		// public serving port.
		log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}
	log.Printf("listening on %s", *addr)
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		log.Fatal(err)
	}
	// The server owns the readers now: remounts already closed any
	// replaced ones, Close drains and closes the rest.
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	log.Print("shut down cleanly")
}
