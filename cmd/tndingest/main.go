// Command tndingest is the crash-safe continuous-ingest daemon and
// the only producer of successor generations: it watches <dir>/spool
// for JSON transaction batches (and accepts them over POST
// /v1/ingest), appends each arrival to the current generation's
// transactions and mines them afresh, publishes generation N+1 (its
// store records the parent and generation number) via write-to-temp +
// fsync + atomic rename under a journaled intent record, triggers
// tndserve's hot remount, and garbage-collects generations older than
// -keep. tndtemporal writes generation-0 stores only; -seed adopts
// one as the chain's start.
//
// Usage:
//
//	tndingest -dir data [-seed base.tnd] [-addr :8322]
//	          [-remount http://localhost:8321/v1/admin/remount]
//	          [-support-fraction 0.05 | -min-support N]
//	          [-window N] [-keep 3] [-max-attempts 5] [-poll 500ms]
//
// The daemon is restart-idempotent at every step: kill -9 it at any
// point and the restart resumes from the journal — generation N keeps
// serving, no batch is lost or folded twice, and the fold chain stays
// byte-identical to an uninterrupted run (see the ingest-crash-matrix
// CI job).
//
// -window N turns the daemon from append-only into the system's one
// sliding window, over the last N ingest units (batches; an adopted
// seed store counts as one unit): each fold retires the units that
// fall off the front and appends the new batch, and every published
// generation is a fresh mine of exactly the window's transactions. Retirement
// publishes go through the same journal protocol as append folds, so
// the crash guarantees above hold unchanged; `/v1/ingest/status`
// reports the served window's bounds, unit count and last
// retired-transaction count.
//
// Batch-stream generator mode (for replaying the Section 6 temporal
// data as an arrival stream):
//
//	tndingest -make-batches out/ -scale 0.04 -from-day 151 -days 157
//
// writes one batch file per non-empty day in [from-day, days] — the
// same per-day transaction slices a one-shot `tndtemporal -days N`
// run mines, so spooling them into a daemon seeded with the
// -days (from-day - 1) store converges to the identical pattern set.
//
// Endpoints: POST /v1/ingest (spool a batch, 202), GET
// /v1/ingest/status (health JSON), GET /metrics (Prometheus text),
// GET /healthz. SIGINT/SIGTERM shut the daemon down cleanly.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"tnkd/internal/experiments"
	"tnkd/internal/ingest"
	"tnkd/internal/obs"
	"tnkd/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tndingest: ")
	dir := flag.String("dir", "", "data directory (spool/, store/, applied/, poison/, ingest.journal)")
	seed := flag.String("seed", "", "store file adopted as the initial generation when store/ is empty")
	addr := flag.String("addr", ":8322", "listen address")
	remountURL := flag.String("remount", "", "tndserve remount endpoint to POST each published generation to (e.g. http://localhost:8321/v1/admin/remount)")
	supportFraction := flag.Float64("support-fraction", 0, "recompute absolute support per fold as this fraction of the combined transaction count (0 = use -min-support or inherit the store's)")
	minSupport := flag.Int("min-support", 0, "fixed absolute support threshold (0 = inherit from the current store)")
	window := flag.Int("window", 0, "slide a window of the most recent N ingest units (batches; a seed store is one unit): older units retire on every fold, each generation byte-identical to a fresh mine of the window (0 = append-only)")
	keep := flag.Int("keep", 3, "generations retained by GC (current plus keep-1 predecessors)")
	checkpointEvery := flag.Int("checkpoint-every", 512, "journal records between checkpoints (compaction to the retained window's publish set)")
	maxAttempts := flag.Int("max-attempts", 5, "fold attempts before a failing batch is quarantined to poison/")
	poll := flag.Duration("poll", 500*time.Millisecond, "spool scan interval")
	parallelism := flag.Int("parallelism", 0, "fold worker count (0 = all CPUs, 1 = serial)")
	accessLog := flag.Bool("access-log", true, "log one JSON line per event on stderr")

	makeBatches := flag.String("make-batches", "", "write per-day batch files to this directory instead of running the daemon")
	scale := flag.Float64("scale", 0.05, "(make-batches) synthetic dataset scale")
	fromDay := flag.Int("from-day", 1, "(make-batches) first day to emit, 1-based")
	days := flag.Int("days", 0, "(make-batches) last day to emit (0 = all days)")
	flag.Parse()

	if *makeBatches != "" {
		if err := writeBatchFiles(*makeBatches, *scale, *fromDay, *days); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *dir == "" {
		log.Fatal("-dir is required")
	}
	if *seed != "" {
		// Pre-flight the seed at flag time: a mistyped path must fail
		// in milliseconds, not after the first batch arrives.
		r, err := store.Open(*seed)
		if err != nil {
			log.Fatal(err)
		}
		r.Close() //nolint:errcheck
	}

	logger := obs.Discard()
	if *accessLog {
		logger = obs.NewLogger(os.Stderr, slog.LevelInfo)
	}
	opts := ingest.Options{
		Dir:             *dir,
		Seed:            *seed,
		SupportFraction: *supportFraction,
		MinSupport:      *minSupport,
		Window:          *window,
		KeepGenerations: *keep,
		CheckpointEvery: *checkpointEvery,
		MaxAttempts:     *maxAttempts,
		PollInterval:    *poll,
		Parallelism:     *parallelism,
		Logger:          logger,
	}
	if *remountURL != "" {
		opts.Remount = httpRemount(*remountURL)
	}
	d, err := ingest.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	log.Printf("generation %d mounted from %s", d.Generation(), d.CurrentPath())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := newHTTPServer(*addr, d.Handler())
	go func() {
		log.Printf("listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("http: %v", err)
			stop()
		}
	}()

	if err := d.Run(ctx); err != nil {
		log.Fatal(err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx) //nolint:errcheck
	log.Print("shut down cleanly")
}

// writeTimeout bounds how long one request may take from the end of
// its headers to the end of its response, as in tndserve: a client
// that stops reading, or a handler that stalls past it, loses the
// connection instead of holding it open.
const writeTimeout = 30 * time.Second

// newHTTPServer builds the listener-side server for the daemon's
// endpoints.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 5 * time.Second, WriteTimeout: writeTimeout}
}

// httpRemount returns a Remount callback that POSTs the published
// path to tndserve's admin endpoint. A 409 means the server already
// serves an equal-or-newer generation (e.g. the startup re-announce of
// a generation it already mounted, or a manual admin remount got
// there first) — reported as ErrRemountStale, which the daemon treats
// as success.
func httpRemount(url string) func(path string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	return func(path string) error {
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		body, err := json.Marshal(map[string]string{"path": abs})
		if err != nil {
			return err
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		switch {
		case resp.StatusCode == http.StatusOK:
			return nil
		case resp.StatusCode == http.StatusConflict:
			return fmt.Errorf("%w: %s", ingest.ErrRemountStale, bytes.TrimSpace(msg))
		default:
			return fmt.Errorf("remount %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
		}
	}
}

// writeBatchFiles slices the Figure 4 temporal partition into per-day
// batch files b-NNNNNN.json (numbered by day), skipping days the
// partition filtered empty.
func writeBatchFiles(outDir string, scale float64, fromDay, lastDay int) error {
	if fromDay < 1 {
		return fmt.Errorf("-from-day must be >= 1, got %d", fromDay)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	p := experiments.NewParams(scale)
	p.Days = lastDay
	part := experiments.Figure4Partition(p)
	nDays := len(part.DayStarts)
	if fromDay > nDays {
		return fmt.Errorf("-from-day %d is beyond the partition's %d days", fromDay, nDays)
	}
	written := 0
	for day := fromDay; day <= nDays; day++ {
		start := part.DayStarts[day-1]
		end := len(part.Transactions)
		if day < nDays {
			end = part.DayStarts[day]
		}
		if start == end {
			continue // day fully filtered away
		}
		name := fmt.Sprintf("b-%06d.json", day)
		data, err := ingest.EncodeBatch(name, part.Transactions[start:end])
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, name), data, 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s: %d transactions (day %d)", name, end-start, day)
		written++
	}
	log.Printf("%d batch files in %s (days %d..%d)", written, outDir, fromDay, nDays)
	return nil
}
