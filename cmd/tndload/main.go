// Command tndload is the load generator for tndserve: it discovers
// the served pattern codes, hammers the daemon with a mixed workload
// (point lookups, batches, support, locations, store listings) from
// concurrent workers for a fixed duration, and prints per-class
// latency percentiles and throughput as JSON on stdout.
//
// Usage:
//
//	tndload -base-url http://127.0.0.1:8321 [-duration 10s]
//	        [-workers 4] [-batch 32] [-max-codes N] [-label L ...]
//
// It prints a summary on stderr and exits non-zero when the run breaks
// a rule of loadtest.Result.Gate: a failed request, a client/server
// request-count mismatch against the daemon's /metrics, too little
// batch speedup over point queries on codes per busy second, or a point
// p99 over its ceiling. The CI serve-load job runs it against a
// daemon that is hot-swapped to a newer store generation mid-run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"os"
	"time"

	"tnkd/internal/serve/loadtest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tndload: ")
	baseURL := flag.String("base-url", "http://127.0.0.1:8321", "server to drive")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	workers := flag.Int("workers", 4, "concurrent client workers")
	batch := flag.Int("batch", 32, "codes per batch request")
	maxCodes := flag.Int("max-codes", 0, "cap the discovered code set (0 = all)")
	var labels []string
	flag.Func("label", "location label to query (repeatable; discovered when omitted)", func(v string) error {
		labels = append(labels, v)
		return nil
	})
	flag.Parse()

	ctx := context.Background()
	codes, discovered, err := loadtest.Discover(ctx, nil, *baseURL)
	if err != nil {
		log.Fatal(err)
	}
	if *maxCodes > 0 && len(codes) > *maxCodes {
		codes = codes[:*maxCodes]
	}
	if len(labels) == 0 {
		labels = discovered
	}
	log.Printf("driving %s: %d codes, %d labels, %d workers for %s",
		*baseURL, len(codes), len(labels), *workers, *duration)

	res, err := loadtest.Run(ctx, loadtest.Options{
		BaseURL:   *baseURL,
		Workers:   *workers,
		Duration:  *duration,
		BatchSize: *batch,
		Codes:     codes,
		Labels:    labels,
	})
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		log.Fatal(err)
	}
	log.Printf("requests=%d failures=%d rps=%.0f", res.Requests, res.Failures, res.RPS)
	for _, c := range []loadtest.ClassStats{res.Class("point"), res.Class("batch")} {
		log.Printf("%s: %.0f codes/s, %.0f codes per busy second, p50=%.2fms p99=%.2fms",
			c.Class, c.CodesPerSec, c.CodesPerBusySec, c.P50Millis, c.P99Millis)
	}
	if srv := res.Server; srv != nil {
		log.Printf("server cross-check: %d requests, %d failed, per class %v", srv.RequestsDelta, srv.FailedDelta, srv.PerClass)
	}
	log.Printf("batch/point codes per busy second: %.2fx", res.BatchSpeedup())
	if err := res.Gate(); err != nil {
		log.Fatalf("gate failed:\n%v", err)
	}
}
