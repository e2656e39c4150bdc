// Package loadtest is the reusable core of cmd/tndload: a mixed-
// workload load generator for a running tndserve daemon. It drives
// the point-pattern, batch, support, location and store endpoints
// from concurrent workers for a fixed duration and reports per-class
// latency percentiles and throughput. Result.Gate holds the rules the
// CI load job gates on (zero failures under remount, an exact
// client/server cross-check, batch beating point queries on codes
// resolved per busy second, a point p99 ceiling).
//
// It lives under internal/serve so the in-process tests can hammer
// an httptest server with the exact client the CI job uses.
package loadtest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Options configures one load run.
type Options struct {
	// BaseURL roots every request, e.g. "http://127.0.0.1:8321".
	BaseURL string
	// Workers is the concurrent client count (0 = 4).
	Workers int
	// Duration bounds the run (0 = 5s).
	Duration time.Duration
	// BatchSize is the codes-per-request of batch queries (0 = 32,
	// capped at len(Codes)).
	BatchSize int
	// Codes are the pattern codes to query; required (Discover fills
	// it from a running server).
	Codes []string
	// Labels are location labels to query; empty skips the
	// locations class.
	Labels []string
	// Client overrides the HTTP client (nil = 30s-timeout default).
	Client *http.Client
}

// ClassStats aggregates one request class.
type ClassStats struct {
	Class    string `json:"class"`
	Requests int    `json:"requests"`
	// Failures counts transport errors and non-200 statuses. A hot
	// remount under fire must keep this at zero.
	Failures int `json:"failures"`
	// Codes counts pattern codes resolved (BatchSize per batch
	// request, 1 per point/support request, 0 elsewhere).
	Codes       int     `json:"codes"`
	P50Millis   float64 `json:"p50_ms"`
	P99Millis   float64 `json:"p99_ms"`
	MaxMillis   float64 `json:"max_ms"`
	RPS         float64 `json:"rps"`
	CodesPerSec float64 `json:"codes_per_sec"`
	// BusySec is the summed latency of the class's successful
	// requests: the time clients spent waiting on it.
	BusySec float64 `json:"busy_sec"`
	// CodesPerBusySec is Codes / BusySec, the class's own resolution
	// rate. Unlike CodesPerSec it does not depend on how often the
	// schedule issues the class.
	CodesPerBusySec float64 `json:"codes_per_busy_sec"`
}

// Result is one completed run.
type Result struct {
	BaseURL     string       `json:"base_url"`
	Workers     int          `json:"workers"`
	DurationSec float64      `json:"duration_sec"`
	Requests    int          `json:"requests"`
	Failures    int          `json:"failures"`
	RPS         float64      `json:"rps"`
	Classes     []ClassStats `json:"classes"`
	// Server cross-checks the server's own /metrics counters against
	// the client-side tallies above. Nil when the server exposes no
	// /metrics endpoint.
	Server *ServerCheck `json:"server,omitempty"`
}

// ServerCheck is the server's view of the run, scraped from /metrics
// before the first and after the last request. Workers finish their
// in-flight request before exiting (the deadline gates issuing, not
// completing), and the server counts requests on middleware entry, so
// with an otherwise idle server both sides must agree exactly.
type ServerCheck struct {
	// RequestsDelta is the growth of tnd_http_requests_total summed
	// over the five workload routes. Must equal Requests.
	RequestsDelta int64 `json:"requests_delta"`
	// FailedDelta is the growth of tnd_http_requests_failed_total
	// (5xx responses) over the same routes. Must be zero.
	FailedDelta int64 `json:"failed_delta"`
	// PerClass maps class name to that route's request growth.
	PerClass map[string]int64 `json:"per_class"`
	// Match reports whether every cross-check held; Detail names the
	// first divergence when it did not.
	Match  bool   `json:"match"`
	Detail string `json:"detail,omitempty"`
}

// The serve-load gate's limits (see Gate).
const (
	// minBatchSpeedup is the least ratio of batch to point codes
	// resolved per busy second.
	minBatchSpeedup = 2.0
	// maxPointP99Millis is a generous point-query p99 ceiling: only
	// pathological stalls (a blocked remount, a lost reader) reach it.
	maxPointP99Millis = 500.0
)

// Consistent reports the broken rules among those that hold whatever
// the load shape: no request failed, the run sent point and batch
// requests, and the server's own /metrics counters agree exactly with
// the client tallies (no request lost or double-counted, no 5xx).
func (r Result) Consistent() error {
	var errs []error
	if r.Failures != 0 {
		errs = append(errs, fmt.Errorf("%d of %d requests failed", r.Failures, r.Requests))
	}
	if r.Requests == 0 || r.Class("point").Requests == 0 || r.Class("batch").Requests == 0 {
		errs = append(errs, fmt.Errorf("run sent %d requests, %d point and %d batch; want all three > 0",
			r.Requests, r.Class("point").Requests, r.Class("batch").Requests))
	}
	switch srv := r.Server; {
	case srv == nil:
		errs = append(errs, errors.New("no server cross-check: /metrics was not scraped"))
	case !srv.Match:
		errs = append(errs, fmt.Errorf("client/server cross-check failed: %s", srv.Detail))
	case srv.FailedDelta != 0:
		errs = append(errs, fmt.Errorf("server counted %d failed (5xx) responses", srv.FailedDelta))
	case srv.RequestsDelta != int64(r.Requests):
		errs = append(errs, fmt.Errorf("server saw %d requests, client sent %d", srv.RequestsDelta, r.Requests))
	}
	return errors.Join(errs...)
}

// Gate reports every serve-load rule r breaks: the Consistent rules,
// batch requests resolving at least minBatchSpeedup times the codes
// per busy second of point requests (so batching must save server and
// round-trip time per code, whatever share of the schedule each class
// has), and a point p99 under maxPointP99Millis. tndload exits
// non-zero when it fails.
func (r Result) Gate() error {
	errs := []error{r.Consistent()}
	point := r.Class("point")
	if ratio := r.BatchSpeedup(); !(ratio >= minBatchSpeedup) {
		errs = append(errs, fmt.Errorf("batch resolved %.2fx the codes per busy second of point (want >= %.1fx)", ratio, minBatchSpeedup))
	}
	if point.P99Millis >= maxPointP99Millis {
		errs = append(errs, fmt.Errorf("point p99 %.2f ms (want < %.0f ms)", point.P99Millis, maxPointP99Millis))
	}
	return errors.Join(errs...)
}

// BatchSpeedup is the ratio of batch to point codes resolved per busy
// second.
func (r Result) BatchSpeedup() float64 {
	return r.Class("batch").CodesPerBusySec / r.Class("point").CodesPerBusySec
}

// Class returns the named class stats (zero value if the class did
// not run).
func (r Result) Class(name string) ClassStats {
	for _, c := range r.Classes {
		if c.Class == name {
			return c
		}
	}
	return ClassStats{}
}

// sample is one completed request.
type sample struct {
	class  int
	millis float64
	codes  int
	failed bool
}

// The workload mix: point lookups dominate (they are the cache-path
// workhorse), batches and support queries ride along, locations and
// store listings keep the index and admin paths warm.
const (
	classPoint = iota
	classBatch
	classSupport
	classLocations
	classStores
	numClasses
)

var classNames = [numClasses]string{"point", "batch", "support", "locations", "stores"}

// classRoutes are the serve-side route patterns each class lands on —
// the label values of the server's per-route counters. They must stay
// in lockstep with the ServeMux patterns in internal/serve.
var classRoutes = [numClasses]string{
	classPoint:     "GET /v1/patterns/{code}",
	classBatch:     "POST /v1/patterns:batch",
	classSupport:   "GET /v1/patterns/{code}/support",
	classLocations: "GET /v1/locations/{label}/patterns",
	classStores:    "GET /v1/stores",
}

var schedule = [...]int{
	classPoint, classBatch, classPoint, classSupport, classPoint,
	classBatch, classPoint, classLocations, classSupport, classStores,
}

// Run drives the server at opts.BaseURL until opts.Duration elapses
// (or ctx is cancelled, whichever is first) and aggregates the
// samples. Failed requests count; they never abort the run — the
// whole point is measuring behaviour under stress.
func Run(ctx context.Context, opts Options) (Result, error) {
	if opts.BaseURL == "" {
		return Result{}, errors.New("loadtest: BaseURL is required")
	}
	if len(opts.Codes) == 0 {
		return Result{}, errors.New("loadtest: at least one code is required (try Discover)")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}
	duration := opts.Duration
	if duration <= 0 {
		duration = 5 * time.Second
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 32
	}
	if batch > len(opts.Codes) {
		batch = len(opts.Codes)
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}

	// Scrape the server's counters before the first request. A nil
	// map (no /metrics route) skips the cross-check, not the run.
	before, scrapeErr := scrapeMetrics(ctx, client, opts.BaseURL)

	// The deadline gates *issuing* requests; a request already in
	// flight when it passes still completes and is counted. Cutting
	// requests off mid-flight (a deadline context) would leave the
	// server having counted an arrival the client discarded, and the
	// cross-check below could never be exact.
	start := time.Now()
	deadline := start.Add(duration)
	perWorker := make([][]sample, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1 + wi)))
			var samples []sample
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				class := schedule[i%len(schedule)]
				if class == classLocations && len(opts.Labels) == 0 {
					class = classPoint
				}
				s := oneRequest(ctx, client, opts, rng, class, batch)
				if ctx.Err() != nil {
					break // external cancel mid-request; server may disagree
				}
				samples = append(samples, s)
			}
			perWorker[wi] = samples
		}(wi)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := Result{BaseURL: opts.BaseURL, Workers: workers, DurationSec: elapsed}
	byClass := make([][]float64, numClasses)
	agg := make([]ClassStats, numClasses)
	for _, samples := range perWorker {
		for _, s := range samples {
			res.Requests++
			agg[s.class].Requests++
			if s.failed {
				res.Failures++
				agg[s.class].Failures++
				continue
			}
			agg[s.class].Codes += s.codes
			byClass[s.class] = append(byClass[s.class], s.millis)
		}
	}
	res.RPS = float64(res.Requests) / elapsed
	for class, lat := range byClass {
		c := agg[class]
		if c.Requests == 0 {
			continue
		}
		c.Class = classNames[class]
		sort.Float64s(lat)
		if len(lat) > 0 {
			c.P50Millis = percentile(lat, 0.50)
			c.P99Millis = percentile(lat, 0.99)
			c.MaxMillis = lat[len(lat)-1]
		}
		c.RPS = float64(c.Requests) / elapsed
		c.CodesPerSec = float64(c.Codes) / elapsed
		for _, ms := range lat {
			c.BusySec += ms / 1000
		}
		if c.BusySec > 0 {
			c.CodesPerBusySec = float64(c.Codes) / c.BusySec
		}
		res.Classes = append(res.Classes, c)
	}
	if scrapeErr == nil && before != nil {
		after, err := scrapeMetrics(ctx, client, opts.BaseURL)
		if err == nil && after != nil {
			res.Server = crossCheck(before, after, agg, &res)
		}
	}
	return res, nil
}

// crossCheck diffs two /metrics scrapes over the workload routes and
// compares against the client tallies.
func crossCheck(before, after map[string]float64, agg []ClassStats, res *Result) *ServerCheck {
	sc := &ServerCheck{PerClass: make(map[string]int64, numClasses)}
	sc.Match = true
	fail := func(format string, args ...any) {
		if sc.Match {
			sc.Match = false
			sc.Detail = fmt.Sprintf(format, args...)
		}
	}
	for class, route := range classRoutes {
		key := fmt.Sprintf("tnd_http_requests_total{route=%q}", route)
		d := int64(after[key]) - int64(before[key])
		sc.PerClass[classNames[class]] = d
		sc.RequestsDelta += d
		if d != int64(agg[class].Requests) {
			fail("class %s: server saw %d requests, client sent %d",
				classNames[class], d, agg[class].Requests)
		}
		fkey := fmt.Sprintf("tnd_http_requests_failed_total{route=%q}", route)
		sc.FailedDelta += int64(after[fkey]) - int64(before[fkey])
	}
	if sc.FailedDelta != 0 {
		fail("server counted %d failed (5xx) responses", sc.FailedDelta)
	}
	if sc.RequestsDelta != int64(res.Requests) {
		fail("server saw %d requests total, client sent %d", sc.RequestsDelta, res.Requests)
	}
	return sc
}

// scrapeMetrics fetches and parses the server's Prometheus text
// exposition into name{labels} -> value. A 404 returns (nil, nil):
// the server simply has no metrics endpoint.
func scrapeMetrics(ctx context.Context, client *http.Client, baseURL string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode == http.StatusNotFound {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadtest: GET /metrics: %s", resp.Status)
	}
	vals := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		vals[line[:i]] = v
	}
	return vals, sc.Err()
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func oneRequest(ctx context.Context, client *http.Client, opts Options, rng *rand.Rand, class, batch int) sample {
	var (
		method = http.MethodGet
		path   string
		body   io.Reader
		codes  int
	)
	switch class {
	case classPoint:
		path = "/v1/patterns/" + url.PathEscape(opts.Codes[rng.Intn(len(opts.Codes))])
		codes = 1
	case classBatch:
		picked := make([]string, batch)
		off := rng.Intn(len(opts.Codes))
		for i := range picked {
			picked[i] = opts.Codes[(off+i)%len(opts.Codes)]
		}
		payload, _ := json.Marshal(map[string]any{"codes": picked})
		method, path, body = http.MethodPost, "/v1/patterns:batch", bytes.NewReader(payload)
		codes = batch
	case classSupport:
		path = "/v1/patterns/" + url.PathEscape(opts.Codes[rng.Intn(len(opts.Codes))]) + "/support"
		codes = 1
	case classLocations:
		path = "/v1/locations/" + url.PathEscape(opts.Labels[rng.Intn(len(opts.Labels))]) + "/patterns"
	case classStores:
		path = "/v1/stores"
	}
	req, err := http.NewRequestWithContext(ctx, method, opts.BaseURL+path, body)
	if err != nil {
		return sample{class: class, failed: true}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return sample{class: class, failed: true}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return sample{class: class, failed: true}
	}
	return sample{class: class, millis: float64(time.Since(t0).Microseconds()) / 1000, codes: codes}
}

// Discover asks a running server for a workload: every pattern code
// from its level listings, and the vertex labels touched by the
// first code's occurrences (good enough to exercise the location
// path).
func Discover(ctx context.Context, client *http.Client, baseURL string) (codes, labels []string, err error) {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	var levels []struct {
		Edges int `json:"edges"`
	}
	if err := getJSON(ctx, client, baseURL+"/v1/levels", &levels); err != nil {
		return nil, nil, err
	}
	seenLevel := map[int]bool{}
	seenCode := map[string]bool{}
	for _, lv := range levels {
		if seenLevel[lv.Edges] {
			continue
		}
		seenLevel[lv.Edges] = true
		var summaries []struct {
			Code string `json:"code"`
		}
		if err := getJSON(ctx, client, fmt.Sprintf("%s/v1/levels/%d", baseURL, lv.Edges), &summaries); err != nil {
			return nil, nil, err
		}
		for _, s := range summaries {
			if !seenCode[s.Code] {
				seenCode[s.Code] = true
				codes = append(codes, s.Code)
			}
		}
	}
	if len(codes) == 0 {
		return nil, nil, errors.New("loadtest: server lists no patterns")
	}
	var occ struct {
		Matches []struct {
			Transactions []struct {
				Occurrences []struct {
					Vertices []struct {
						Label string `json:"label"`
					} `json:"vertices"`
				} `json:"occurrences"`
			} `json:"transactions"`
		} `json:"matches"`
	}
	occURL := baseURL + "/v1/patterns/" + url.PathEscape(codes[0]) + "/occurrences?limit=1"
	if err := getJSON(ctx, client, occURL, &occ); err != nil {
		return nil, nil, err
	}
	seenLabel := map[string]bool{}
	for _, m := range occ.Matches {
		for _, txn := range m.Transactions {
			for _, o := range txn.Occurrences {
				for _, v := range o.Vertices {
					if !seenLabel[v.Label] {
						seenLabel[v.Label] = true
						labels = append(labels, v.Label)
					}
				}
			}
		}
	}
	return codes, labels, nil
}

func getJSON(ctx context.Context, client *http.Client, u string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("loadtest: GET %s: %s: %s", u, resp.Status, b)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
