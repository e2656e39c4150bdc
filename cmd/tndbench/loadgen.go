package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// request is one prepared query.
type request struct {
	class  int // index into serveClasses
	method string
	path   string
	body   []byte
}

// shot is one request as the open loop sent it. Latency is done−due:
// a request that had to wait for a busy connection is charged the
// wait, so a stall shows in every request due during it.
type shot struct {
	class           int
	due, sent, done time.Time
	// late is how far past due the generator woke, when it slept
	// until due; -1 when the request was already due (queued).
	late   time.Duration
	status int
	err    error
}

// openLoop sends requests on a fixed schedule over at most one
// keep-alive connection per client, whatever the server's speed.
type openLoop struct {
	base    string
	clients []*http.Client
}

func newOpenLoop(base string, conns int) *openLoop {
	l := &openLoop{base: base}
	for i := 0; i < conns; i++ {
		l.clients = append(l.clients, oneConnClient())
	}
	return l
}

// oneConnClient is an HTTP client held to a single keep-alive
// connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

func (l *openLoop) close() {
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
}

// run sends rate·dur requests, request i due at start + i/rate, taking
// them from pool starting at offset. A request is sent when it is due
// and a connection is free, so when every connection is busy the
// backlog waits in the client and its wait counts in its latency. run
// returns once every request has completed.
func (l *openLoop) run(pool []request, offset int, rate float64, dur time.Duration) []shot {
	n := int(rate * dur.Seconds())
	shots := make([]shot, n)
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &shots[i]
				s.due = start.Add(time.Duration(i) * period)
				s.late = -1
				if time.Now().Before(s.due) {
					sleepUntil(s.due)
					s.late = time.Since(s.due)
				}
				req := pool[(offset+i)%len(pool)]
				s.class = req.class
				s.sent = time.Now()
				s.status, s.err = l.do(c, req)
				s.done = time.Now()
			}
		}(c)
	}
	wg.Wait()
	return shots
}

// sleepUntil blocks until t. The runtime's timers can wake a
// millisecond late, which would swamp sub-millisecond latencies;
// nanosleep in a blocking system call wakes within about 0.1 ms.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR just loops
	}
}

func (l *openLoop) do(c *http.Client, r request) (int, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, l.base+r.path, body)
	if err != nil {
		return 0, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// classRoutes are the serve route patterns of serveClasses, the label
// values of the server's per-route request counters.
var classRoutes = []string{
	"GET /v1/patterns/{code}",
	"POST /v1/patterns:batch",
	"GET /v1/patterns/{code}/support",
	"GET /v1/locations/{label}/patterns",
	"GET /v1/stores",
}

// mixSchedule is the loadtest mix, 4 point : 2 batch : 2 support :
// 1 location : 1 stores, interleaved.
var mixSchedule = []int{0, 1, 0, 2, 0, 1, 0, 3, 2, 4}

const batchCodes = 32

// queryPool prepares n requests of the mix. Codes are drawn with
// Zipf(1.1) popularity over a seeded ranking; labels uniformly.
func queryPool(rng *rand.Rand, codes, labels []string, n int) []request {
	rank := rng.Perm(len(codes))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(codes)-1))
	code := func() string { return codes[rank[zipf.Uint64()]] }
	pool := make([]request, n)
	for i := range pool {
		class := mixSchedule[i%len(mixSchedule)]
		if class == 3 && len(labels) == 0 {
			class = 0
		}
		r := request{class: class, method: http.MethodGet}
		switch serveClasses[class] {
		case "point":
			r.path = "/v1/patterns/" + url.PathEscape(code())
		case "batch":
			picked := make([]string, batchCodes)
			for j := range picked {
				picked[j] = code()
			}
			r.body, _ = json.Marshal(map[string][]string{"codes": picked}) // strings only
			r.method, r.path = http.MethodPost, "/v1/patterns:batch"
		case "support":
			r.path = "/v1/patterns/" + url.PathEscape(code()) + "/support"
		case "locations":
			r.path = "/v1/locations/" + url.PathEscape(labels[rng.Intn(len(labels))]) + "/patterns"
		case "stores":
			r.path = "/v1/stores"
		}
		pool[i] = r
	}
	return pool
}

// discoverCodes returns the union of every mount's pattern codes, in
// the server's listing order.
func discoverCodes(c *http.Client, base string) ([]string, error) {
	var levels []struct {
		Edges int `json:"edges"`
	}
	if err := getJSON(c, base+"/v1/levels", &levels); err != nil {
		return nil, err
	}
	seenLevel := map[int]bool{}
	seen := map[string]bool{}
	var codes []string
	for _, lv := range levels {
		if seenLevel[lv.Edges] {
			continue
		}
		seenLevel[lv.Edges] = true
		var pats []struct {
			Code string `json:"code"`
		}
		if err := getJSON(c, fmt.Sprintf("%s/v1/levels/%d", base, lv.Edges), &pats); err != nil {
			return nil, err
		}
		for _, p := range pats {
			if !seen[p.Code] {
				seen[p.Code] = true
				codes = append(codes, p.Code)
			}
		}
	}
	if len(codes) == 0 {
		return nil, fmt.Errorf("%s lists no patterns", base)
	}
	return codes, nil
}

func getJSON(c *http.Client, u string, out any) error {
	resp, err := c.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scrape is one /metrics exposition: series "name{labels}" → value.
type scrape map[string]float64

func scrapeMetrics(c *http.Client, base string) (scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// family sums every series of a metric family.
func (s scrape) family(name string) float64 {
	total := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// routeRequests is the request counter of one route.
func (s scrape) routeRequests(route string) float64 {
	return s[fmt.Sprintf("tnd_http_requests_total{route=%q}", route)]
}

// bucketQuantile estimates quantile q of what a histogram family
// observed between two scrapes, interpolating inside the bucket like
// Prometheus; an observation past the last finite bound reads as that
// bound.
func bucketQuantile(before, after scrape, family string, q float64) float64 {
	perLE := map[float64]float64{}
	prefix := family + "_bucket{"
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		leText := k[i+4 : len(k)-2]
		le, err := strconv.ParseFloat(leText, 64) // "+Inf" parses to +Inf
		if err != nil {
			continue
		}
		perLE[le] += v - before[k]
	}
	les := make([]float64, 0, len(perLE))
	for le := range perLE {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || perLE[les[len(les)-1]] == 0 {
		return 0
	}
	rank := q * perLE[les[len(les)-1]]
	prevLE, prevCum := 0.0, 0.0
	for _, le := range les {
		cum := perLE[le]
		if cum >= rank && cum > prevCum {
			if math.IsInf(le, 1) {
				return prevLE
			}
			return prevLE + (le-prevLE)*(rank-prevCum)/(cum-prevCum)
		}
		prevLE, prevCum = le, cum
	}
	return prevLE
}
