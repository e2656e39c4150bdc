package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"tnkd/internal/core"
	"tnkd/internal/dataset"
	"tnkd/internal/graph"
	"tnkd/internal/obs"
	"tnkd/internal/serve"
	"tnkd/internal/store"
)

// tailLimit is the latency limit of the max-rate search: the highest
// rate whose p99 stays within it and whose client queue does not grow.
const tailLimit = 25 * time.Millisecond

// queryEnv is query-hot's set-up: serve over loopback with an
// Algorithm 1 store and a window store mounted.
type queryEnv struct {
	srv           *serve.Server
	url           string
	stop          func()
	codes, labels []string
	structPath    string
}

func (e *queryEnv) close() {
	e.stop()
	e.srv.Close() //nolint:errcheck // read-only mounts
}

// queryStores are the stores query-hot mounts, by mount name, as files
// of a set-up directory.
var queryStores = []struct{ name, file string }{{"paper", "paper.tnd"}, {"window", "window.tnd"}}

// mineQueryStores writes query-hot's stores into dir: an Algorithm 1
// store at structScale and a fresh mine of the stream's first window.
// It is what `tndbench -stores dir` runs.
func mineQueryStores(prof profile, seed int64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d := dataset.Generate(genConfig(prof.structScale, defaultSeed))
	opts := structuralOptions(prof.structScale, defaultSeed)
	opts.StorePath = filepath.Join(dir, queryStores[0].file)
	if _, err := core.MineStructural(d.BuildGraph(paperGraph), opts); err != nil {
		return err
	}
	txns, _ := figure4Stream(prof.streamScale, seed, prof.disorder)
	units := make([][]*graph.Graph, prof.window)
	for i := range units {
		units[i] = streamUnit(txns, i, prof.batchTxns)
	}
	_, err := mineWindowStore(filepath.Join(dir, queryStores[1].file), units, prof.minSupport)
	return err
}

// setupQueryHot mines both stores in a child process, so that the
// mining's memory does not count in this process's peak_rss_mb, then
// mounts them and discovers the codes and labels the mix draws from.
func setupQueryHot(cfg config, dir string) (*queryEnv, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-stores", dir, "-seed", strconv.FormatInt(cfg.seed, 10)}
	if cfg.prof == quickProfile {
		args = append(args, "-quick")
	}
	child := exec.Command(exe, args...)
	child.Stderr = os.Stderr
	if err := child.Run(); err != nil {
		return nil, fmt.Errorf("mining the stores: %w", err)
	}
	var mounts []serve.Mount
	for _, m := range queryStores {
		r, err := store.Open(filepath.Join(dir, m.file))
		if err != nil {
			for _, mt := range mounts {
				mt.Reader.Close()
			}
			return nil, err
		}
		mounts = append(mounts, serve.Mount{Name: m.name, Reader: r})
	}
	labels := locationLabels(mounts[1].Reader)
	srv := serve.New(mounts, serve.Options{Metrics: obs.NewRegistry()})
	url, stop, err := listen(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	env := &queryEnv{srv: srv, url: url, stop: stop, labels: labels, structPath: filepath.Join(dir, queryStores[0].file)}
	c := oneConnClient()
	defer c.CloseIdleConnections()
	if env.codes, err = discoverCodes(c, url); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// locationLabels are the vertex labels a store's location index knows,
// sorted.
func locationLabels(r *store.Reader) []string {
	byLabel, _, _ := r.LocationIndex()
	return sortedKeys(byLabel)
}

// runQueryHot drives serve at a fixed open-loop rate over a stable
// generation: the hot path, with nothing else running.
func runQueryHot(cfg config) (*outcome, error) {
	prof := cfg.prof
	o := newOutcome(cfg.trace)
	var env *queryEnv
	var setups []float64
	for i := 0; i < prof.setups; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		env, err = setupQueryHot(cfg, filepath.Join(cfg.workDir, "setup-"+strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer env.close()
	o.m.set("setup_s", median(setups), len(setups))

	n := int(prof.queryRate*(prof.warmQueries+cfg.seconds).Seconds()) + 1
	pool := queryPool(rand.New(rand.NewSource(cfg.seed)), env.codes, env.labels, n)
	lg := newOpenLoop(env.url, runtime.NumCPU())
	defer lg.close()
	warm := lg.run(pool, 0, prof.queryRate, prof.warmQueries)

	c := oneConnClient()
	defer c.CloseIdleConnections()
	before, err := scrapeMetrics(c, env.url)
	if err != nil {
		return nil, err
	}
	ph := beginPhase()
	shots := lg.run(pool, len(warm), prof.queryRate, cfg.seconds)
	cpu := ph.end(o)
	after, err := scrapeMetrics(c, env.url)
	if err != nil {
		return nil, err
	}
	o.summarizeQueries(shots)
	o.m.set("runtime.cpu_per_op_ms", ms(cpu)/float64(len(shots)), len(shots))
	o.crossCheck(before, after, shots, 0)
	if !cfg.trace {
		return o, nil
	}
	if err := o.storeLayout(env.structPath); err != nil {
		return nil, err
	}
	rps, probes := maxRate(lg, pool, len(warm)+len(shots), prof.queryRate, prof.searchProbe, cfg.seconds)
	o.m.set("loadgen.max_rps", rps, probes)
	return o, nil
}

// summarizeQueries turns the measured requests into the query
// metrics.
func (o *outcome) summarizeQueries(shots []shot) {
	var lat, wait []float64
	service := make([][]float64, len(serveClasses))
	lateMax := time.Duration(0)
	for i, s := range shots {
		o.attempted++
		if s.err != nil || s.status != http.StatusOK {
			o.failed++
			if s.err != nil {
				o.check(false, "request %d (%s): %v", i, serveClasses[s.class], s.err)
			} else {
				o.check(false, "request %d (%s): status %d", i, serveClasses[s.class], s.status)
			}
			continue
		}
		lat = append(lat, ms(s.done.Sub(s.due)))
		wait = append(wait, ms(s.sent.Sub(s.due)))
		service[s.class] = append(service[s.class], ms(s.done.Sub(s.sent)))
		lateMax = max(lateMax, s.late)
		root := o.tr.add(0, "bench.query", i, s.due, s.done)
		if s.sent.After(s.due) {
			o.tr.add(root, "loadgen.wait", i, s.due, s.sent)
		}
		o.tr.add(root, "serve."+serveClasses[s.class], i, s.sent, s.done)
	}
	if len(o.gates) > 20 {
		o.gates = append(o.gates[:20], fmt.Sprintf("... %d more", len(o.gates)-20))
	}
	o.m.set("latency_p50_ms", median(lat), len(lat))
	o.m.set("loadgen.latency_p99_ms", quantile(sorted(lat), 0.99), len(lat))
	o.m.set("loadgen.wait_p99_ms", quantile(sorted(wait), 0.99), len(wait))
	o.m.set("loadgen.late_max_ms", ms(lateMax), len(shots))
	for c, xs := range service {
		s := sorted(xs)
		o.m.set("serve."+serveClasses[c]+".service_p50_ms", quantile(s, 0.5), len(s))
		o.m.set("serve."+serveClasses[c]+".service_p99_ms", quantile(s, 0.99), len(s))
	}
}

// crossCheck holds the server's own request counters to the client's
// tallies: between the two scrapes each workload route must have grown
// by exactly what the benchmark sent (probes are extra GET /v1/stores
// requests), with no 5xx response.
func (o *outcome) crossCheck(before, after scrape, shots []shot, probes int) {
	sent := make([]int, len(serveClasses))
	for _, s := range shots {
		sent[s.class]++
	}
	sent[len(serveClasses)-1] += probes
	for c, route := range classRoutes {
		got := int(after.routeRequests(route) - before.routeRequests(route))
		o.check(got == sent[c], "server counted %d %s requests, the client sent %d", got, serveClasses[c], sent[c])
	}
	failed := after.family("tnd_http_requests_failed_total") - before.family("tnd_http_requests_failed_total")
	o.check(failed == 0, "server answered %v requests with 5xx", failed)
	o.failed += int(failed)
	hits := after.family("tnd_serve_cache_hits_total") - before.family("tnd_serve_cache_hits_total")
	misses := after.family("tnd_serve_cache_misses_total") - before.family("tnd_serve_cache_misses_total")
	o.m.set("serve.cache_hit_ratio", hits/(hits+misses), int(hits+misses))
}

// maxRate finds the highest rate at which p99 latency stays within
// tailLimit and the client queue does not grow: a ×1.5 ladder from
// start brackets it, then bisection narrows it to 5%. Probes stop when
// budget is spent.
func maxRate(lg *openLoop, pool []request, offset int, start float64, probe, budget time.Duration) (float64, int) {
	began := time.Now()
	probes := 0
	ok := func(rate float64) bool {
		shots := lg.run(pool, offset, rate, probe)
		offset += len(shots)
		probes++
		return sustained(shots)
	}
	lo, hi := 0.0, 0.0
	for r := start; hi == 0 && time.Since(began) < budget; r *= 1.5 {
		if ok(r) {
			lo = r
		} else {
			hi = r
		}
	}
	for lo == 0 && hi > 1 && time.Since(began) < budget {
		if r := hi / 1.5; ok(r) {
			lo = r
		} else {
			hi = r
		}
	}
	for lo > 0 && hi > lo*1.05 && time.Since(began) < budget {
		if mid := (lo + hi) / 2; ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}

// sustained reports whether a probe met the latency limit at p99 with
// a queue that did not grow: no failures, and the requests of the
// probe's last tenth waited no longer than the limit to be sent.
func sustained(shots []shot) bool {
	if len(shots) == 0 {
		return false
	}
	lat := make([]float64, 0, len(shots))
	for _, s := range shots {
		if s.err != nil || s.status != http.StatusOK {
			return false
		}
		lat = append(lat, ms(s.done.Sub(s.due)))
	}
	sort.Float64s(lat)
	if quantile(lat, 0.99) > ms(tailLimit) {
		return false
	}
	for _, s := range shots[len(shots)*9/10:] {
		if s.sent.Sub(s.due) > tailLimit {
			return false
		}
	}
	return true
}
