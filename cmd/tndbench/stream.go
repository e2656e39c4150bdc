package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tnkd/internal/dataset"
	"tnkd/internal/experiments"
	"tnkd/internal/faultfs"
	"tnkd/internal/fsg"
	"tnkd/internal/graph"
	"tnkd/internal/ingest"
	"tnkd/internal/obs"
	"tnkd/internal/serve"
	"tnkd/internal/store"
)

const (
	// windowMaxEdges and windowMaxSteps are the ingest daemon's fold
	// defaults (the temporal pipeline's), spelled out so the window
	// mines and the oracle use the same ones.
	windowMaxEdges = 8
	windowMaxSteps = 200000
	// tickEvery is how often the benchmark calls Daemon.Tick — Run's
	// loop with the poll made explicit, so each Tick can be timed.
	tickEvery = 10 * time.Millisecond
	// probeEvery is the freshness probe's poll interval on serve's
	// GET /v1/stores.
	probeEvery = 2 * time.Millisecond
	// rehydrateEvery is how often (in generations) a traced run times
	// a full rehydration of the current generation.
	rehydrateEvery = 20
	// drainGrace bounds how long after the last batch was due the run
	// waits for it to become queryable.
	drainGrace = 30 * time.Second
)

// figure4Stream is the Figure 4 temporal partition of the calibrated
// dataset in arrival order: calendar order, with the seed permuting
// each run of disorder consecutive transactions, so transactions
// arrive out of order by up to that many. The dataset itself is pinned
// to the calibration seed, and the permutation is local, because
// mining a window costs up to four times more under one generator seed
// — or one random sample of the partition — than another, which would
// bury any change worth measuring.
func figure4Stream(scale float64, seed int64, disorder int) ([]*graph.Graph, time.Duration) {
	d := dataset.Generate(genConfig(scale, defaultSeed))
	t := time.Now()
	part := experiments.Figure4Partition(experiments.Params{Data: d, Scale: scale, Seed: defaultSeed})
	elapsed := time.Since(t)
	txns := append([]*graph.Graph(nil), part.Transactions...)
	rng := rand.New(rand.NewSource(seed))
	for lo := 0; lo < len(txns); lo += disorder {
		block := txns[lo:min(lo+disorder, len(txns))]
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	return txns, elapsed
}

// streamUnit is the i-th batch of the stream; the stream wraps around
// when a long run outlasts the partition.
func streamUnit(txns []*graph.Graph, i, size int) []*graph.Graph {
	out := make([]*graph.Graph, size)
	for j := range out {
		out[j] = txns[(i*size+j)%len(txns)]
	}
	return out
}

// windowMeta is the metadata of a window store holding units as
// separate window units, as the daemon would have written it.
func windowMeta(units [][]*graph.Graph, support int) store.Meta {
	sizes := make([]int, len(units))
	for i, u := range units {
		sizes[i] = len(u)
	}
	return store.Meta{
		Name: "OD/daily", Kind: "temporal", MinSupport: support,
		WindowStart: 1, WindowEnd: len(units), WindowSizes: sizes,
		Note: fmt.Sprintf("benchmark window of %d batches", len(units)),
	}
}

// mineWindowStore is a fresh fsg.Mine of the units' transactions,
// persisted level by level as it completes. It returns the mine's
// wall time, store writes included.
func mineWindowStore(path string, units [][]*graph.Graph, support int) (time.Duration, error) {
	var txns []*graph.Graph
	for _, u := range units {
		txns = append(txns, u...)
	}
	w, err := store.Create(path, windowMeta(units, support))
	if err != nil {
		return 0, err
	}
	if err := w.WriteTransactions(txns); err != nil {
		w.Abort()
		return 0, err
	}
	t := time.Now()
	_, err = fsg.Mine(txns, fsg.Options{
		MinSupport: support, MaxEdges: windowMaxEdges, MaxSteps: windowMaxSteps,
		Checkpoint: func(lv fsg.LevelStats, pats []fsg.Pattern) error { return w.WriteLevel(lv.Edges, pats) },
	})
	if err != nil {
		w.Abort()
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return time.Since(t), nil
}

// listen serves h on a loopback port; stop closes it and waits for
// the serving goroutine.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after stop
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// streamEnv is one set-up ingest daemon feeding an in-process serve.
type streamEnv struct {
	prof  profile
	txns  []*graph.Graph
	units [][]*graph.Graph // every unit the daemon holds or held, oldest first

	daemon    *ingest.Daemon
	srv       *serve.Server
	fs        *timingFS // nil unless tracing
	serveURL  string
	ingestURL string
	stops     []func()

	mu          sync.Mutex // remount hook state
	mounted     string
	remounts    []remountSample
	remountErrs []error
}

type remountSample struct{ start, end time.Time }

// setupStream mines the seed window — the first window-1 batches of
// the stream, stored as separate window units so the first measured
// batch already slides — and starts the daemon and serve over it.
func setupStream(cfg config, dir string) (*streamEnv, time.Duration, error) {
	prof := cfg.prof
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	txns, part := figure4Stream(prof.streamScale, cfg.seed, prof.disorder)
	e := &streamEnv{prof: prof, txns: txns}
	for i := 0; i < prof.window-1; i++ {
		e.units = append(e.units, streamUnit(txns, i, prof.batchTxns))
	}
	seedPath := filepath.Join(dir, "seed.tnd")
	if _, err := mineWindowStore(seedPath, e.units, prof.minSupport); err != nil {
		return nil, 0, err
	}
	var fsys faultfs.FS = faultfs.OS{}
	if cfg.trace {
		e.fs = newTimingFS(faultfs.OS{})
		fsys = e.fs
	}
	d, err := ingest.New(ingest.Options{
		Dir: filepath.Join(dir, "ingest"), Seed: seedPath, FS: fsys,
		MinSupport: prof.minSupport, MaxEdges: windowMaxEdges, MaxSteps: windowMaxSteps,
		Window: prof.window, JitterSeed: 1, Remount: e.remount, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		return nil, 0, err
	}
	e.daemon = d
	e.mounted = d.CurrentPath()
	rd, err := store.Open(e.mounted)
	if err != nil {
		e.close()
		return nil, 0, err
	}
	e.srv = serve.New([]serve.Mount{{Name: "window", Reader: rd}}, serve.Options{Metrics: obs.NewRegistry()})
	for _, s := range []struct {
		h   http.Handler
		url *string
	}{{e.srv.Handler(), &e.serveURL}, {d.Handler(), &e.ingestURL}} {
		url, stop, err := listen(s.h)
		if err != nil {
			e.close()
			return nil, 0, err
		}
		*s.url = url
		e.stops = append(e.stops, stop)
	}
	return e, part, nil
}

func (e *streamEnv) close() {
	for _, stop := range e.stops {
		stop()
	}
	if e.srv != nil {
		e.srv.Close() //nolint:errcheck // read-only mounts
	}
	if e.daemon != nil {
		e.daemon.Close() //nolint:errcheck // nothing left to publish
	}
}

// remount is the daemon's Remount hook: a hot swap of serve's mount,
// timed from outside. The daemon re-announces the generation it
// started on, which serve already mounts.
func (e *streamEnv) remount(path string) error {
	e.mu.Lock()
	mounted := e.mounted
	e.mu.Unlock()
	if path == mounted {
		return ingest.ErrRemountStale
	}
	start := time.Now()
	_, err := e.srv.RemountAuto(path)
	end := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		e.remountErrs = append(e.remountErrs, err)
		return err
	}
	e.mounted = path
	e.remounts = append(e.remounts, remountSample{start, end})
	return nil
}

// takeRemounts returns the remounts since the last take.
func (e *streamEnv) takeRemounts() ([]remountSample, []error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rs, errs := e.remounts, e.remountErrs
	e.remounts, e.remountErrs = nil, nil
	return rs, errs
}

// streamBatch is one batch's path from due to queryable.
type streamBatch struct {
	gen                   int // the generation its fold publishes
	name                  string
	body                  []byte
	due, sent, done, seen time.Time
	late                  time.Duration // -1 when the poster was behind
	status                int
	err                   error
}

// tickSample is one Tick that published generations before+1..after.
type tickSample struct {
	start, end    time.Time
	before, after int
}

type streamRun struct {
	batches    []streamBatch
	ticks      []tickSample
	tickErrs   []error
	backlogMax int
	probes     int // GET /v1/stores requests the server answered
	probeErrs  []error
	rehydrate  []float64
}

// stream POSTs n batches at rate a second, ticks the daemon every
// tickEvery and probes serve until every batch's generation is
// queryable.
func (e *streamEnv) stream(n int, rate float64, trace bool) (*streamRun, error) {
	base := e.daemon.Generation()
	run := &streamRun{batches: make([]streamBatch, n)}
	if n == 0 {
		return run, nil
	}
	for k := range run.batches {
		unit := streamUnit(e.txns, len(e.units), e.prof.batchTxns)
		e.units = append(e.units, unit)
		b := &run.batches[k]
		b.gen = base + k + 1
		b.name = fmt.Sprintf("b-%06d.json", b.gen)
		body, err := ingest.EncodeBatch(b.name, unit)
		if err != nil {
			return nil, err
		}
		b.body = body
	}
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for k := range run.batches {
		run.batches[k].due = start.Add(time.Duration(k) * period)
	}
	var posted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		e.post(run.batches, &posted)
	}()
	go func() {
		defer wg.Done()
		e.tick(run, base, &posted, stop, trace)
	}()
	go func() {
		defer wg.Done()
		defer close(stop)
		e.probe(run, run.batches[n-1].due.Add(drainGrace))
	}()
	wg.Wait()
	return run, nil
}

// post sends each batch to POST /v1/ingest when it is due, over one
// keep-alive connection.
func (e *streamEnv) post(batches []streamBatch, posted *atomic.Int64) {
	c := oneConnClient()
	defer c.CloseIdleConnections()
	for k := range batches {
		b := &batches[k]
		b.late = -1
		if time.Now().Before(b.due) {
			sleepUntil(b.due)
			b.late = time.Since(b.due)
		}
		b.sent = time.Now()
		resp, err := c.Post(e.ingestURL+"/v1/ingest", "application/json", bytes.NewReader(b.body))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			b.status = resp.StatusCode
			if b.status == http.StatusAccepted {
				posted.Add(1)
			}
		}
		b.err = err
		b.done = time.Now()
	}
}

// tick calls Daemon.Tick every tickEvery until stop closes.
func (e *streamEnv) tick(run *streamRun, base int, posted *atomic.Int64, stop <-chan struct{}, trace bool) {
	next := time.Now()
	for {
		before := e.daemon.Generation()
		t0 := time.Now()
		err := e.daemon.Tick()
		t1 := time.Now()
		after := e.daemon.Generation()
		if err != nil {
			run.tickErrs = append(run.tickErrs, err)
		}
		if after > before {
			run.ticks = append(run.ticks, tickSample{t0, t1, before, after})
			if trace && after/rehydrateEvery > before/rehydrateEvery {
				d, err := rehydrate(e.daemon.CurrentPath())
				if err != nil {
					run.tickErrs = append(run.tickErrs, err)
				}
				run.rehydrate = append(run.rehydrate, ms(d))
			}
		}
		run.backlogMax = max(run.backlogMax, int(posted.Load())-(after-base))
		next = next.Add(tickEvery)
		wait := time.Until(next)
		if wait <= 0 {
			next = time.Now()
			wait = 0
		}
		select {
		case <-stop:
			return
		case <-time.After(wait):
		}
	}
}

// rehydrate times what a fold reads before it can mine: open the
// generation, decode its transactions and every level's patterns.
func rehydrate(path string) (time.Duration, error) {
	t := time.Now()
	r, err := store.Open(path)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	if _, err := r.Transactions(); err != nil {
		return 0, err
	}
	if _, err := r.AllLevelPatterns(); err != nil {
		return 0, err
	}
	return time.Since(t), nil
}

// probe polls serve's GET /v1/stores every probeEvery while a due
// batch is not yet queryable, and stamps each batch with the first
// answer that reports its generation or a later one.
func (e *streamEnv) probe(run *streamRun, deadline time.Time) {
	c := oneConnClient()
	defer c.CloseIdleConnections()
	seen := 0
	for seen < len(run.batches) && time.Now().Before(deadline) {
		if due := run.batches[seen].due; time.Now().Before(due) {
			sleepUntil(due)
			continue
		}
		gen, answered, err := servedGeneration(c, e.serveURL)
		at := time.Now()
		if answered {
			run.probes++
		}
		if err != nil {
			run.probeErrs = append(run.probeErrs, err)
		}
		for seen < len(run.batches) && run.batches[seen].gen <= gen {
			run.batches[seen].seen = at
			seen++
		}
		sleepUntil(at.Add(probeEvery))
	}
}

// servedGeneration is the newest generation serve reports.
func servedGeneration(c *http.Client, base string) (gen int, answered bool, err error) {
	resp, err := c.Get(base + "/v1/stores")
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // status already says it failed
		return 0, true, fmt.Errorf("GET /v1/stores: %s", resp.Status)
	}
	var stores []struct {
		Generation int `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stores); err != nil {
		return 0, true, err
	}
	for _, s := range stores {
		gen = max(gen, s.Generation)
	}
	return gen, true, nil
}

// summarize turns a measured stream into the ingest metrics and spans
// and returns each batch's freshness in ms.
func (e *streamEnv) summarize(o *outcome, run *streamRun) []float64 {
	var fresh, posts, ticks []float64
	lateMax := time.Duration(0)
	for _, b := range run.batches {
		o.attempted++
		switch {
		case b.err != nil || b.status != http.StatusAccepted:
			o.failed++
			o.check(false, "batch %s: POST answered %d (%v)", b.name, b.status, b.err)
			continue
		case b.seen.IsZero():
			o.failed++
			o.check(false, "batch %s: generation %d never became queryable", b.name, b.gen)
			continue
		}
		fresh = append(fresh, ms(b.seen.Sub(b.due)))
		posts = append(posts, ms(b.done.Sub(b.sent)))
		lateMax = max(lateMax, b.late)
	}
	published := 0
	for _, t := range run.ticks {
		ticks = append(ticks, ms(t.end.Sub(t.start)))
		published += t.after - t.before
	}
	for _, err := range run.tickErrs {
		o.failed++
		o.check(false, "tick: %v", err)
	}
	for _, err := range run.probeErrs {
		o.failed++
		o.check(false, "freshness probe: %v", err)
	}
	remounts, remountErrs := e.takeRemounts()
	for _, err := range remountErrs {
		o.failed++
		o.check(false, "remount: %v", err)
	}
	var remountMS []float64
	for _, r := range remounts {
		remountMS = append(remountMS, ms(r.end.Sub(r.start)))
	}
	o.m.set("ingest.freshness_p50_ms", median(fresh), len(fresh))
	o.m.set("ingest.freshness_tail_ms", tail(fresh), len(fresh))
	o.m.set("ingest.post_ms", median(posts), len(posts))
	o.m.set("ingest.tick_ms", median(ticks), len(ticks))
	o.m.set("ingest.backlog_max", float64(run.backlogMax), len(ticks))
	o.m.set("serve.remount_ms", median(remountMS), len(remountMS))
	if prev, ok := o.m["loadgen.late_max_ms"]; !ok || prev.Value < ms(lateMax) {
		o.m.set("loadgen.late_max_ms", ms(lateMax), len(run.batches))
	}
	if len(run.rehydrate) > 0 {
		o.m.set("store.rehydrate_ms", median(run.rehydrate), len(run.rehydrate))
	}
	if e.fs != nil {
		e.summarizeFS(o, run, remounts, published)
	}
	return fresh
}

// summarizeFS records the per-fold filesystem cost and builds each
// batch's span tree: due → POST → waiting in the spool → the Tick that
// folded and published it (its filesystem calls and the remount
// inside) → the probe seeing it.
func (e *streamEnv) summarizeFS(o *outcome, run *streamRun, remounts []remountSample, published int) {
	ops := e.fs.take()
	o.live += len(ops)
	perOp := map[string]time.Duration{}
	for _, op := range ops {
		perOp[op.op] += op.end.Sub(op.start)
	}
	folds := float64(max(published, 1))
	o.m.set("faultfs.write_ms", ms(perOp["write"])/folds, len(ops))
	o.m.set("faultfs.sync_ms", ms(perOp["sync"])/folds, len(ops))
	o.m.set("faultfs.rename_ms", ms(perOp["rename"])/folds, len(ops))
	o.m.set("faultfs.syncdir_ms", ms(perOp["syncdir"])/folds, len(ops))
	o.m.set("faultfs.ops", float64(len(ops))/folds, len(ops))

	spool := string(filepath.Separator) + "spool" + string(filepath.Separator)
	within := func(parent int, req int, lo, hi time.Time, wantSpool bool) {
		for _, op := range ops {
			if strings.Contains(op.path, spool) == wantSpool && !op.start.Before(lo) && !op.end.After(hi) {
				o.tr.add(parent, "faultfs."+op.op, req, op.start, op.end)
			}
		}
	}
	ti := 0
	for k, b := range run.batches {
		if b.seen.IsZero() || b.err != nil {
			continue
		}
		for ti < len(run.ticks) && run.ticks[ti].after < b.gen {
			ti++
		}
		if ti == len(run.ticks) {
			break
		}
		tk := run.ticks[ti]
		root := o.tr.add(0, "bench.batch", k, b.due, b.seen)
		if b.sent.After(b.due) {
			o.tr.add(root, "loadgen.wait", k, b.due, b.sent)
		}
		post := o.tr.add(root, "ingest.post", k, b.sent, b.done)
		within(post, k, b.sent, b.done, true)
		if b.gen == tk.before+1 {
			if tk.start.After(b.done) {
				o.tr.add(root, "ingest.wait", k, b.done, tk.start)
			}
			tick := o.tr.add(root, "ingest.tick", k, tk.start, tk.end)
			within(tick, k, tk.start, tk.end, false)
			for _, r := range remounts {
				if !r.start.Before(tk.start) && !r.end.After(tk.end) {
					o.tr.add(tick, "serve.remount", k, r.start, r.end)
				}
			}
		} else {
			// Folded second or later in its Tick: it waited for the
			// Tick's earlier folds as well.
			o.tr.add(root, "ingest.wait", k, b.done, tk.end)
		}
		o.tr.add(root, "loadgen.probe", k, tk.end, b.seen)
	}
}

// verify holds the stream to its correctness gates: the daemon folded
// every batch without failing or quarantining any, and its final
// generation dumps byte-identically to a fresh mine of the same
// window.
func (e *streamEnv) verify(o *outcome, dir string) error {
	st := e.daemon.Status()
	o.failed += int(st.FoldFailures + st.Quarantines)
	o.check(st.FoldFailures == 0, "%d folds failed", st.FoldFailures)
	o.check(st.Quarantines == 0 && st.Poisoned == 0, "%d batches quarantined", st.Quarantines)
	o.check(st.SpoolBacklog == 0, "%d batches left in the spool", st.SpoolBacklog)
	batches := len(e.units) - (e.prof.window - 1)
	o.check(st.Generation == batches, "daemon at generation %d after %d batches", st.Generation, batches)

	window := e.units[len(e.units)-e.prof.window:]
	oraclePath := filepath.Join(dir, "oracle.tnd")
	remine, err := mineWindowStore(oraclePath, window, e.prof.minSupport)
	if err != nil {
		return fmt.Errorf("oracle mine: %w", err)
	}
	o.m.set("fsg.remine_s", remine.Seconds(), 1)
	if tick, ok := o.m["ingest.tick_ms"]; ok {
		o.m.set("ingest.fold_over_remine", tick.Value/ms(remine), tick.N)
	}
	want, err := o.dumpStore(oraclePath, -1)
	if err != nil {
		return err
	}
	final := e.daemon.CurrentPath()
	got, err := o.dumpStore(final, -1)
	if err != nil {
		return err
	}
	o.check(got == want, "generation %d (%s) differs from a fresh mine of its window", st.Generation, filepath.Base(final))
	fi, err := os.Stat(final)
	if err != nil {
		return err
	}
	o.m.set("store.bytes", float64(fi.Size()), 1)
	return nil
}

// runIngestWindow streams warm-up batches, then a measured stream of
// batchRate·seconds batches, then holds the final generation to the
// correctness gates.
func runIngestWindow(cfg config) (*outcome, error) {
	prof := cfg.prof
	o := newOutcome(cfg.trace)
	var env *streamEnv
	var setups, parts []float64
	for i := 0; i < prof.setups; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC()
		t := time.Now()
		var part time.Duration
		var err error
		env, part, err = setupStream(cfg, filepath.Join(cfg.workDir, "setup-"+strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		parts = append(parts, part.Seconds())
	}
	defer env.close()
	o.m.set("setup_s", median(setups), len(setups))
	o.m.set("partition.temporal_s", median(parts), len(parts))

	warm, err := env.stream(prof.warmBatches, prof.batchRate, false)
	if err != nil {
		return nil, err
	}
	for _, b := range warm.batches {
		if b.seen.IsZero() {
			o.failed++
			o.check(false, "warm-up batch %s never became queryable", b.name)
		}
	}
	if env.fs != nil {
		env.fs.take()
	}
	env.takeRemounts()

	c := oneConnClient()
	defer c.CloseIdleConnections()
	before, err := scrapeMetrics(c, env.serveURL)
	if err != nil {
		return nil, err
	}
	n := int(prof.batchRate * cfg.seconds.Seconds())
	ph := beginPhase()
	run, err := env.stream(n, prof.batchRate, cfg.trace)
	if err != nil {
		return nil, err
	}
	cpu := ph.end(o)
	after, err := scrapeMetrics(c, env.serveURL)
	if err != nil {
		return nil, err
	}
	fresh := env.summarize(o, run)
	o.m.set("latency_p50_ms", median(fresh), len(fresh))
	o.m.set("runtime.cpu_per_op_ms", ms(cpu)/float64(n), n)
	o.crossCheck(before, after, nil, run.probes)
	o.m.set("serve.drain_p99_ms", 1000*bucketQuantile(before, after, "tnd_serve_remount_drain_seconds", 0.99), len(run.ticks))
	if err := env.verify(o, cfg.workDir); err != nil {
		return nil, err
	}
	return o, nil
}
