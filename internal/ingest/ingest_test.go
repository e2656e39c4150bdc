package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tnkd/internal/faultfs"
	"tnkd/internal/fsg"
	"tnkd/internal/graph"
	"tnkd/internal/obs"
	"tnkd/internal/store"
)

// testTxn builds one deterministic small transaction: A->B "x",
// B->C "y", plus C->A "z" on odd indices, so minsup-2 patterns of
// several sizes exist across any window of them.
func testTxn(i int) *graph.Graph {
	g := graph.New(fmt.Sprintf("t%d", i))
	a := g.AddVertex("A")
	b := g.AddVertex("B")
	c := g.AddVertex("C")
	g.AddEdge(a, b, "x")
	g.AddEdge(b, c, "y")
	if i%2 == 1 {
		g.AddEdge(c, a, "z")
	}
	return g
}

func testTxns(from, to int) []*graph.Graph {
	out := make([]*graph.Graph, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, testTxn(i))
	}
	return out
}

const testMinSupport = 2

// mineToStore writes a checkpointed mine of txns to path — the same
// recipe the daemon's fold uses, so dumps are comparable.
func mineToStore(t testing.TB, path string, txns []*graph.Graph, gen int) {
	t.Helper()
	w, err := store.Create(path, store.Meta{
		Name: "tiny", Kind: "fsg", MinSupport: testMinSupport, Generation: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTransactions(txns); err != nil {
		t.Fatal(err)
	}
	opts := fsg.Options{
		MinSupport: testMinSupport,
		MaxEdges:   8,
		Checkpoint: func(lv fsg.LevelStats, pats []fsg.Pattern) error {
			return w.WriteLevel(lv.Edges, pats)
		},
	}
	if _, err := fsg.Mine(txns, opts); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// refDump is the one-shot oracle: mine all txns in one go and dump.
// An ingest fold chain over the same transactions must match it
// byte-for-byte.
func refDump(t testing.TB, txns []*graph.Graph) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "ref.tnd")
	mineToStore(t, p, txns, 0)
	r, err := store.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d, err := store.DumpPatterns(r)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func currentDump(t testing.TB, d *Daemon) string {
	t.Helper()
	r, err := store.Open(d.CurrentPath())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dump, err := store.DumpPatterns(r)
	if err != nil {
		t.Fatal(err)
	}
	return dump
}

func spoolBatch(t testing.TB, dir, name string, txns []*graph.Graph) {
	t.Helper()
	data, err := EncodeBatch(name, txns)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, spoolDir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fakeClock lets tests hop over retry backoff without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestDaemon seeds a fresh data dir with a 4-transaction store and
// returns a running daemon plus its options for restarts.
func newTestDaemon(t testing.TB, mut func(*Options)) (*Daemon, Options) {
	t.Helper()
	dir := t.TempDir()
	seed := filepath.Join(dir, "seed.tnd")
	mineToStore(t, seed, testTxns(0, 4), 0)
	opts := Options{
		Dir:        filepath.Join(dir, "data"),
		Seed:       seed,
		MinSupport: testMinSupport,
		JitterSeed: 1,
		Metrics:    obs.NewRegistry(),
		Now:        newFakeClock().Now,
	}
	if mut != nil {
		mut(&opts)
	}
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() }) //nolint:errcheck
	return d, opts
}

// drain ticks until the spool is empty and nothing is pending,
// hopping the clock over any scheduled backoff.
func drain(t testing.TB, d *Daemon, clock *fakeClock) {
	t.Helper()
	for i := 0; i < 50; i++ {
		if err := d.Tick(); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		st := d.Status()
		if st.SpoolBacklog == 0 && !st.PendingRemount {
			return
		}
		if clock != nil {
			clock.Advance(time.Minute)
		}
	}
	t.Fatalf("spool did not drain: %+v", d.Status())
}

func TestHappyPathConvergence(t *testing.T) {
	d, opts := newTestDaemon(t, nil)
	spoolBatch(t, opts.Dir, "b-000001.json", testTxns(4, 6))
	spoolBatch(t, opts.Dir, "b-000002.json", testTxns(6, 8))
	drain(t, d, nil)

	if got := d.Generation(); got != 2 {
		t.Fatalf("generation = %d, want 2", got)
	}
	want := refDump(t, testTxns(0, 8))
	if got := currentDump(t, d); got != want {
		t.Errorf("fold chain dump differs from one-shot mine:\n%s", got)
	}
	st := d.Status()
	if st.Folds != 2 || st.FoldFailures != 0 || st.Quarantines != 0 {
		t.Errorf("status = %+v, want 2 clean folds", st)
	}
	for _, name := range []string{"b-000001.json", "b-000002.json"} {
		if _, err := os.Stat(filepath.Join(opts.Dir, appliedDir, name)); err != nil {
			t.Errorf("batch %s not archived: %v", name, err)
		}
	}
	// The generation chain must carry lineage the serving layer's
	// provenance check accepts.
	r, err := store.Open(d.CurrentPath())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if m := r.Meta(); filepath.Base(m.Parent) != genName(1) {
		t.Errorf("generation 2 parent = %q, want gen-000001.tnd", m.Parent)
	}
}

// TestRestartIsIdempotent proves a clean stop/start neither refolds
// nor loses anything.
func TestRestartIsIdempotent(t *testing.T) {
	d, opts := newTestDaemon(t, nil)
	spoolBatch(t, opts.Dir, "b-000001.json", testTxns(4, 6))
	drain(t, d, nil)
	want := currentDump(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	drain(t, d2, nil)
	if got := d2.Generation(); got != 1 {
		t.Fatalf("generation after restart = %d, want 1", got)
	}
	if got := currentDump(t, d2); got != want {
		t.Errorf("restart changed the published store")
	}
}

func TestQuarantineBadBatch(t *testing.T) {
	d, opts := newTestDaemon(t, nil)
	if err := os.WriteFile(filepath.Join(opts.Dir, spoolDir, "bad.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	drain(t, d, nil)
	if _, err := os.Stat(filepath.Join(opts.Dir, poisonDir, "bad.json")); err != nil {
		t.Fatalf("bad batch not quarantined: %v", err)
	}
	reason, err := os.ReadFile(filepath.Join(opts.Dir, poisonDir, "bad.json.reason.json"))
	if err != nil {
		t.Fatalf("no quarantine reason: %v", err)
	}
	var rj struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(reason, &rj); err != nil || rj.Error == "" {
		t.Errorf("reason file not structured JSON with an error: %s", reason)
	}
	st := d.Status()
	if st.Quarantines != 1 || st.Poisoned != 1 || st.Generation != 0 {
		t.Errorf("status after quarantine = %+v", st)
	}
}

// TestRetryBackoffThenSuccess injects one transient rename failure:
// the batch must retry after backoff and then fold cleanly.
func TestRetryBackoffThenSuccess(t *testing.T) {
	clock := newFakeClock()
	inj := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{
		Op: faultfs.OpRename, Path: "gen-000001.tnd", Kind: faultfs.Error,
	})
	d, opts := newTestDaemon(t, func(o *Options) {
		o.FS = inj
		o.Now = clock.Now
	})
	spoolBatch(t, opts.Dir, "b-000001.json", testTxns(4, 6))

	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	if st.Generation != 0 || st.Retries != 1 || st.FoldFailures != 1 {
		t.Fatalf("after injected failure: %+v", st)
	}
	// Before the backoff elapses the batch must not be retried.
	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	if st := d.Status(); st.Retries != 1 {
		t.Fatalf("retried before backoff elapsed: %+v", st)
	}
	clock.Advance(time.Minute)
	drain(t, d, clock)
	if st := d.Status(); st.Generation != 1 || st.Quarantines != 0 {
		t.Fatalf("after retry: %+v", st)
	}
	if got, want := currentDump(t, d), refDump(t, testTxns(0, 6)); got != want {
		t.Errorf("retried fold dump differs from one-shot mine")
	}
}

// TestQuarantineAfterMaxAttempts keeps the rename failing: the batch
// must land in poison/ after MaxAttempts tries, and later batches
// must still fold — one bad apple cannot wedge the pipeline.
func TestQuarantineAfterMaxAttempts(t *testing.T) {
	clock := newFakeClock()
	// Exactly MaxAttempts rename faults: the poisoned batch burns all
	// three, so the healthy batch after it folds cleanly.
	inj := faultfs.NewInjector(faultfs.OS{})
	for i := 0; i < 3; i++ {
		inj.AddFault(faultfs.Fault{Op: faultfs.OpRename, Path: "gen-000001.tnd", Kind: faultfs.Error})
	}
	d, opts := newTestDaemon(t, func(o *Options) {
		o.FS = inj
		o.Now = clock.Now
		o.MaxAttempts = 3
	})
	spoolBatch(t, opts.Dir, "b-000001.json", testTxns(4, 6))
	for i := 0; i < 10; i++ {
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Minute)
		if d.Status().Quarantines > 0 {
			break
		}
	}
	st := d.Status()
	if st.Quarantines != 1 || st.Poisoned != 1 {
		t.Fatalf("batch not quarantined after max attempts: %+v", st)
	}
	if st.Retries != 2 {
		t.Errorf("retries = %d, want 2 (third attempt quarantines)", st.Retries)
	}

	// A fresh, healthy batch folds on to generation 1 from here. Its
	// transactions differ from the poisoned batch, so the published
	// history is exactly seed + this batch.
	spoolBatch(t, opts.Dir, "b-000002.json", testTxns(6, 8))
	drain(t, d, clock)
	if st := d.Status(); st.Generation != 1 {
		t.Fatalf("pipeline wedged after quarantine: %+v", st)
	}
	want := refDump(t, append(testTxns(0, 4), testTxns(6, 8)...))
	if got := currentDump(t, d); got != want {
		t.Errorf("post-quarantine fold dump differs from one-shot mine")
	}
}

// TestDoubleApplyGuard crashes the daemon after the publication
// committed but before the spool file was archived — the window where
// a naive restart would fold the batch twice.
func TestDoubleApplyGuard(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{
		Op: faultfs.OpRename, Path: spoolDir + "/b-000001.json", Kind: faultfs.Crash,
	})
	d, opts := newTestDaemon(t, func(o *Options) { o.FS = inj })
	spoolBatch(t, opts.Dir, "b-000001.json", testTxns(4, 6))
	if err := d.Tick(); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("Tick err = %v, want simulated crash", err)
	}
	d.Close() //nolint:errcheck // crashed

	opts.FS = faultfs.OS{}           // the restart runs on a healthy filesystem
	opts.Metrics = obs.NewRegistry() // fresh counters: folds must stay 0
	d2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	drain(t, d2, nil)
	st := d2.Status()
	if st.Generation != 1 || st.Folds != 0 {
		t.Fatalf("restart refolded an already-published batch: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, appliedDir, "b-000001.json")); err != nil {
		t.Errorf("batch not archived on recovery: %v", err)
	}
	if got, want := currentDump(t, d2), refDump(t, testTxns(0, 6)); got != want {
		t.Errorf("recovered dump differs from one-shot mine")
	}
}

// TestGCKeepsWindow folds enough generations to trip GC and checks
// exactly the KeepGenerations newest survive.
func TestGCKeepsWindow(t *testing.T) {
	d, opts := newTestDaemon(t, func(o *Options) { o.KeepGenerations = 2 })
	for i := 0; i < 4; i++ {
		spoolBatch(t, opts.Dir, fmt.Sprintf("b-%06d.json", i+1), testTxns(4+i, 5+i))
	}
	drain(t, d, nil)
	if got := d.Generation(); got != 4 {
		t.Fatalf("generation = %d, want 4", got)
	}
	names, err := d.genFiles()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{genName(3), genName(4)}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Errorf("surviving generations = %v, want %v", names, want)
	}
	if st := d.Status(); st.Generation != 4 {
		t.Errorf("status generation = %d", st.Generation)
	}
}

// TestRemountRetries drives the remount trigger through failure,
// stale rejection and success.
func TestRemountRetries(t *testing.T) {
	clock := newFakeClock()
	var calls []string
	fail := 2
	d, opts := newTestDaemon(t, func(o *Options) {
		o.Now = clock.Now
		o.Remount = func(path string) error {
			calls = append(calls, filepath.Base(path))
			if fail > 0 {
				fail--
				return errors.New("connection refused")
			}
			return nil
		}
	})
	// New queues a re-announce of the adopted generation.
	drain(t, d, clock)
	if len(calls) < 3 || calls[len(calls)-1] != genName(0) {
		t.Fatalf("remount calls = %v, want retries until success on gen 0", calls)
	}
	n := len(calls)

	spoolBatch(t, opts.Dir, "b-000001.json", testTxns(4, 6))
	drain(t, d, clock)
	if len(calls) != n+1 || calls[len(calls)-1] != genName(1) {
		t.Fatalf("remount calls after fold = %v, want one more for gen 1", calls)
	}
	if st := d.Status(); st.PendingRemount {
		t.Errorf("remount still pending: %+v", st)
	}

	// ErrRemountStale counts as success: no retry storm.
	d.opts.Remount = func(string) error { return ErrRemountStale }
	d.mu.Lock()
	d.pendingRemount = d.curPath
	d.mu.Unlock()
	drain(t, d, clock)
	if st := d.Status(); st.PendingRemount {
		t.Errorf("stale remount left pending: %+v", st)
	}
}

func TestHTTPIngestAndStatus(t *testing.T) {
	d, opts := newTestDaemon(t, nil)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	data, err := EncodeBatch("posted", testTxns(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/ingest = %d, want 202", resp.StatusCode)
	}
	var acc struct {
		Batch        string `json:"batch"`
		Transactions int    `json:"transactions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	if acc.Batch != "posted.json" || acc.Transactions != 2 {
		t.Fatalf("accept body = %+v", acc)
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, spoolDir, "posted.json")); err != nil {
		t.Fatalf("posted batch not spooled: %v", err)
	}

	// Garbage is rejected at the door, not spooled for later failure.
	resp2, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST garbage = %d, want 400", resp2.StatusCode)
	}

	drain(t, d, nil)

	var st Status
	getJSON(t, ts.URL+"/v1/ingest/status", &st)
	if st.Generation != 1 || st.Folds != 1 || st.SpoolBacklog != 0 {
		t.Fatalf("status = %+v", st)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"tnd_ingest_generation 1",
		"tnd_ingest_folds_total 1",
		"tnd_ingest_batches_received_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHTTPIngestNameConflict: a client-supplied name that is already
// waiting in the spool must be rejected with 409, never renamed over
// — that would silently discard the pending batch.
func TestHTTPIngestNameConflict(t *testing.T) {
	d, opts := newTestDaemon(t, nil)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	first, err := EncodeBatch("dup", testTxns(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", resp.StatusCode)
	}

	second, err := EncodeBatch("dup", testTxns(6, 8))
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(second))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting POST = %d, want 409", resp2.StatusCode)
	}
	got, err := os.ReadFile(filepath.Join(opts.Dir, spoolDir, "dup.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, first) {
		t.Error("conflicting POST overwrote the pending batch")
	}
	// No temp staging files may linger after the rejection.
	ents, err := os.ReadDir(filepath.Join(opts.Dir, spoolDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "dup.json" {
			t.Errorf("leftover spool entry %q after 409", e.Name())
		}
	}

	// Once the batch is folded and archived the name is free again.
	drain(t, d, nil)
	resp3, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(second))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("POST after fold = %d, want 202", resp3.StatusCode)
	}
}

func getJSON(t testing.TB, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestSanitizeBatchName(t *testing.T) {
	cases := map[string]string{
		"day-151":          "day-151.json",
		"day-151.json":     "day-151.json",
		"../../etc/passwd": "passwd.json",
		".hidden":          "",
		"x.tmp":            "",
		"x.partial.json":   "",
		"":                 "",
		"  spaced  ":       "spaced.json",
	}
	for in, want := range cases {
		if got := sanitizeBatchName(in); got != want {
			t.Errorf("sanitizeBatchName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	txns := testTxns(0, 3)
	data, err := EncodeBatch("rt", txns)
	if err != nil {
		t.Fatal(err)
	}
	b, decoded, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "rt" || len(decoded) != 3 {
		t.Fatalf("round trip: name=%q n=%d", b.Name, len(decoded))
	}
	for i, g := range decoded {
		if g.NumVertices() != txns[i].NumVertices() || g.NumEdges() != txns[i].NumEdges() {
			t.Errorf("txn %d shape changed in round trip", i)
		}
	}
	// Validation failures.
	for name, body := range map[string]string{
		"dup vertex":   `{"transactions":[{"vertices":[{"id":1,"label":"A"},{"id":1,"label":"B"}],"edges":[{"from":1,"to":1,"label":"e"}]}]}`,
		"unknown edge": `{"transactions":[{"vertices":[{"id":1,"label":"A"}],"edges":[{"from":1,"to":2,"label":"e"}]}]}`,
		"no edges":     `{"transactions":[{"vertices":[{"id":1,"label":"A"}],"edges":[]}]}`,
	} {
		if _, _, err := DecodeBatch([]byte(body)); err == nil {
			t.Errorf("%s: DecodeBatch accepted invalid batch", name)
		}
	}
}

// emptyEdgeBatch is the densest batch JSON per byte: one transaction
// with one vertex and n empty "{}" edges, each a self-loop on it.
func emptyEdgeBatch(n int) []byte {
	var b bytes.Buffer
	b.Grow(3*n + 128) // room for the caller's padding too
	b.WriteString(`{"transactions":[{"vertices":[{}],"edges":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("{}")
	}
	b.WriteString(`]}]}`)
	return b.Bytes()
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// batchAtCap is emptyEdgeBatch padded with spaces to exactly
// maxBatchBytes: the largest body the byte cap admits, and over the
// value cap.
func batchAtCap() []byte {
	b := emptyEdgeBatch((maxBatchBytes - 64) / 3)
	return append(b, bytes.Repeat([]byte{' '}, maxBatchBytes-len(b))...)
}

// TestBatchDecodeBounded: a body of empty edges at the POST byte cap
// is refused before anything is decoded, over HTTP with a 400, and the
// densest batch under the value cap decodes within a fixed absolute
// bound, so no accepted batch can make the daemon allocate more.
func TestBatchDecodeBounded(t *testing.T) {
	atCap := batchAtCap()
	var err error
	alloc := allocated(func() { _, _, err = DecodeBatch(atCap) })
	if err == nil || !strings.Contains(err.Error(), "JSON values") {
		t.Fatalf("%d-byte batch of empty edges: err = %v, want the value-cap refusal", len(atCap), err)
	}
	if alloc > 1<<20 {
		t.Fatalf("refusing a %d-byte batch allocated %d bytes (bound 1 MiB)", len(atCap), alloc)
	}
	atCap = nil

	over := emptyEdgeBatch(maxBatchValues / 2)
	d, _ := newTestDaemon(t, nil)
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(over)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST of %d values = %d, want 400: %s", jsonValues(over), rec.Code, rec.Body)
	}

	// The densest accepted batch: the cap less the six containers and
	// one separator around the edge list, two values per edge.
	densest := emptyEdgeBatch((maxBatchValues - 6) / 2)
	if n := jsonValues(densest); n > maxBatchValues {
		t.Fatalf("densest fixture holds %d values, over the cap", n)
	}
	var txns []*graph.Graph
	alloc = allocated(func() { _, txns, err = DecodeBatch(densest) })
	if err != nil {
		t.Fatalf("densest batch under the cap refused: %v", err)
	}
	t.Logf("densest accepted batch: %d bytes, %d edges, %d bytes allocated", len(densest), txns[0].NumEdges(), alloc)
	if alloc > 96<<20 {
		t.Fatalf("decoding the densest accepted batch allocated %d bytes (bound 96 MiB)", alloc)
	}
}

// TestPostBodyBounded: reading a POST body allocates one buffer of
// its declared length, a declared length over the cap is refused
// before the body is read, and a chunked body still goes through.
func TestPostBodyBounded(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	h := d.Handler()

	atCap := batchAtCap()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(atCap))
	alloc := allocated(func() { h.ServeHTTP(rec, req) })
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "JSON values") {
		t.Fatalf("POST of a %d-byte batch of empty edges = %d %s, want the 400 value-cap refusal", len(atCap), rec.Code, rec.Body)
	}
	if limit := uint64(len(atCap)) * 11 / 10; alloc > limit {
		t.Fatalf("POST of a %d-byte body allocated %d bytes (bound %d, 1.1x the body)", len(atCap), alloc, limit)
	}
	atCap = nil

	unread := &countingReader{}
	req = httptest.NewRequest(http.MethodPost, "/v1/ingest", unread)
	req.ContentLength = maxBatchBytes + 1
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST declaring %d bytes = %d %s, want 413", req.ContentLength, rec.Code, rec.Body)
	}
	if unread.n != 0 {
		t.Fatalf("refusing an oversized POST read %d body bytes, want 0", unread.n)
	}

	body, err := EncodeBatch("chunked.json", testTxns(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	req.ContentLength = -1
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("chunked POST = %d %s, want 202", rec.Code, rec.Body)
	}
}

// countingReader counts the bytes read from an endless body.
type countingReader struct{ n int }

func (r *countingReader) Read(p []byte) (int, error) {
	r.n += len(p)
	return len(p), nil
}

// TestSpoolFileOverCap: a spool file over the POST byte cap is
// quarantined as a bad batch, with a reason naming the cap, without
// being read whole.
func TestSpoolFileOverCap(t *testing.T) {
	d, opts := newTestDaemon(t, nil)
	path := filepath.Join(opts.Dir, spoolDir, "huge.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(maxBatchBytes + 1); err != nil { // sparse: no disk blocks
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var tickErr error
	alloc := allocated(func() { tickErr = d.Tick() })
	if tickErr != nil {
		t.Fatalf("Tick: %v", tickErr)
	}
	if alloc > 4<<20 {
		t.Fatalf("quarantining a %d-byte spool file allocated %d bytes (bound 4 MiB)", maxBatchBytes+1, alloc)
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, poisonDir, "huge.json")); err != nil {
		t.Fatalf("oversized spool file not quarantined: %v", err)
	}
	reason, err := os.ReadFile(filepath.Join(opts.Dir, poisonDir, "huge.json.reason.json"))
	if err != nil {
		t.Fatalf("no quarantine reason: %v", err)
	}
	if want := fmt.Sprintf("exceeds the %d-byte batch cap", maxBatchBytes); !strings.Contains(string(reason), want) {
		t.Fatalf("quarantine reason %s does not name the cap (%q)", reason, want)
	}
	if st := d.Status(); st.Quarantines != 1 || st.Generation != 0 || st.SpoolBacklog != 0 {
		t.Fatalf("status after quarantine = %+v", st)
	}
}

// TestJournalTornTail appends records, tears the tail, and proves
// replay keeps the intact prefix and reopening truncates the tear.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	j, recs, err := openJournal(faultfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	for i := 0; i < 3; i++ {
		if err := j.append(journalRecord{Op: "begin", Batch: fmt.Sprintf("b%d", i), Gen: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close() //nolint:errcheck

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, recs, err := openJournal(faultfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close() //nolint:errcheck
	if len(recs) != 2 || recs[1].Batch != "b1" {
		t.Fatalf("torn replay = %+v, want the 2 intact records", recs)
	}
	// The torn bytes are gone: a new append produces a valid record
	// directly after the intact prefix.
	if err := j2.append(journalRecord{Op: "begin", Batch: "b9"}); err != nil {
		t.Fatal(err)
	}
	_, recs2, err := openJournal(faultfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 3 || recs2[2].Batch != "b9" {
		t.Fatalf("post-truncation journal = %+v", recs2)
	}
}
