package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tnkd/internal/faultfs"
	"tnkd/internal/obs"
	"tnkd/internal/serve"
	"tnkd/internal/store"
)

// copyDir clones a template data directory so every crash-matrix leg
// starts from the identical pre-run state.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyDir(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// crashTemplate builds the shared starting state: a seed store plus
// two spooled batches, no daemon run yet — so seed adoption itself is
// inside the crash matrix.
func crashTemplate(t testing.TB) (tmpl string, opts Options) {
	t.Helper()
	tmpl = t.TempDir()
	seed := filepath.Join(tmpl, "seed.tnd")
	mineToStore(t, seed, testTxns(0, 4), 0)
	data := filepath.Join(tmpl, "data")
	if err := os.MkdirAll(filepath.Join(data, spoolDir), 0o755); err != nil {
		t.Fatal(err)
	}
	spoolBatch(t, data, "b-000001.json", testTxns(4, 6))
	spoolBatch(t, data, "b-000002.json", testTxns(6, 8))
	opts = Options{
		Dir:        data,
		Seed:       seed,
		MinSupport: testMinSupport,
		JitterSeed: 1,
	}
	return tmpl, opts
}

// runToCompletion drives a daemon on a healthy filesystem until both
// batches are folded.
func runToCompletion(t testing.TB, opts Options) {
	t.Helper()
	opts.FS = nil
	opts.Metrics = obs.NewRegistry()
	d, err := New(opts)
	if err != nil {
		t.Fatalf("recovery New: %v", err)
	}
	defer d.Close()
	clock := newFakeClock()
	d.now = clock.Now
	drain(t, d, clock)
}

// pastEndLegs is how many matrix legs schedule their crash past the
// clean run's last op. The fault never fires in them, so they are the
// controls: an armed injector must leave a finished run untouched, and
// the restart over a finished directory must find nothing to redo.
const pastEndLegs = 6

// crashRun runs one matrix leg's daemon with a crash armed at op k and
// ticks until the crash bites or the spool drains. ops is the clean
// run's op count; a leg at or past it must finish without crashing.
func crashRun(t *testing.T, opts Options, k, ops int) {
	t.Helper()
	inj := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{
		Op: faultfs.OpAny, After: k, Kind: faultfs.Crash, Keep: -1,
	})
	opts.FS = inj
	d, err := New(opts)
	if err == nil {
		// Tick until the crash bites or the work finishes.
		for i := 0; i < 20 && err == nil; i++ {
			err = d.Tick()
			if d.Status().SpoolBacklog == 0 {
				break
			}
		}
		if k >= ops && err == nil {
			if g := d.Generation(); g != 2 {
				t.Errorf("uncrashed run stopped at generation %d, want 2", g)
			}
		}
		d.Close() //nolint:errcheck // possibly crashed mid-write
	}
	if err != nil && !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("unexpected non-crash error: %v", err)
	}
	if k >= ops && inj.Crashed() {
		t.Fatalf("crash scheduled past the clean run's %d ops fired", ops)
	}
}

// TestCrashMatrix is the tentpole proof: enumerate every filesystem
// operation of a clean adopt-and-fold-two-batches run, kill the
// daemon at each one (with the interrupted write torn in half), add
// pastEndLegs uncrashed controls, restart on a healthy filesystem, and
// require exact convergence — the same generation count, a pattern
// dump byte-identical to a one-shot mine, both batches archived
// exactly once, nothing lost, nothing poisoned.
func TestCrashMatrix(t *testing.T) {
	tmpl, topts := crashTemplate(t)
	want := refDump(t, testTxns(0, 8))

	// Probe the clean run's op count.
	probeDir := t.TempDir()
	copyDir(t, tmpl, probeDir)
	probe := faultfs.NewInjector(faultfs.OS{})
	popts := topts
	popts.Dir = filepath.Join(probeDir, "data")
	popts.Seed = filepath.Join(probeDir, "seed.tnd")
	popts.FS = probe
	popts.Metrics = obs.NewRegistry()
	pd, err := New(popts)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, pd, nil)
	pd.Close() //nolint:errcheck
	ops := probe.Ops()
	if ops < 20 {
		t.Fatalf("clean run used only %d fs ops — injection coverage looks broken", ops)
	}
	t.Logf("clean run: %d injectable ops", ops)

	for k := 0; k < ops+pastEndLegs; k++ {
		k := k
		t.Run(fmt.Sprintf("crash-at-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, tmpl, dir)
			opts := topts
			opts.Dir = filepath.Join(dir, "data")
			opts.Seed = filepath.Join(dir, "seed.tnd")
			opts.Metrics = obs.NewRegistry()
			crashRun(t, opts, k, ops)

			// Restart on a healthy filesystem and require convergence.
			runToCompletion(t, opts)
			r, err := store.Open(filepath.Join(opts.Dir, storeDir, genName(2)))
			if err != nil {
				t.Fatalf("final generation missing: %v", err)
			}
			defer r.Close()
			if g := r.Meta().Generation; g != 2 {
				t.Fatalf("final generation = %d, want 2", g)
			}
			got, err := store.DumpPatterns(r)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("recovered dump differs from uninterrupted one-shot mine")
			}
			for _, name := range []string{"b-000001.json", "b-000002.json"} {
				if _, err := os.Stat(filepath.Join(opts.Dir, appliedDir, name)); err != nil {
					t.Errorf("batch %s not archived exactly once: %v", name, err)
				}
			}
			if ents, _ := os.ReadDir(filepath.Join(opts.Dir, poisonDir)); len(ents) != 0 {
				t.Errorf("crash recovery poisoned %d entries", len(ents))
			}
			if ents, _ := os.ReadDir(filepath.Join(opts.Dir, spoolDir)); len(ents) != 0 {
				t.Errorf("%d spool entries left behind", len(ents))
			}
		})
	}
}

// TestServingContinuityUnderCrashLoop is the headline robustness
// claim: a serve.Server keeps answering every query from generation N
// while the ingest daemon dies at seeded-random filesystem operations
// and restarts, over and over, until all batches are folded. Zero
// failed queries, generations only move forward, and the final store
// matches the one-shot mine.
func TestServingContinuityUnderCrashLoop(t *testing.T) {
	tmpl, topts := crashTemplate(t)
	const batches = 4
	data := filepath.Join(tmpl, "data")
	spoolBatch(t, data, "b-000003.json", testTxns(8, 10))
	spoolBatch(t, data, "b-000004.json", testTxns(10, 12))
	want := refDump(t, testTxns(0, 12))

	dir := t.TempDir()
	copyDir(t, tmpl, dir)
	topts.Dir = filepath.Join(dir, "data")
	topts.Seed = filepath.Join(dir, "seed.tnd")

	// Adopt the seed cleanly so the server has a generation to mount,
	// but leave every batch unfolded.
	boot, err := New(Options{Dir: topts.Dir, Seed: topts.Seed, MinSupport: testMinSupport, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	genPath := boot.CurrentPath()
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := store.Open(genPath)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New([]serve.Mount{{Name: "tiny", Reader: rd}}, serve.Options{
		Parallelism: 2, Metrics: obs.NewRegistry(),
	})
	defer srv.Close() //nolint:errcheck
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	remount := func(path string) error {
		_, err := srv.RemountAuto(path)
		if errors.Is(err, serve.ErrProvenance) {
			return ErrRemountStale
		}
		return err
	}

	// Query hammer: every response must be a 200 with a parseable
	// store listing, and each client's sequential observations of the
	// served generation must never regress. (Monotonicity is per
	// client, not global: a response served from generation N may
	// legitimately finish its write after a concurrent client already
	// observed N+1 — the swap drains in-flight requests.)
	stop := make(chan struct{})
	var failures atomic.Int64
	var lastGen atomic.Int64
	var regressions atomic.Int64
	var queries atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := ts.Client()
			prev := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(ts.URL + "/v1/stores")
				if err != nil {
					failures.Add(1)
					continue
				}
				var stores []struct {
					Generation int `json:"generation"`
				}
				derr := json.NewDecoder(resp.Body).Decode(&stores)
				resp.Body.Close()
				if derr != nil || resp.StatusCode != http.StatusOK || len(stores) != 1 {
					failures.Add(1)
					continue
				}
				queries.Add(1)
				g := int64(stores[0].Generation)
				if g < prev {
					regressions.Add(1)
				}
				prev = g
				for {
					cur := lastGen.Load()
					if g <= cur || lastGen.CompareAndSwap(cur, g) {
						break
					}
				}
			}
		}()
	}

	// Crash loop: run the daemon with a crash scheduled at a seeded-
	// random op count, let it die, restart, repeat until the spool
	// drains; a final fault-free pass proves convergence.
	rng := rand.New(rand.NewSource(42))
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; ; round++ {
		if time.Now().After(deadline) {
			t.Fatal("crash loop did not converge in time")
		}
		opts := topts
		opts.Metrics = obs.NewRegistry()
		opts.Remount = remount
		opts.JitterSeed = int64(round + 1)
		done := false
		if round < 40 {
			opts.FS = faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{
				Op: faultfs.OpAny, After: rng.Intn(60), Kind: faultfs.Crash, Keep: -1,
			})
		}
		d, err := New(opts)
		if err == nil {
			clock := newFakeClock()
			d.now = clock.Now
			var terr error
			for i := 0; i < 60 && terr == nil; i++ {
				terr = d.Tick()
				st := d.Status()
				if st.SpoolBacklog == 0 && !st.PendingRemount {
					done = true
					break
				}
				clock.Advance(time.Minute)
			}
			err = terr
			d.Close() //nolint:errcheck
		}
		if err != nil && !errors.Is(err, faultfs.ErrCrashed) {
			t.Fatalf("round %d: unexpected error: %v", round, err)
		}
		if done {
			break
		}
	}
	// Let the hammer observe the final remounted generation before
	// stopping it.
	for waited := 0; lastGen.Load() != batches && waited < 200; waited++ {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if q := queries.Load(); q == 0 {
		t.Fatal("query hammer never completed a request")
	}
	if f := failures.Load(); f != 0 {
		t.Errorf("%d failed queries during crash loop", f)
	}
	if r := regressions.Load(); r != 0 {
		t.Errorf("served generation regressed %d times", r)
	}
	if g := lastGen.Load(); g != batches {
		t.Errorf("final served generation = %d, want %d", g, batches)
	}

	// The served store is byte-identical to the uninterrupted mine.
	final := filepath.Join(topts.Dir, storeDir, genName(batches))
	fr, err := store.Open(final)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	got, err := store.DumpPatterns(fr)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("served store differs from one-shot mine")
	}
}
