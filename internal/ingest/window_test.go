package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tnkd/internal/faultfs"
	"tnkd/internal/graph"
	"tnkd/internal/obs"
	"tnkd/internal/store"
)

// TestWindowSlideConvergence is the ingest half of the sliding-window
// exactness claim: a daemon with Window=3 folds four batches onto a
// one-unit seed, and after every fold the published generation must be
// byte-identical to a one-shot mine of exactly the window's
// transactions, with the window provenance (unit bounds, per-unit
// sizes, retired count) visible in both the store metadata and the
// /v1/ingest/status view.
func TestWindowSlideConvergence(t *testing.T) {
	d, opts := newTestDaemon(t, func(o *Options) { o.Window = 3 })

	steps := []struct {
		name       string
		txns       []*graph.Graph // arriving batch
		window     []*graph.Graph // expected window contents after the fold
		start, end int            // expected 1-based unit bounds
		units      []int          // expected Meta.WindowSizes
		retired    int            // transactions retired by this fold
	}{
		{"b-000001.json", testTxns(4, 6), testTxns(0, 6), 1, 2, []int{4, 2}, 0},
		{"b-000002.json", testTxns(6, 8), testTxns(0, 8), 1, 3, []int{4, 2, 2}, 0},
		{"b-000003.json", testTxns(8, 10), testTxns(4, 10), 2, 4, []int{2, 2, 2}, 4},
		{"b-000004.json", testTxns(10, 12), testTxns(6, 12), 3, 5, []int{2, 2, 2}, 2},
	}
	for i, s := range steps {
		spoolBatch(t, opts.Dir, s.name, s.txns)
		drain(t, d, nil)
		if got := d.Generation(); got != i+1 {
			t.Fatalf("after %s: generation = %d, want %d", s.name, got, i+1)
		}
		if got, want := currentDump(t, d), refDump(t, s.window); got != want {
			t.Errorf("after %s: dump differs from one-shot mine of the window", s.name)
		}
		st := d.Status()
		if st.Window != 3 || st.WindowStart != s.start || st.WindowEnd != s.end ||
			st.WindowUnits != len(s.units) || st.Retired != s.retired {
			t.Errorf("after %s: status window = cfg %d units %d..%d (%d) retired %d, want cfg 3 units %d..%d (%d) retired %d",
				s.name, st.Window, st.WindowStart, st.WindowEnd, st.WindowUnits, st.Retired,
				s.start, s.end, len(s.units), s.retired)
		}
		r, err := store.Open(d.CurrentPath())
		if err != nil {
			t.Fatal(err)
		}
		m := r.Meta()
		if len(m.WindowSizes) != len(s.units) {
			t.Fatalf("after %s: WindowSizes = %v, want %v", s.name, m.WindowSizes, s.units)
		}
		total := 0
		for j, u := range m.WindowSizes {
			if u != s.units[j] {
				t.Errorf("after %s: WindowSizes = %v, want %v", s.name, m.WindowSizes, s.units)
			}
			total += u
		}
		if n := r.NumTransactions(); n != total || n != len(s.window) {
			t.Errorf("after %s: store holds %d transactions, WindowSizes sum %d, want %d",
				s.name, n, total, len(s.window))
		}
		r.Close() //nolint:errcheck
	}

	// The window state lives in the store metadata alone, so a clean
	// restart must keep sliding from where the old daemon stopped.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	spoolBatch(t, opts.Dir, "b-000005.json", testTxns(12, 14))
	drain(t, d2, nil)
	if got := d2.Generation(); got != 5 {
		t.Fatalf("generation after restart = %d, want 5", got)
	}
	if got, want := currentDump(t, d2), refDump(t, testTxns(8, 14)); got != want {
		t.Errorf("post-restart slide differs from one-shot mine of the window")
	}
	if st := d2.Status(); st.WindowStart != 4 || st.WindowEnd != 6 || st.Retired != 2 {
		t.Errorf("post-restart status window = %d..%d retired %d, want 4..6 retired 2", st.WindowStart, st.WindowEnd, st.Retired)
	}
}

// TestCrashMatrixWindow reruns the crash matrix with a sliding window
// small enough that the second fold retires the seed unit: every
// filesystem operation of the run — including the ones inside the
// retirement publish — gets a kill-and-restart leg, and recovery must
// converge to the byte-identical store a never-killed windowed daemon
// publishes (a fresh mine of exactly the final window's transactions).
func TestCrashMatrixWindow(t *testing.T) {
	tmpl, topts := crashTemplate(t)
	topts.Window = 2
	// Final window after both folds: units [b1, b2] — the seed's 4
	// transactions retired during the second fold's publish.
	want := refDump(t, testTxns(4, 8))

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
		t.Fatalf("clean windowed run used only %d fs ops — injection coverage looks broken", ops)
	}
	t.Logf("clean windowed run: %d injectable ops", ops)

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

			runToCompletion(t, opts)
			r, err := store.Open(filepath.Join(opts.Dir, storeDir, genName(2)))
			if err != nil {
				t.Fatalf("final generation missing: %v", err)
			}
			defer r.Close()
			m := r.Meta()
			if m.Generation != 2 {
				t.Fatalf("final generation = %d, want 2", m.Generation)
			}
			if m.WindowStart != 2 || m.WindowEnd != 3 || m.Retired != 4 || len(m.WindowSizes) != 2 {
				t.Errorf("final window meta = units %d..%d retired %d sizes %v, want 2..3 retired 4 sizes [2 2]",
					m.WindowStart, m.WindowEnd, m.Retired, m.WindowSizes)
			}
			got, err := store.DumpPatterns(r)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("recovered dump differs from uninterrupted windowed mine")
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
