package ingest

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tnkd/internal/core"
	"tnkd/internal/faultfs"
	"tnkd/internal/obs"
	"tnkd/internal/partition"
	"tnkd/internal/store"
)

// restart reopens a daemon on a healthy filesystem with fresh
// counters — the standard second act of every recovery test.
func restart(t testing.TB, opts Options) *Daemon {
	t.Helper()
	opts.FS = faultfs.OS{}
	opts.Metrics = obs.NewRegistry()
	d, err := New(opts)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	t.Cleanup(func() { d.Close() }) //nolint:errcheck
	return d
}

// TestDanglingBeginNotCompletedForOtherBatch reproduces the silent
// data-loss scenario: batch aa's fold fails transiently (its begin
// record dangles), batch bb then publishes the very generation aa's
// begin named, and the daemon crashes before aa retries. Recovery
// must NOT treat bb's committed generation as proof that aa was
// folded — aa has to re-fold from the spool.
func TestDanglingBeginNotCompletedForOtherBatch(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS{},
		// aa's publish rename fails once; bb's then succeeds.
		faultfs.Fault{Op: faultfs.OpRename, Path: "gen-000001.tnd", Kind: faultfs.Error},
		// Crash while archiving bb, after bb's publish record landed.
		faultfs.Fault{Op: faultfs.OpRename, Path: spoolDir + "/bb-batch.json", Kind: faultfs.Crash},
	)
	d, opts := newTestDaemon(t, func(o *Options) { o.FS = inj })
	spoolBatch(t, opts.Dir, "aa-batch.json", testTxns(4, 6))
	spoolBatch(t, opts.Dir, "bb-batch.json", testTxns(6, 8))
	if err := d.Tick(); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("Tick err = %v, want simulated crash", err)
	}
	d.Close() //nolint:errcheck // crashed

	d2 := restart(t, opts)
	drain(t, d2, nil)

	// aa must have been folded after the restart (to generation 2, on
	// top of bb's generation 1), not journaled away as published.
	if got := d2.Generation(); got != 2 {
		t.Fatalf("generation = %d, want 2 (aa re-folded on top of bb)", got)
	}
	if st := d2.Status(); st.Folds != 1 {
		t.Errorf("restart folds = %d, want exactly 1 (aa)", st.Folds)
	}
	want := refDump(t, append(append(testTxns(0, 4), testTxns(6, 8)...), testTxns(4, 6)...))
	if got := currentDump(t, d2); got != want {
		t.Errorf("recovered dump differs from one-shot mine — aa's transactions were lost")
	}
	for _, name := range []string{"aa-batch.json", "bb-batch.json"} {
		if _, err := os.Stat(filepath.Join(opts.Dir, appliedDir, name)); err != nil {
			t.Errorf("batch %s not archived: %v", name, err)
		}
	}
}

// TestDanglingBeginRollbackSparesLiveGeneration covers the rollback
// side of the same defect: aa's dangling begin names gen 1, but by
// crash time gen 1 is a committed predecessor published by bb (cc
// moved CURRENT on to gen 2). Recovery must not delete gen 1 — it is
// live lineage inside the keep window.
func TestDanglingBeginRollbackSparesLiveGeneration(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS{},
		faultfs.Fault{Op: faultfs.OpRename, Path: "gen-000001.tnd", Kind: faultfs.Error},
		faultfs.Fault{Op: faultfs.OpRename, Path: spoolDir + "/cc-batch.json", Kind: faultfs.Crash},
	)
	d, opts := newTestDaemon(t, func(o *Options) { o.FS = inj })
	spoolBatch(t, opts.Dir, "aa-batch.json", testTxns(4, 6))
	spoolBatch(t, opts.Dir, "bb-batch.json", testTxns(6, 8))
	spoolBatch(t, opts.Dir, "cc-batch.json", testTxns(8, 10))
	if err := d.Tick(); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("Tick err = %v, want simulated crash", err)
	}
	d.Close() //nolint:errcheck // crashed

	d2 := restart(t, opts)
	gen1 := filepath.Join(opts.Dir, storeDir, genName(1))
	r, err := store.Open(gen1)
	if err != nil {
		t.Fatalf("recovery removed live generation 1: %v", err)
	}
	got1, err := store.DumpPatterns(r)
	r.Close() //nolint:errcheck
	if err != nil {
		t.Fatal(err)
	}
	if want1 := refDump(t, append(testTxns(0, 4), testTxns(6, 8)...)); got1 != want1 {
		t.Errorf("generation 1 content changed across recovery")
	}

	drain(t, d2, nil)
	if got := d2.Generation(); got != 3 {
		t.Fatalf("generation = %d, want 3 (aa re-folded on top of cc)", got)
	}
	want := refDump(t, append(append(append(testTxns(0, 4), testTxns(6, 8)...), testTxns(8, 10)...), testTxns(4, 6)...))
	if got := currentDump(t, d2); got != want {
		t.Errorf("final dump differs from one-shot mine")
	}
	// KeepGenerations defaults to 3: generation 1 is still inside the
	// window after the fold to 3 and must have survived GC too.
	if _, err := os.Stat(gen1); err != nil {
		t.Errorf("generation 1 missing after drain: %v", err)
	}
}

// TestJournalFailureNotChargedToBatch injects a write error on the
// journal itself with MaxAttempts=1: if the begin-append failure were
// charged to the batch, one journal hiccup would quarantine perfectly
// good data. It must instead surface as daemon trouble and the batch
// must fold on the next tick.
func TestJournalFailureNotChargedToBatch(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{
		Op: faultfs.OpWrite, Path: journalFile, Kind: faultfs.Error,
	})
	d, opts := newTestDaemon(t, func(o *Options) {
		o.FS = inj
		o.MaxAttempts = 1
	})
	spoolBatch(t, opts.Dir, "b-000001.json", testTxns(4, 6))
	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	if st.Quarantines != 0 || st.Poisoned != 0 {
		t.Fatalf("journal failure quarantined the batch: %+v", st)
	}
	if st.FoldFailures != 1 || st.LastError == "" {
		t.Errorf("journal failure not surfaced: %+v", st)
	}
	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	if st := d.Status(); st.Generation != 1 || st.Quarantines != 0 {
		t.Fatalf("batch did not fold after journal recovered: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, appliedDir, "b-000001.json")); err != nil {
		t.Errorf("batch not archived: %v", err)
	}
}

// TestUnreadableStoreNotChargedToBatch seeds the daemon with a store
// whose first transaction no longer decodes (its name's length prefix
// overruns the record) while the store itself still opens. A POSTed
// batch then cannot be mined on top of it, but that is the store's
// fault: with MaxAttempts=1 the batch must stay in the spool,
// unquarantined and uncharged, and the failure must surface on the
// fold-failure counter.
func TestUnreadableStoreNotChargedToBatch(t *testing.T) {
	d, opts := newTestDaemon(t, func(o *Options) {
		o.MaxAttempts = 1
		data, err := os.ReadFile(o.Seed)
		if err != nil {
			t.Fatal(err)
		}
		name := []byte("\x02t0") // uvarint length + transaction 0's name
		if n := bytes.Count(data, name); n != 1 {
			t.Fatalf("seed holds %d copies of transaction 0's name, want 1", n)
		}
		data[bytes.Index(data, name)] = 0x7f
		if err := os.WriteFile(o.Seed, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	batch, err := EncodeBatch("posted", testTxns(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/ingest = %d, want 202", resp.StatusCode)
	}
	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}

	st := d.Status()
	if st.Generation != 0 || st.Quarantines != 0 || st.Poisoned != 0 || st.SpoolBacklog != 1 {
		t.Fatalf("unreadable store was charged to the batch: %+v", st)
	}
	if st.FoldFailures != 1 || !strings.Contains(st.LastError, "current store unusable") {
		t.Errorf("store failure not surfaced: %+v", st)
	}
	if len(d.attempts) != 0 {
		t.Errorf("batch charged %d attempt records, want none", len(d.attempts))
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, spoolDir, "posted.json")); err != nil {
		t.Errorf("batch left the spool: %v", err)
	}
}

// TestGCJournalFailureDoesNotKillTick: a transient journal write
// failure during GC must skip the pass and retry next tick, not
// propagate out of Tick (where cmd/tndingest would log.Fatal).
func TestGCJournalFailureDoesNotKillTick(t *testing.T) {
	d, opts := newTestDaemon(t, nil)
	spoolBatch(t, opts.Dir, "b-000001.json", testTxns(4, 6))
	drain(t, d, nil)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with a tight GC window and a journal write fault: the
	// first journal write of the first tick is gc's intent record.
	opts.KeepGenerations = 1
	opts.Metrics = obs.NewRegistry()
	opts.FS = faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{
		Op: faultfs.OpWrite, Path: journalFile, Kind: faultfs.Error,
	})
	d2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	gen0 := filepath.Join(opts.Dir, storeDir, genName(0))
	if err := d2.Tick(); err != nil {
		t.Fatalf("Tick returned %v — a transient journal error must not kill the daemon", err)
	}
	if st := d2.Status(); st.LastError == "" {
		t.Error("gc journal failure not surfaced in status")
	}
	if _, err := os.Stat(gen0); err != nil {
		t.Errorf("generation removed although its gc record never became durable: %v", err)
	}
	// Next tick the fault is spent: GC completes.
	if err := d2.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(gen0); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("generation 0 still present after retried GC: %v", err)
	}
}

// TestJournalCheckpointBoundsReplay folds enough batches to cross the
// checkpoint threshold and asserts the journal compacts down to the
// retained window's publish records, applied/ is pruned alongside,
// and a restart still honours the double-apply guard for retained
// batches — while a batch older than the window re-folds as new data
// (the documented guard-window semantics).
func TestJournalCheckpointBoundsReplay(t *testing.T) {
	d, opts := newTestDaemon(t, func(o *Options) {
		o.KeepGenerations = 2
		o.CheckpointEvery = 4
	})
	batches := []string{"b-000001.json", "b-000002.json", "b-000003.json", "b-000004.json"}
	for i, name := range batches {
		spoolBatch(t, opts.Dir, name, testTxns(4+i, 5+i))
	}
	drain(t, d, nil)
	if got := d.Generation(); got != 4 {
		t.Fatalf("generation = %d, want 4", got)
	}

	recs, _, err := replayJournal(filepath.Join(opts.Dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("journal holds %d records after checkpoint, want 2 (publish of gens 3 and 4): %+v", len(recs), recs)
	}
	for _, r := range recs {
		if r.Op != "publish" || r.Gen < 3 {
			t.Errorf("checkpointed journal kept %+v, want only in-window publish records", r)
		}
	}
	ents, err := os.ReadDir(filepath.Join(opts.Dir, appliedDir))
	if err != nil {
		t.Fatal(err)
	}
	var applied []string
	for _, e := range ents {
		applied = append(applied, e.Name())
	}
	if len(applied) != 2 || applied[0] != "b-000003.json" || applied[1] != "b-000004.json" {
		t.Errorf("applied/ after prune = %v, want the window's two batches", applied)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: replay is tiny, guard intact for retained batches.
	d2 := restart(t, opts)
	if len(d2.published) != 2 {
		t.Errorf("restart rebuilt %d published entries, want 2", len(d2.published))
	}
	spoolBatch(t, opts.Dir, "b-000004.json", testTxns(7, 8)) // same bytes as the folded copy
	drain(t, d2, nil)
	if st := d2.Status(); st.Folds != 0 || st.Generation != 4 {
		t.Fatalf("retained batch was re-folded after checkpoint: %+v", st)
	}

	// A batch whose generation aged out of the window is no longer
	// guarded: re-spooling it folds it again as new data.
	spoolBatch(t, opts.Dir, "b-000001.json", testTxns(4, 5))
	drain(t, d2, nil)
	if st := d2.Status(); st.Folds != 1 || st.Generation != 5 {
		t.Errorf("aged-out batch should re-fold as new data: %+v", st)
	}
}

// TestStructuralSeedRefused: an Algorithm 1 store has no successor, so
// a daemon seeded with one must fail at start with the seed
// refusal and leave no CURRENT pointer behind.
func TestStructuralSeedRefused(t *testing.T) {
	dir := t.TempDir()
	seed := filepath.Join(dir, "structural.tnd")
	if _, err := core.MineStructural(testTxn(0), core.StructuralOptions{
		Strategy: partition.BreadthFirst, Partitions: 2, Repetitions: 1,
		Support: 1, MaxEdges: 2, Seed: 1, StorePath: seed,
	}); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Dir:        filepath.Join(dir, "data"),
		Seed:       seed,
		MinSupport: testMinSupport,
		Metrics:    obs.NewRegistry(),
	}
	d, err := New(opts)
	if err == nil {
		d.Close() //nolint:errcheck
		t.Fatal("daemon adopted a structural seed")
	}
	if !strings.Contains(err.Error(), "seed cannot start a generation chain") {
		t.Fatalf("New: %v, want the generation-chain refusal", err)
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, storeDir, currentFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("CURRENT left behind: %v", err)
	}
}
