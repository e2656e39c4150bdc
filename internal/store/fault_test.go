package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tnkd/internal/faultfs"
	"tnkd/internal/graph"
	"tnkd/internal/pattern"
)

// faultFixture is one deterministic store payload shared by every
// fault-injection test: three transactions and two levels, written
// through an injected filesystem.
type faultFixture struct {
	txns   []*graph.Graph
	level1 []pattern.Pattern
	level2 []pattern.Pattern
}

func newFaultFixture() *faultFixture {
	rng := rand.New(rand.NewSource(7))
	txns := []*graph.Graph{randGraph(rng, "t0"), randGraph(rng, "t1"), randGraph(rng, "t2")}
	return &faultFixture{
		txns:   txns,
		level1: []pattern.Pattern{randPattern(rng, 1, txns), randPattern(rng, 1, txns)},
		level2: []pattern.Pattern{randPattern(rng, 2, txns)},
	}
}

// write streams the fixture through fsys, returning the first error.
// The op sequence (a payload smaller than the write buffer) is:
// create(tmp), write(everything), sync, close, rename(tmp -> path),
// syncdir.
func (fx *faultFixture) write(fsys faultfs.FS, path string) error {
	w, err := CreateFS(fsys, path, Meta{Name: "faulty", Kind: "fsg"})
	if err != nil {
		return err
	}
	if err := w.WriteTransactions(fx.txns); err != nil {
		w.Abort() //nolint:errcheck // crashed FS cannot clean up
		return err
	}
	if err := w.WriteLevel(1, fx.level1); err != nil {
		w.Abort() //nolint:errcheck
		return err
	}
	if err := w.WriteLevel(2, fx.level2); err != nil {
		w.Abort() //nolint:errcheck
		return err
	}
	return w.Close()
}

// dump returns the canonical pattern dump of the fixture written
// cleanly: the only store a crashed writer may ever leave at its
// target.
func (fx *faultFixture) dump(t *testing.T) string {
	t.Helper()
	p := tmpStore(t)
	if err := fx.write(faultfs.OS{}, p); err != nil {
		t.Fatal(err)
	}
	return dumpFile(t, p)
}

func dumpFile(t *testing.T, path string) string {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	d, err := DumpPatterns(r)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCloseSyncFailure fails the final fsync: Close must report the
// error and abort (remove) the staging file rather than publish an
// unsynced store that Open would happily accept.
func TestCloseSyncFailure(t *testing.T) {
	fx := newFaultFixture()
	path := tmpStore(t)
	fsys := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{
		Op: faultfs.OpSync, Kind: faultfs.Error,
	})
	if err := fx.write(fsys, path); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("write err = %v, want injected sync failure", err)
	}
	for _, p := range []string{path, tmpPath(path)} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived a failed Close: stat err = %v", filepath.Base(p), err)
		}
	}
}

// TestWriterCrashMatrix kills the writer at every filesystem
// operation in turn, once with the target absent and once with an
// older store already there, and proves the target is always either
// untouched (absent, or byte-identical to the older store) or the
// complete new store — never a torn file.
func TestWriterCrashMatrix(t *testing.T) {
	fx := newFaultFixture()
	want := fx.dump(t)
	old, err := os.ReadFile(validStorePath(t))
	if err != nil {
		t.Fatal(err)
	}

	// Count the clean run's ops.
	probe := faultfs.NewInjector(faultfs.OS{})
	if err := fx.write(probe, tmpStore(t)); err != nil {
		t.Fatal(err)
	}
	ops := probe.Ops()
	if ops < 6 {
		t.Fatalf("expected at least 6 ops in a clean run, counted %d", ops)
	}

	for _, existing := range []bool{false, true} {
		for k := 0; k < ops; k++ {
			path := tmpStore(t)
			if existing {
				if err := os.WriteFile(path, old, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fsys := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{
				Op: faultfs.OpAny, After: k, Kind: faultfs.Crash, Keep: -1,
			})
			if err := fx.write(fsys, path); !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("existing=%v k=%d: write err = %v, want ErrCrashed", existing, k, err)
			}
			data, err := os.ReadFile(path)
			switch {
			case !existing && errors.Is(err, os.ErrNotExist):
				continue
			case err != nil:
				t.Fatalf("existing=%v k=%d: %v", existing, k, err)
			case existing && bytes.Equal(data, old):
				continue
			}
			if got := dumpFile(t, path); got != want {
				t.Errorf("existing=%v k=%d: target is neither the old store nor the clean new one:\n%s", existing, k, got)
			}
		}
	}
}

// TestCreateKeepsTargetUntilClose: a store already at the target
// survives byte-identical through Create, writes and Abort, and is
// replaced only by a successful Close. Neither path leaves a staging
// file behind.
func TestCreateKeepsTargetUntilClose(t *testing.T) {
	fx := newFaultFixture()
	path := validStorePath(t)
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	noStaging := func(when string) {
		t.Helper()
		if _, err := os.Stat(tmpPath(path)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: staging file left behind: stat err = %v", when, err)
		}
	}

	w, err := Create(path, Meta{Name: "replacement"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTransactions(fx.txns); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("after Abort the old store changed (err %v)", err)
	}
	noStaging("Abort")

	w, err = Create(path, Meta{Name: "replacement"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTransactions(fx.txns); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	noStaging("Close")
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Meta().Name != "replacement" || r.NumTransactions() != len(fx.txns) {
		t.Fatalf("Close published %q with %d transactions, want the replacement with %d",
			r.Meta().Name, r.NumTransactions(), len(fx.txns))
	}
}

// TestNoDeadBytes: a multi-level store is header, transaction records,
// pattern records, one index and one trailer, with nothing between
// them.
func TestNoDeadBytes(t *testing.T) {
	path := tmpStore(t)
	if err := newFaultFixture().write(faultfs.OS{}, path); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.levels) < 2 {
		t.Fatalf("fixture has %d levels, want a multi-level store", len(r.levels))
	}
	body := uint64(headerSize)
	for _, s := range r.txnSpan {
		body += s.len
	}
	for _, rec := range r.recs {
		body += rec.len
	}
	idxOff := uint64(r.size)
	if body != idxOff {
		t.Fatalf("header + records = %d bytes, but the index starts at %d: %d dead bytes", body, idxOff, int64(idxOff)-int64(body))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idxLen := binary.LittleEndian.Uint64(data[len(data)-trailerSize+8:])
	if got := uint64(len(data)); got != idxOff+idxLen+uint64(trailerSize) {
		t.Fatalf("file is %d bytes, want index %d+%d plus a %d-byte trailer", got, idxOff, idxLen, trailerSize)
	}
}
