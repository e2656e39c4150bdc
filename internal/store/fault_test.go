package store

import (
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
// The op sequence (small payload, one bufio flush per checkpoint) is:
// create, write(hdr+txns+footer), write(level1+footer),
// write(level2+footer), sync, close.
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

// dumps returns the canonical pattern dump of each clean prefix state
// of the fixture: transactions only, +level1, +level1+level2. Any
// recovered store must be byte-identical to one of these.
func (fx *faultFixture) dumps(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	out := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, "ref.tnd")
		w, err := Create(p, Meta{Name: "faulty", Kind: "fsg"})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteTransactions(fx.txns); err != nil {
			t.Fatal(err)
		}
		if i >= 1 {
			if err := w.WriteLevel(1, fx.level1); err != nil {
				t.Fatal(err)
			}
		}
		if i >= 2 {
			if err := w.WriteLevel(2, fx.level2); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		d, err := DumpPatterns(r)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		out = append(out, d)
	}
	return out
}

func recoveredDump(t *testing.T, path string) string {
	t.Helper()
	r, err := Recover(path)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer r.Close()
	d, err := DumpPatterns(r)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRecoverTornFooter tears the last bytes off the final
// checkpoint's trailer — the torn-footer shape a crash mid-footer
// leaves — and proves Open rejects the file while Recover falls back
// to the previous intact checkpoint.
func TestRecoverTornFooter(t *testing.T) {
	fx := newFaultFixture()
	refs := fx.dumps(t)
	for _, keep := range []int{-2, -6, -20} {
		path := tmpStore(t)
		fsys := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{
			Op: faultfs.OpWrite, After: 2, Kind: faultfs.Crash, Keep: keep,
		})
		err := fx.write(fsys, path)
		if !errors.Is(err, faultfs.ErrCrashed) {
			t.Fatalf("keep=%d: write err = %v, want ErrCrashed", keep, err)
		}
		if _, err := Open(path); err == nil {
			t.Fatalf("keep=%d: torn store opened without recovery", keep)
		}
		if got := recoveredDump(t, path); got != refs[1] {
			t.Errorf("keep=%d: recovered dump differs from clean level-1 store:\n%s", keep, got)
		}
	}
}

// TestRecoverShortFinalWrite halves the final checkpoint write — a
// short write deep in the level-2 records — and proves recovery lands
// on the level-1 checkpoint.
func TestRecoverShortFinalWrite(t *testing.T) {
	fx := newFaultFixture()
	refs := fx.dumps(t)
	path := tmpStore(t)
	fsys := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{
		Op: faultfs.OpWrite, After: 2, Kind: faultfs.Crash, Keep: -1,
	})
	if err := fx.write(fsys, path); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("write err = %v, want ErrCrashed", err)
	}
	if got := recoveredDump(t, path); got != refs[1] {
		t.Errorf("recovered dump differs from clean level-1 store:\n%s", got)
	}
}

// TestRecoverNothingToRecover tears the very first checkpoint: no
// intact footer ever hits the disk, so Recover must fail too — there
// is nothing to serve.
func TestRecoverNothingToRecover(t *testing.T) {
	fx := newFaultFixture()
	path := tmpStore(t)
	fsys := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{
		Op: faultfs.OpWrite, Kind: faultfs.Crash, Keep: -1,
	})
	if err := fx.write(fsys, path); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("write err = %v, want ErrCrashed", err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("headerless torn store opened")
	}
	if _, err := Recover(path); err == nil {
		t.Fatal("Recover succeeded on a store with no intact footer")
	}
}

// TestCloseSyncFailure fails the final fsync: Close must report the
// error and abort (remove) the file rather than leave an unsynced
// store that Open would happily accept.
func TestCloseSyncFailure(t *testing.T) {
	fx := newFaultFixture()
	path := tmpStore(t)
	fsys := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{
		Op: faultfs.OpSync, Kind: faultfs.Error,
	})
	if err := fx.write(fsys, path); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("write err = %v, want injected sync failure", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("file survived a failed Close: stat err = %v", err)
	}
}

// TestWriterCrashMatrix kills the writer at every filesystem
// operation in turn and proves each torn file either recovers to a
// byte-identical clean prefix checkpoint or is cleanly unrecoverable
// — never a wrong answer.
func TestWriterCrashMatrix(t *testing.T) {
	fx := newFaultFixture()
	refs := fx.dumps(t)

	// Count the clean run's ops.
	probe := faultfs.NewInjector(faultfs.OS{})
	if err := fx.write(probe, tmpStore(t)); err != nil {
		t.Fatal(err)
	}
	ops := probe.Ops()
	if ops < 5 {
		t.Fatalf("expected at least 5 ops in a clean run, counted %d", ops)
	}

	for k := 0; k < ops; k++ {
		path := tmpStore(t)
		fsys := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{
			Op: faultfs.OpAny, After: k, Kind: faultfs.Crash, Keep: -1,
		})
		err := fx.write(fsys, path)
		if err == nil {
			// The crash hit the final close; everything durable already.
			r, oerr := Open(path)
			if oerr != nil {
				t.Fatalf("k=%d: clean-close store did not open: %v", k, oerr)
			}
			r.Close()
			continue
		}
		if _, serr := os.Stat(path); errors.Is(serr, os.ErrNotExist) {
			continue // crashed before or during create — nothing on disk
		}
		r, rerr := Recover(path)
		if rerr != nil {
			// Unrecoverable is legal only before the first checkpoint
			// became durable (crash at create or inside the first write).
			if k > 1 {
				t.Errorf("k=%d: unrecoverable after first checkpoint: %v", k, rerr)
			}
			continue
		}
		d, derr := DumpPatterns(r)
		r.Close()
		if derr != nil {
			t.Errorf("k=%d: recovered store failed to dump: %v", k, derr)
			continue
		}
		ok := false
		for _, ref := range refs {
			if d == ref {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("k=%d: recovered dump matches no clean prefix checkpoint:\n%s", k, d)
		}
	}
}
