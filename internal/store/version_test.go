package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tnkd/internal/iso"
	"tnkd/internal/pattern"
)

// patchVersion rewrites the format-version field of a store file in
// place — the uint32 following the magic.
func patchVersion(t *testing.T, path string, version uint32) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], version)
	if _, err := f.WriteAt(v[:], int64(len(magic))); err != nil {
		t.Fatal(err)
	}
}

// TestCurrentWriterProducesCurrentVersion pins the header: a fresh
// store carries FormatVersion and opens at it.
func TestCurrentWriterProducesCurrentVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cur.tnd")
	w, err := Create(path, Meta{Name: "cur"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != FormatVersion {
		t.Fatalf("header version %d, want %d", v, FormatVersion)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v := ReadStats(r).Version; v != FormatVersion {
		t.Fatalf("stats version %d, want %d", v, FormatVersion)
	}
}

// TestRejectUnknownVersionNamesRange: every version other than
// FormatVersion — the retired 1 through 3, a future one and 0 — fails
// Open with an error naming the version found and the one this build
// reads.
func TestRejectUnknownVersionNamesRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "other.tnd")
	w, err := Create(path, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 2, 3, FormatVersion + 1, 0} {
		patchVersion(t, path, v)
		_, err := Open(path)
		if err == nil {
			t.Fatalf("opened a version-%d store", v)
		}
		for _, want := range []string{
			fmt.Sprintf("unsupported format version %d ", v),
			fmt.Sprintf("reads only version %d", FormatVersion),
			"re-mine",
		} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("version %d: error %q does not name %q", v, err, want)
			}
		}
	}
}

// TestRejectUnknownFlagBits: a record whose index flags carry a bit
// outside flagHasEmbs|flagOverflowed|flagPartial — bit 2 marked the
// retired bitset TID column — fails Open with an error naming the
// record and the bits, not at its first decode.
func TestRejectUnknownFlagBits(t *testing.T) {
	for _, bit := range []byte{1 << 2, 1 << 4, 1 << 7} {
		path := filepath.Join(t.TempDir(), "flags.tnd")
		w, err := Create(path, Meta{Kind: "fsg"})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteTransactions(tinyTxns(2)); err != nil {
			t.Fatal(err)
		}
		pats := []pattern.Pattern{edgePattern("a", pattern.NewTIDSet(0)), edgePattern("b", pattern.NewTIDSet(0, 1))}
		if err := w.WriteLevel(1, pats); err != nil {
			t.Fatal(err)
		}
		w.recs[1].flags |= bit // Close writes the index from recs
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = Open(path)
		if err == nil {
			t.Fatalf("opened a store whose record 1 carries flag bit %#02x", bit)
		}
		for _, want := range []string{"record 1 ", fmt.Sprintf("unknown flag bits %#02x", bit), "re-mine"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("bit %#02x: error %q does not name %q", bit, err, want)
			}
		}
	}
}

// TestRejectSeedsWithoutPartial: overflowed embedding lists must carry
// the partial column saying which lists are seeds. A record whose
// index flags announce lists and overflow but no partial column fails
// Open; a record body of that shape, or one whose partial column is
// empty, fails decode. All report ErrNoPartialColumn.
func TestRejectSeedsWithoutPartial(t *testing.T) {
	seeds := edgePattern("s", pattern.NewTIDSet(0, 1))
	seeds.Embs, seeds.Offsets = iso.NewEmbeddingList(seeds.Graph), make([]int32, 3)
	seeds.Overflowed = true
	seeds.Partial = pattern.NewTIDSet(1)

	path := filepath.Join(t.TempDir(), "seeds.tnd")
	w, err := Create(path, Meta{Kind: "fsg"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTransactions(tinyTxns(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteLevel(1, []pattern.Pattern{edgePattern("a", pattern.NewTIDSet(0)), seeds}); err != nil {
		t.Fatal(err)
	}
	w.recs[1].flags &^= flagPartial // Close writes the index from recs
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path)
	if !errors.Is(err, ErrNoPartialColumn) || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("Open: %v, want ErrNoPartialColumn naming record 1", err)
	}

	// The partial column {1} closes the record as kind 0, count 1,
	// delta 1; rewriting it to kind 0, count 0 empties it.
	var e enc
	encodePattern(&e, &seeds)
	emptied := append(e.buf[:len(e.buf)-3:len(e.buf)-3], tidColList, 0)
	seeds.Partial = pattern.TIDSet{}
	e = enc{}
	encodePattern(&e, &seeds)
	for name, rec := range map[string][]byte{"no partial column": e.buf, "empty partial column": emptied} {
		d := &dec{buf: rec}
		if p := decodePattern(d); p != nil || !errors.Is(d.err, ErrNoPartialColumn) {
			t.Fatalf("%s: decoded pattern %v, err %v, want ErrNoPartialColumn", name, p, d.err)
		}
	}
}
