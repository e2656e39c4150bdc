package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/pattern"
)

// --- helpers ---

func tmpStore(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.tnd")
}

// randGraph builds a random connected-ish dense graph.
func randGraph(rng *rand.Rand, name string) *graph.Graph {
	g := graph.New(name)
	nv := 1 + rng.Intn(6)
	for i := 0; i < nv; i++ {
		g.AddVertex(fmt.Sprintf("L%d", rng.Intn(4)))
	}
	ne := rng.Intn(8)
	for i := 0; i < ne; i++ {
		g.AddEdge(graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv)),
			fmt.Sprintf("w%d", rng.Intn(3)))
	}
	return g
}

// randPattern builds a random pattern record over txns exercising
// every flag combination: nil lists, seed lists, complete lists and
// empty per-TID lists. Embeddings reference vertices that exist in
// their transactions, as the writer requires.
func randPattern(rng *rand.Rand, edges int, txns []*graph.Graph) pattern.Pattern {
	g := graph.New("pat")
	nv := 1 + rng.Intn(4)
	for i := 0; i < nv; i++ {
		g.AddVertex(fmt.Sprintf("L%d", rng.Intn(3)))
	}
	for i := 0; i < edges; i++ {
		g.AddEdge(graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv)), "e")
	}
	code := fmt.Sprintf("c%d:%x", nv, rng.Uint64()) // codes are opaque to the store
	var tids []int
	for t := range txns {
		if rng.Intn(2) == 0 {
			tids = append(tids, t)
		}
	}
	if len(tids) == 0 {
		tids = []int{rng.Intn(len(txns))}
	}
	p := pattern.Pattern{Graph: g, Code: code, Support: len(tids), TIDs: pattern.TIDSetFromSlice(tids)}
	switch rng.Intn(4) {
	case 0: // no lists, overflowed
		p.Overflowed = true
	case 1: // complete lists, possibly with empty per-TID slots
		p.Embs, p.Offsets = randEmbs(rng, txns, tids, nv, edges, true)
	case 2: // seed lists (budget-overflowed pattern)
		p.Embs, p.Offsets = randEmbs(rng, txns, tids, nv, edges, false)
		p.Overflowed = true
		// Per-TID partial retention: mark a nonempty subset of the
		// TIDs as seeds-only (overflowed lists always say which).
		for _, tid := range tids {
			if rng.Intn(2) == 0 {
				p.Partial.Add(tid)
			}
		}
		if p.Partial.IsEmpty() {
			p.Partial.Add(tids[rng.Intn(len(tids))])
		}
	case 3: // non-overflowed with no lists at all (level untracked)
	}
	return p
}

// randEmbs builds one embedding list per TID, drawing vertex IDs from
// the vertices of that TID's transaction, and the offset column over
// them.
func randEmbs(rng *rand.Rand, txns []*graph.Graph, tids []int, nv, ne int, allowEmpty bool) (iso.EmbeddingList, []int32) {
	out := iso.EmbeddingList{NV: nv, NE: ne}
	offs := []int32{0}
	for _, tid := range tids {
		n := txns[tid].NumVertices()
		cnt := rng.Intn(4)
		if !allowEmpty && cnt == 0 {
			cnt = 1
		}
		for j := 0; j < cnt; j++ {
			for k := 0; k < nv; k++ {
				out.IDs = append(out.IDs, int32(rng.Intn(n)))
			}
			for k := 0; k < ne; k++ {
				out.IDs = append(out.IDs, int32(rng.Intn(80)))
			}
		}
		offs = append(offs, int32(out.Len()))
	}
	return out, offs
}

// sameGraphBytes compares two graphs by full observable state: name,
// sizes, labels and wiring.
func sameGraphBytes(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if want.Name != got.Name {
		t.Fatalf("graph name %q != %q", got.Name, want.Name)
	}
	if want.NumVertices() != got.NumVertices() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("sizes (%d,%d) != (%d,%d)", got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := range graph.VertexID(want.NumVertices()) {
		if want.Vertex(v).Label != got.Vertex(v).Label {
			t.Fatalf("vertex %d label %q != %q", v, got.Vertex(v).Label, want.Vertex(v).Label)
		}
	}
	for e := range graph.EdgeID(want.NumEdges()) {
		if want.Edge(e) != got.Edge(e) {
			t.Fatalf("edge %d %+v != %+v", e, got.Edge(e), want.Edge(e))
		}
	}
}

func samePattern(t *testing.T, want, got *pattern.Pattern) {
	t.Helper()
	sameGraphBytes(t, want.Graph, got.Graph)
	if want.Code != got.Code {
		t.Fatalf("code %q != %q", got.Code, want.Code)
	}
	if want.Support != got.Support {
		t.Fatalf("support %d != %d", got.Support, want.Support)
	}
	if !want.TIDs.Equal(got.TIDs) {
		t.Fatalf("TIDs %v != %v", got.TIDs, want.TIDs)
	}
	if !want.Partial.Equal(got.Partial) {
		t.Fatalf("partial TIDs %v != %v", got.Partial, want.Partial)
	}
	if want.Overflowed != got.Overflowed {
		t.Fatalf("overflowed %v != %v", got.Overflowed, want.Overflowed)
	}
	if (want.Offsets == nil) != (got.Offsets == nil) {
		t.Fatalf("embs presence %v != %v", got.Offsets != nil, want.Offsets != nil)
	}
	if want.Offsets == nil {
		return
	}
	if !slices.Equal(want.Offsets, got.Offsets) {
		t.Fatalf("offsets %v != %v", got.Offsets, want.Offsets)
	}
	if want.Embs.NV != got.Embs.NV || want.Embs.NE != got.Embs.NE || !slices.Equal(want.Embs.IDs, got.Embs.IDs) {
		t.Fatalf("embs %+v != %+v", got.Embs, want.Embs)
	}
}

// writeStore persists txns + levels and returns the path.
func writeStore(t *testing.T, path string, meta Meta, txns []*graph.Graph, levels map[int][]pattern.Pattern) {
	t.Helper()
	w, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTransactions(txns); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteLevels(levels); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// --- round-trip property tests ---

// TestRoundTripProperty drives the codec with randomised patterns
// covering every storage shape: save→load must reproduce
// byte-identical graphs, codes, TID lists and dense embeddings,
// including budget-overflowed patterns with empty or absent lists.
func TestRoundTripProperty(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		numTxns := 1 + rng.Intn(6)
		txns := make([]*graph.Graph, numTxns)
		for i := range txns {
			txns[i] = randGraph(rng, fmt.Sprintf("txn%d", i))
		}
		levels := map[int][]pattern.Pattern{}
		for _, edges := range []int{1, 2, 3} {
			n := rng.Intn(5)
			for i := 0; i < n; i++ {
				levels[edges] = append(levels[edges], randPattern(rng, edges, txns))
			}
			if len(levels[edges]) == 0 {
				delete(levels, edges)
			}
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("trial%d.tnd", trial))
		meta := Meta{Name: "prop", Kind: "fsg", MinSupport: 1, Note: "round-trip property"}
		writeStore(t, path, meta, txns, levels)

		r, err := Open(path)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r.NumTransactions() != numTxns {
			t.Fatalf("trial %d: %d transactions, want %d", trial, r.NumTransactions(), numTxns)
		}
		if got := r.Meta(); got.Name != meta.Name || got.Kind != meta.Kind || got.Note != meta.Note {
			t.Fatalf("trial %d: meta %+v != %+v", trial, got, meta)
		}
		for i, want := range txns {
			got, err := r.Transaction(i)
			if err != nil {
				t.Fatal(err)
			}
			sameGraphBytes(t, want, got)
			// Cached second read returns the same instance.
			again, _ := r.Transaction(i)
			if again != got {
				t.Fatalf("trial %d: transaction %d not cached", trial, i)
			}
		}
		idx := 0
		for _, edges := range sortedLevelEdges(levels) {
			start, end := r.LevelRange(edges)
			if end-start != len(levels[edges]) {
				t.Fatalf("trial %d: level %d has %d records, want %d", trial, edges, end-start, len(levels[edges]))
			}
			for i := range levels[edges] {
				want := &levels[edges][i]
				got, err := r.Pattern(start + i)
				if err != nil {
					t.Fatal(err)
				}
				samePattern(t, want, got)
				// The embedding-skipping decode agrees on everything
				// before the embedding section.
				lite, err := r.PatternLite(start + i)
				if err != nil {
					t.Fatal(err)
				}
				if lite.Code != want.Code || lite.Support != want.Support ||
					!lite.TIDs.Equal(want.TIDs) ||
					lite.Overflowed != want.Overflowed || lite.Offsets != nil {
					t.Fatalf("trial %d: PatternLite diverged: %+v", trial, lite)
				}
				sameGraphBytes(t, want.Graph, lite.Graph)
				info := r.Info(start + i)
				if info.Code != want.Code || info.Support != want.Support ||
					info.Edges != edges || info.Embeddings != want.NumEmbeddings() ||
					info.HasEmbeddings != want.HasEmbeddings() || info.Overflowed != want.Overflowed {
					t.Fatalf("trial %d: index entry %+v does not match pattern", trial, info)
				}
				found := false
				for _, ri := range r.FindByCode(want.Code) {
					if ri == start+i {
						found = true
					}
				}
				if !found {
					t.Fatalf("trial %d: code %q not indexed to record %d", trial, want.Code, start+i)
				}
				idx++
			}
		}
		if idx != r.NumPatterns() {
			t.Fatalf("trial %d: walked %d records, store has %d", trial, idx, r.NumPatterns())
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRejectRemovedSlot: a graph record whose vertex or edge opens
// with slot marker 0 (a removed slot, which no producer writes) fails
// with a corrupt-record error, never a panic.
func TestRejectRemovedSlot(t *testing.T) {
	for _, what := range []string{"vertex", "edge"} {
		path := tmpStore(t)
		if err := os.WriteFile(path, removedSlotStore(t, what), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err == nil {
			_, err = r.Transaction(0)
			r.Close()
		}
		if want := fmt.Sprintf("corrupt graph record (%s 0 has slot marker 0", what); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s marker 0: error %v, want one containing %q", what, err, want)
		}
	}
}

// TestRejectEndpointOverflow: an edge endpoint too large for an int
// fails decode as a corrupt record, never a panic.
func TestRejectEndpointOverflow(t *testing.T) {
	e := &enc{}
	e.str("t")
	e.uvarint(1)
	e.byte(liveSlot)
	e.str("A")
	e.uvarint(1)
	e.byte(liveSlot)
	e.uvarint(1 << 63)
	e.uvarint(0)
	e.str("x")
	d := &dec{buf: e.buf}
	if g := decodeGraph(d); g != nil || d.err == nil || !strings.Contains(d.err.Error(), "beyond 1 vertices") {
		t.Fatalf("decoded %v, error %v; want a corrupt-record error", g, d.err)
	}
}

// removedSlotStore returns the bytes of a store holding one
// transaction, a vertex with a self-loop, whose vertex ("vertex") or
// edge ("edge") slot marker is set to 0.
func removedSlotStore(t *testing.T, what string) []byte {
	g := graph.New("t")
	v := g.AddVertex("slot-vertex")
	g.AddEdge(v, v, "slot-edge")
	path := filepath.Join(t.TempDir(), "slot.tnd")
	writeStore(t, path, Meta{}, []*graph.Graph{g}, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The marker precedes the label's length byte, and for an edge
	// also its two one-byte endpoints.
	at := bytes.Index(data, []byte("slot-"+what)) - 2
	if what == "edge" {
		at -= 2
	}
	if data[at] != liveSlot {
		t.Fatalf("byte %d is %d, not the %s's slot marker", at, data[at], what)
	}
	data[at] = 0
	return data
}

// TestEmptyStore: a store with no transactions and no levels is valid.
func TestEmptyStore(t *testing.T) {
	path := tmpStore(t)
	w, err := Create(path, Meta{Name: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumTransactions() != 0 || r.NumPatterns() != 0 || len(r.Levels()) != 0 {
		t.Fatalf("empty store reports %d txns, %d patterns", r.NumTransactions(), r.NumPatterns())
	}
}

// --- format versioning and corruption ---

func validStorePath(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	txns := []*graph.Graph{randGraph(rng, "t0"), randGraph(rng, "t1")}
	pats := map[int][]pattern.Pattern{1: {randPattern(rng, 1, txns)}}
	path := tmpStore(t)
	writeStore(t, path, Meta{Name: "v"}, txns, pats)
	return path
}

func corrupt(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if off < 0 {
		st, _ := f.Stat()
		off += st.Size()
	}
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestRejectWrongMagic: a non-store file must fail with a clear error
// naming the magic, not a garbage decode.
func TestRejectWrongMagic(t *testing.T) {
	path := validStorePath(t)
	corrupt(t, path, 0, []byte("NOTASTOR"))
	_, err := Open(path)
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want magic error, got %v", err)
	}
}

// TestRejectWrongVersion: an unknown format version must be rejected
// with both versions named.
func TestRejectWrongVersion(t *testing.T) {
	path := validStorePath(t)
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], FormatVersion+7)
	corrupt(t, path, int64(len(magic)), v[:])
	_, err := Open(path)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

// TestRejectTruncated: a file cut off mid-footer must be rejected by
// Open (its tail is not a trailer).
func TestRejectTruncated(t *testing.T) {
	path := validStorePath(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-trailerSize/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("truncated store opened")
	}
	// A header-only fragment — the staging file of a writer that never
	// reached Close — is rejected by Open.
	w, err := Create(path, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	w.f.Close()
	if _, err := Open(tmpPath(path)); err == nil {
		t.Fatal("header-only fragment opened")
	}
}

// TestRejectIndexCorruption: flipping bytes inside the footer index
// must fail the CRC check.
func TestRejectIndexCorruption(t *testing.T) {
	path := validStorePath(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idxOff := binary.LittleEndian.Uint64(data[len(data)-trailerSize:])
	corrupt(t, path, int64(idxOff), []byte{0xff, 0xff, 0xff})
	_, err = Open(path)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want checksum error, got %v", err)
	}
}

// --- writer validation ---

func TestWriterValidation(t *testing.T) {
	g := graph.New("p")
	a := g.AddVertex("A")
	b := g.AddVertex("B")
	g.AddEdge(a, b, "x")
	txn := randGraph(rand.New(rand.NewSource(3)), "t")

	newW := func() *Writer {
		w, err := Create(tmpStore(t), Meta{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Abort() })
		return w
	}

	w := newW()
	if err := w.WriteLevel(1, nil); err == nil {
		t.Fatal("WriteLevel before WriteTransactions accepted")
	}
	if err := w.WriteTransactions([]*graph.Graph{txn}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTransactions([]*graph.Graph{txn}); err == nil {
		t.Fatal("double WriteTransactions accepted")
	}
	if err := w.WriteLevel(2, []pattern.Pattern{{Graph: g, Code: "c", Support: 1, TIDs: pattern.NewTIDSet(0)}}); err == nil {
		t.Fatal("edge-count mismatch accepted")
	}
	if err := w.WriteLevel(1, []pattern.Pattern{{Graph: g, Code: "c", Support: 1, TIDs: pattern.NewTIDSet(5)}}); err == nil {
		t.Fatal("out-of-range TID accepted")
	}
	if err := w.WriteLevel(1, []pattern.Pattern{{
		Graph: g, Code: "c", Support: 1, TIDs: pattern.NewTIDSet(0),
		Embs: iso.NewEmbeddingList(g), Offsets: make([]int32, 3),
	}}); err == nil {
		t.Fatal("misaligned embedding lists accepted")
	}
	if err := w.WriteLevel(1, []pattern.Pattern{{
		Graph: g, Code: "c", Support: 1, TIDs: pattern.NewTIDSet(0),
		Embs: iso.EmbeddingList{NV: 3, NE: 1, IDs: []int32{0, 1, 2, 0}}, Offsets: []int32{0, 1},
	}}); !errors.Is(err, ErrEmbeddingWidth) {
		t.Fatalf("embedding wider than its pattern: %v, want ErrEmbeddingWidth", err)
	}
	if err := w.WriteLevel(1, []pattern.Pattern{{
		Graph: g, Code: "c", Support: 1, TIDs: pattern.NewTIDSet(0),
		Embs: iso.EmbeddingList{NV: 2, NE: 1, IDs: []int32{0, 1, 0}}, Offsets: []int32{0, 2},
	}}); err == nil {
		t.Fatal("offset column past the list accepted")
	}
	if err := w.WriteLevel(1, []pattern.Pattern{{
		Graph: g, Code: "c", Support: 1, TIDs: pattern.NewTIDSet(0), Overflowed: true,
		Partial: pattern.NewTIDSet(0),
	}}); err == nil {
		t.Fatal("partial TIDs without lists accepted")
	}
	if err := w.WriteLevel(1, []pattern.Pattern{{
		Graph: g, Code: "c", Support: 1, TIDs: pattern.NewTIDSet(0), Overflowed: true,
		Embs: iso.NewEmbeddingList(g), Offsets: make([]int32, 2),
	}}); err == nil {
		t.Fatal("overflowed lists without partial TIDs accepted")
	}
	if err := w.WriteLevel(1, []pattern.Pattern{{Graph: g, Code: "c", Support: 1, TIDs: pattern.NewTIDSet(0)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteLevel(1, nil); err == nil {
		t.Fatal("repeated level accepted")
	}
}

// TestAbortRemovesFile: Abort on a partial write leaves nothing
// behind, neither the store nor its staging file.
func TestAbortRemovesFile(t *testing.T) {
	path := tmpStore(t)
	w, err := Create(path, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTransactions(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, tmpPath(path)} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("aborted store still exists: %v", err)
		}
	}
}
