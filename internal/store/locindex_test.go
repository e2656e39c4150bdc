package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/pattern"
)

// locatablePattern builds a random pattern whose embeddings reference
// only vertices that exist in their transactions — the well-formed
// mining output shape the location index is defined over.
func locatablePattern(rng *rand.Rand, edges int, txns []*graph.Graph) pattern.Pattern {
	g := graph.New("pat")
	nv := 1 + rng.Intn(3)
	for i := 0; i < nv; i++ {
		g.AddVertex(fmt.Sprintf("L%d", rng.Intn(3)))
	}
	for i := 0; i < edges; i++ {
		g.AddEdge(graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv)), "e")
	}
	var tids []int
	for t := range txns {
		if rng.Intn(2) == 0 {
			tids = append(tids, t)
		}
	}
	if len(tids) == 0 {
		tids = []int{rng.Intn(len(txns))}
	}
	p := pattern.Pattern{Graph: g, Code: fmt.Sprintf("c%d:%x", edges, rng.Uint64()),
		Support: len(tids), TIDs: pattern.TIDSetFromSlice(tids)}
	if rng.Intn(4) == 0 {
		// Some records store no lists: they land in the index's
		// no-embeddings count, not under any label.
		if rng.Intn(2) == 0 {
			p.Overflowed = true
		}
		return p
	}
	p.Embs, p.Offsets = iso.NewEmbeddingList(g), []int32{0}
	for _, tid := range tids {
		n := txns[tid].NumVertices()
		for j := 0; j < rng.Intn(3)+1; j++ {
			for k := 0; k < nv; k++ {
				p.Embs.IDs = append(p.Embs.IDs, int32(rng.Intn(n)))
			}
			for k := 0; k < edges; k++ {
				p.Embs.IDs = append(p.Embs.IDs, int32(rng.Intn(8)))
			}
		}
		p.Offsets = append(p.Offsets, int32(p.Embs.Len()))
	}
	return p
}

// TestLocationIndexMatchesLazyInversion: over random well-formed
// stores, the persisted location index must equal the inversion a
// reader computes record by record from the decoded embeddings.
func TestLocationIndexMatchesLazyInversion(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		numTxns := 2 + rng.Intn(4)
		txns := make([]*graph.Graph, numTxns)
		for i := range txns {
			txns[i] = randGraph(rng, fmt.Sprintf("t%d", i))
			if txns[i].NumVertices() == 0 {
				txns[i].AddVertex("L0")
			}
		}
		levels := map[int][]pattern.Pattern{}
		for edges := 1; edges <= 1+rng.Intn(3); edges++ {
			n := 1 + rng.Intn(4)
			for i := 0; i < n; i++ {
				levels[edges] = append(levels[edges], locatablePattern(rng, edges, txns))
			}
		}

		path := filepath.Join(t.TempDir(), "loc.tnd")
		writeStore(t, path, Meta{Name: "loc", Kind: "fsg", MinSupport: 1}, txns, levels)
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		byLabel, noEmb, ok := r.LocationIndex()
		if !ok {
			t.Fatalf("trial %d: store has no location index", trial)
		}

		// Inversion from the decoded records and transactions.
		wantByLabel := map[string][]LocationHit{}
		wantNoEmb := 0
		for i := 0; i < r.NumPatterns(); i++ {
			p, err := r.Pattern(i)
			if err != nil {
				t.Fatal(err)
			}
			perLabel, err := invertEmbeddings(p, i, r.Transaction)
			if err != nil {
				t.Fatal(err)
			}
			if perLabel == nil {
				wantNoEmb++
				continue
			}
			for label, h := range perLabel {
				wantByLabel[label] = append(wantByLabel[label], *h)
			}
		}
		if noEmb != wantNoEmb {
			t.Fatalf("trial %d: persisted noEmb=%d, inversion %d", trial, noEmb, wantNoEmb)
		}
		if len(byLabel) != len(wantByLabel) {
			t.Fatalf("trial %d: persisted %d labels, inversion %d", trial, len(byLabel), len(wantByLabel))
		}
		for label, want := range wantByLabel {
			got := byLabel[label]
			if len(got) != len(want) {
				t.Fatalf("trial %d label %q: %d hits, want %d", trial, label, len(got), len(want))
			}
			for i := range want {
				if got[i].Record != want[i].Record || got[i].Occurrences != want[i].Occurrences ||
					!got[i].TIDs.Equal(want[i].TIDs) {
					t.Fatalf("trial %d label %q hit %d: persisted %+v (tids %v), inverted %+v (tids %v)",
						trial, label, i, got[i], got[i].TIDs.Slice(), want[i], want[i].TIDs.Slice())
				}
			}
		}
	}
}

// TestWriteLevelRejectsDanglingEmbedding: a record whose embeddings
// reference a vertex missing from its transaction cannot be located,
// so WriteLevel refuses it with an error naming the pattern, the
// vertex and the TID.
func TestWriteLevelRejectsDanglingEmbedding(t *testing.T) {
	txns := []*graph.Graph{graph.New("t0"), graph.New("t1")}
	txns[0].AddVertex("A")
	txns[1].AddVertex("A")
	g := graph.New("pat")
	v := g.AddVertex("A")
	g.AddEdge(v, v, "e")
	p := pattern.Pattern{Graph: g, Code: "dangling", Support: 2, TIDs: pattern.NewTIDSet(0, 1),
		Embs: iso.EmbeddingList{NV: 1, NE: 1, IDs: []int32{0, 0, 99, 0}}, Offsets: []int32{0, 1, 2}}

	w, err := Create(tmpStore(t), Meta{Name: "dangling"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort() //nolint:errcheck
	if err := w.WriteTransactions(txns); err != nil {
		t.Fatal(err)
	}
	err = w.WriteLevel(1, []pattern.Pattern{p})
	if err == nil {
		t.Fatal("WriteLevel accepted an embedding of a missing vertex")
	}
	for _, want := range []string{`"dangling"`, "vertex 99", "transaction 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

// TestOpenRequiresLocationIndex: the location index is mandatory, so
// a footer whose section does not open with presence byte 1 fails
// Open as a corrupt index.
func TestOpenRequiresLocationIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	txns := []*graph.Graph{randGraph(rng, "t0"), randGraph(rng, "t1")}
	w, err := Create(tmpStore(t), Meta{Name: "loc"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTransactions(txns); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteLevel(1, []pattern.Pattern{locatablePattern(rng, 1, txns)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	body, index := splitStore(data)
	var section enc
	encodeLocIndex(&section, w.locHits, w.locNoEmb)
	presence := len(index) - len(section.buf)
	if index[presence] != 1 {
		t.Fatalf("presence byte %d, want 1", index[presence])
	}
	for _, b := range []byte{0, 2} {
		bad := append([]byte(nil), index...)
		bad[presence] = b
		path := filepath.Join(t.TempDir(), "bad.tnd")
		if err := os.WriteFile(path, frameStore(body, bad), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("corrupt location index (presence byte %d)", b)) {
			t.Fatalf("presence byte %d: want corrupt-index error, got %v", b, err)
		}
	}
}
