package experiments

import (
	"path/filepath"
	"slices"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/store"
)

// TestStoredEmbeddingsValid mines the shapes of two fixture stores —
// tndfsg -scale 0.03 (Figure 2, breadth-first) and tndtemporal -scale
// 0.04 -days 150 — writes them, and checks every stored row, complete
// or seed, against its transaction: an injective, label-preserving
// vertex map, with each pattern edge mapped to a distinct target edge
// of the same label between the mapped endpoints. Every complete list
// must hold exactly the matcher's enumeration of the pattern in that
// transaction. The orders differ: level 1 lists follow edge IDs and
// extended lists their parent's rows, not the matcher's search order.
func TestStoredEmbeddingsValid(t *testing.T) {
	for _, fx := range []struct {
		name  string
		scale float64
		mine  func(Params)
	}{
		{"fsg-bf", 0.03, func(p Params) { RunFigure2(p) }},
		{"temporal-days150", 0.04, func(p Params) { p.Days = 150; RunFigure4(p) }},
	} {
		t.Run(fx.name, func(t *testing.T) {
			p := NewParams(fx.scale)
			p.StorePath = filepath.Join(t.TempDir(), "fx.tnd")
			fx.mine(p)
			r, err := store.Open(p.StorePath)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			rows, complete := 0, 0
			for i := range r.NumPatterns() {
				pat, err := r.Pattern(i)
				if err != nil {
					t.Fatal(err)
				}
				if pat.Offsets == nil {
					continue
				}
				m := iso.NewMatcher(pat.Graph)
				for j, tid := range pat.TIDs.All() {
					txn, err := r.Transaction(tid)
					if err != nil {
						t.Fatal(err)
					}
					list := pat.EmbsAt(j)
					for k := range list.Len() {
						if msg := invalidEmbedding(pat.Graph, txn, list.At(k)); msg != "" {
							t.Fatalf("record %d %q tid %d row %d: %s", i, pat.Code, tid, k, msg)
						}
					}
					rows += list.Len()
					if !pat.CompleteAt(tid) {
						continue
					}
					want := iso.NewEmbeddingList(pat.Graph)
					m.Embeddings(txn, iso.Options{}, &want)
					if got, want := sortedRows(list), sortedRows(want); !slices.EqualFunc(got, want, slices.Equal) {
						t.Fatalf("record %d %q tid %d: complete list %v, matcher %v", i, pat.Code, tid, got, want)
					}
					complete++
				}
			}
			if rows == 0 || complete == 0 {
				t.Fatalf("checked %d rows and %d complete lists; the fixture stores nothing", rows, complete)
			}
		})
	}
}

// sortedRows returns l's rows in lexicographic order.
func sortedRows(l iso.EmbeddingList) [][]int32 {
	rows := make([][]int32, l.Len())
	for i := range rows {
		rows[i] = l.IDs[i*l.Stride() : (i+1)*l.Stride()]
	}
	slices.SortFunc(rows, slices.Compare)
	return rows
}

// invalidEmbedding describes what makes emb not an embedding of p in
// txn, or returns "".
func invalidEmbedding(p, txn *graph.Graph, emb iso.DenseEmbedding) string {
	if len(emb.Verts) != p.NumVertices() || len(emb.Edges) != p.NumEdges() {
		return "row width differs from the pattern's"
	}
	seenV := map[int32]bool{}
	for pv, tv := range emb.Verts {
		if !txn.HasVertex(graph.VertexID(tv)) || seenV[tv] {
			return "vertex map is not injective into the transaction"
		}
		seenV[tv] = true
		if p.Vertex(graph.VertexID(pv)).Label != txn.Vertex(graph.VertexID(tv)).Label {
			return "vertex label differs"
		}
	}
	seenE := map[int32]bool{}
	for pe, te := range emb.Edges {
		if !txn.HasEdge(graph.EdgeID(te)) || seenE[te] {
			return "edge map is not injective into the transaction"
		}
		seenE[te] = true
		ped, ted := p.Edge(graph.EdgeID(pe)), txn.Edge(graph.EdgeID(te))
		if ped.Label != ted.Label || graph.VertexID(emb.Verts[ped.From]) != ted.From || graph.VertexID(emb.Verts[ped.To]) != ted.To {
			return "edge label or endpoints differ"
		}
	}
	return ""
}
