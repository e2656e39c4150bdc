package pattern

import (
	"fmt"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
)

// pathFixture returns txns hub transactions, each a hub v0 with fan
// e-edges to v1 leaves and one f-edge from every leaf to its own v2
// vertex; the complete v0-e->v1 parent (txns*fan embeddings); and its
// child v0-e->v1-f->v2 with the new edge, which has exactly one
// extension per parent embedding.
func pathFixture(txns, fan int) ([]*graph.Graph, *Pattern, *graph.Graph, graph.EdgeID) {
	pg := graph.New("p")
	pg.AddEdge(pg.AddVertex("v0"), pg.AddVertex("v1"), "e")
	parent := &Pattern{Graph: pg, Code: iso.Code(pg), Embs: iso.NewEmbeddingList(pg), Offsets: []int32{0}}
	gs := make([]*graph.Graph, txns)
	for tid := range gs {
		g := graph.New(fmt.Sprintf("t%d", tid))
		hub := g.AddVertex("v0")
		for range fan {
			leaf := g.AddVertex("v1")
			e := g.AddEdge(hub, leaf, "e")
			g.AddEdge(leaf, g.AddVertex("v2"), "f")
			parent.Embs.IDs = append(parent.Embs.IDs, int32(hub), int32(leaf), int32(e))
		}
		g.Index() // built once, outside any measured call
		gs[tid] = g
		parent.TIDs.Add(tid)
		parent.Offsets = append(parent.Offsets, int32(parent.Embs.Len()))
	}
	parent.Support = parent.TIDs.Len()
	child := pg.Clone()
	ne := child.AddEdge(1, child.AddVertex("v2"), "f")
	return gs, parent, child, ne
}

// TestCountExtensionAllocs: extending a complete parent allocates per
// list growth, not per embedding — fewer than one allocation per 100
// embeddings extended (one per embedding or more when each embedding
// was its own pair of slices).
func TestCountExtensionAllocs(t *testing.T) {
	txns, parent, child, ne := pathFixture(100, 100)
	var got *Pattern
	allocs := testing.AllocsPerRun(5, func() {
		got, _ = CountExtension(txns, parent, child, "c", ne, parent.TIDs, CountOptions{})
	})
	n := parent.NumEmbeddings()
	if !got.HasEmbeddings() || got.NumEmbeddings() != n {
		t.Fatalf("child holds %d complete embeddings, want %d", got.NumEmbeddings(), n)
	}
	if allocs >= float64(n)/100 {
		t.Fatalf("extending %d embeddings allocated %.0f times, want < %d", n, allocs, n/100)
	}
}

var benchPattern *Pattern

// BenchmarkCountExtension extends a complete 10,000-embedding parent
// across one new edge.
func BenchmarkCountExtension(b *testing.B) {
	txns, parent, child, ne := pathFixture(100, 100)
	b.ReportAllocs()
	for b.Loop() {
		benchPattern, _ = CountExtension(txns, parent, child, "c", ne, parent.TIDs, CountOptions{})
	}
}
