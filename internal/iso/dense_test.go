package iso

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tnkd/internal/graph"
)

// renderDense serialises a dense embedding for set comparison.
func renderDense(e DenseEmbedding) string {
	return fmt.Sprintf("%v|%v", e.Verts, e.Edges)
}

func sortedRenders(embs EmbeddingList) []string {
	out := make([]string, 0, embs.Len())
	for i := range embs.Len() {
		out = append(out, renderDense(embs.At(i)))
	}
	sort.Strings(out)
	return out
}

// randGraph builds a random dense-ID labeled digraph.
func denseRandGraph(rng *rand.Rand, nv, ne, vLabels, eLabels int) *graph.Graph {
	g := graph.New("t")
	vs := make([]graph.VertexID, nv)
	for i := range vs {
		vs[i] = g.AddVertex(fmt.Sprintf("v%d", rng.Intn(vLabels)))
	}
	for i := 0; i < ne; i++ {
		a, b := vs[rng.Intn(nv)], vs[rng.Intn(nv)]
		if a == b {
			continue
		}
		g.AddEdge(a, b, fmt.Sprintf("e%d", rng.Intn(eLabels)))
	}
	return g
}

// TestExtendEmbeddingComplete is the incremental-counting invariant:
// for a child pattern built from its parent by one ID-preserving edge
// addition, extending every parent embedding across the new edge
// yields exactly the child's embedding set, each embedding once.
func TestExtendEmbeddingComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(20050405))
	trials := 0
	for trials < 60 {
		target := denseRandGraph(rng, 5+rng.Intn(5), 8+rng.Intn(8), 2, 2)
		parent := denseRandGraph(rng, 2+rng.Intn(3), 1+rng.Intn(3), 2, 2)
		if parent.NumEdges() == 0 {
			continue
		}
		// Build a child by one random extension: new edge between
		// existing vertices, or a new vertex attached by one edge.
		child := parent.Clone()
		nv := child.NumVertices()
		u := graph.VertexID(rng.Intn(nv))
		var newEdge graph.EdgeID
		switch rng.Intn(3) {
		case 0:
			v := graph.VertexID(rng.Intn(nv))
			label := fmt.Sprintf("e%d", rng.Intn(2))
			// The extension contract forbids duplicate (from, to,
			// label) signatures, as in FSG candidate generation.
			if v == u || hasEdge(child, u, v, label) {
				continue
			}
			newEdge = child.AddEdge(u, v, label)
		case 1:
			w := child.AddVertex(fmt.Sprintf("v%d", rng.Intn(2)))
			newEdge = child.AddEdge(u, w, fmt.Sprintf("e%d", rng.Intn(2)))
		default:
			w := child.AddVertex(fmt.Sprintf("v%d", rng.Intn(2)))
			newEdge = child.AddEdge(w, u, fmt.Sprintf("e%d", rng.Intn(2)))
		}
		trials++

		parentEmbs, _ := Embeddings(target, parent, Options{})
		extended := NewEmbeddingList(child)
		x := NewExtender(target, child, newEdge, parent.NumVertices())
		for i := range parentEmbs.Len() {
			x.Extend(parentEmbs.At(i), 0, &extended)
		}
		direct, _ := Embeddings(target, child, Options{})
		got, want := sortedRenders(extended), sortedRenders(direct)
		if len(got) != len(want) {
			t.Fatalf("trial %d: extension found %d embeddings, full search %d\nchild:\n%s",
				trials, len(got), len(want), child.Dump())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: embedding sets differ at %d:\n%s\nvs\n%s", trials, i, got[i], want[i])
			}
		}
	}
}

func hasEdge(g *graph.Graph, from, to graph.VertexID, label string) bool {
	for _, e := range g.OutEdges(from) {
		ed := g.Edge(e)
		if ed.To == to && ed.Label == label {
			return true
		}
	}
	return false
}

// TestExtendEmbeddingLimit checks the existence-check fast path stops
// at the requested number of extensions.
func TestExtendEmbeddingLimit(t *testing.T) {
	target := graph.New("t")
	hub := target.AddVertex("h")
	for i := 0; i < 5; i++ {
		s := target.AddVertex("s")
		target.AddEdge(hub, s, "e")
	}
	parent := graph.New("p")
	parent.AddVertex("h")
	child := parent.Clone()
	w := child.AddVertex("s")
	ne := child.AddEdge(0, w, "e")
	emb := DenseEmbedding{Verts: []int32{int32(hub)}}
	x := NewExtender(target, child, ne, parent.NumVertices())
	got := NewEmbeddingList(child)
	if x.Extend(emb, 1, &got); got.Len() != 1 {
		t.Fatalf("limit 1: got %d extensions", got.Len())
	}
	got.Truncate(0)
	if x.Extend(emb, 0, &got); got.Len() != 5 {
		t.Fatalf("unlimited: got %d extensions, want 5", got.Len())
	}
}

// TestReanchorDenseMatchesReanchor re-anchors an instance found
// through a differently ordered construction onto the pattern's own
// vertex IDs.
func TestReanchorDenseMatchesReanchor(t *testing.T) {
	target := graph.New("t")
	a := target.AddVertex("a")
	b := target.AddVertex("b")
	c := target.AddVertex("c")
	target.AddEdge(a, b, "x")
	target.AddEdge(b, c, "y")

	// Pattern constructed in a different vertex order than the
	// instance's natural one.
	pat := graph.New("p")
	pc := pat.AddVertex("c")
	pb := pat.AddVertex("b")
	pa := pat.AddVertex("a")
	pat.AddEdge(pb, pc, "y")
	pat.AddEdge(pa, pb, "x")

	emb := DenseEmbedding{
		Verts: []int32{int32(a), int32(b), int32(c)},
		Edges: []int32{0, 1},
	}
	re := NewReanchorer(pat, target, 0)
	got, ok := re.Reanchor(emb)
	if !ok {
		t.Fatal("Reanchor failed")
	}
	if got.Verts[pa] != int32(a) || got.Verts[pb] != int32(b) || got.Verts[pc] != int32(c) {
		t.Fatalf("Reanchor mapped %v", got.Verts)
	}
}
