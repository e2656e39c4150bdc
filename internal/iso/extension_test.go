package iso

import (
	"testing"

	"tnkd/internal/graph"
)

// decodeFuzzExtension decodes fuzz bytes into a small dense pattern
// (1..8 vertices, vertex labels a/b/c, edge labels x/y/z, self-loops
// and parallel edges allowed, up to 16 edges), one extension of it,
// and a vertex permutation. Missing bytes read as zero.
//
//	data[0]          vertex count-1 (low 3 bits), permutation rotation (rest)
//	data[1..nv]      vertex labels
//	next 4 bytes     extension from, to (mod nv+1; nv is the new vertex),
//	                 edge label, new-vertex label
//	then per edge    from, to, label
func decodeFuzzExtension(data []byte) (*graph.Graph, Extension, []graph.VertexID) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	vlabels := []string{"a", "b", "c"}
	elabels := []string{"x", "y", "z"}
	nv := at(0)%8 + 1
	g := graph.New("fuzz")
	for i := 0; i < nv; i++ {
		g.AddVertex(vlabels[at(1+i)%3])
	}
	pos := 1 + nv
	ext := Extension{
		From:     graph.VertexID(at(pos) % (nv + 1)),
		To:       graph.VertexID(at(pos+1) % (nv + 1)),
		Label:    elabels[at(pos+2)%3],
		NewLabel: vlabels[at(pos+3)%3],
	}
	if int(ext.From) == nv && int(ext.To) == nv {
		ext.To = 0 // at most one new endpoint
	}
	for pos += 4; pos+2 < len(data) && g.NumEdges() < 16; pos += 3 {
		g.AddEdge(graph.VertexID(at(pos)%nv), graph.VertexID(at(pos+1)%nv), elabels[at(pos+2)%3])
	}
	rot := at(0) >> 3
	perm := make([]graph.VertexID, nv)
	for i := range perm {
		perm[i] = graph.VertexID((nv - 1 - i + rot) % nv)
	}
	return g, ext, perm
}

// permuted returns g with vertex i renumbered perm[i] and its edges
// added in reverse order, plus ext mapped onto it (the new vertex
// keeps ID nv).
func permuted(g *graph.Graph, ext Extension, perm []graph.VertexID) (*graph.Graph, Extension) {
	nv := g.NumVertices()
	inv := make([]graph.VertexID, nv)
	for i, p := range perm {
		inv[p] = graph.VertexID(i)
	}
	h := graph.New("perm")
	for j := 0; j < nv; j++ {
		h.AddVertex(g.Vertex(inv[j]).Label)
	}
	for e := g.NumEdges() - 1; e >= 0; e-- {
		ed := g.Edge(graph.EdgeID(e))
		h.AddEdge(perm[ed.From], perm[ed.To], ed.Label)
	}
	mapV := func(v graph.VertexID) graph.VertexID {
		if int(v) == nv {
			return v
		}
		return perm[v]
	}
	ext.From, ext.To = mapV(ext.From), mapV(ext.To)
	return h, ext
}

// FuzzCodeExtended is the differential target of the overlay coder:
// CodeExtended must equal Code of the materialised extension, its
// masked form must equal CodeMasked of the materialised graph for
// every edge, a vertex-permuted copy must code equal (and be
// Isomorphic), and for the reversed extension code equality must
// agree with Isomorphic. The checked-in corpus under
// testdata/fuzz/FuzzCodeExtended covers a new-vertex tail, self-loops
// and a reversed extension with a symmetric (isomorphic) result.
func FuzzCodeExtended(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ext, perm := decodeFuzzExtension(data)
		mat, newEdge := ext.Apply(g)
		if newEdge != graph.EdgeID(g.NumEdges()) {
			t.Fatalf("Apply put the new edge at %d, want %d", newEdge, g.NumEdges())
		}
		code := CodeExtended(g, ext, -1)
		if want := Code(mat); code != want {
			t.Fatalf("CodeExtended != Code(materialised)\n%s", mat.Dump())
		}
		for e := range graph.EdgeID(mat.NumEdges()) {
			if got, want := CodeExtended(g, ext, e), CodeMasked(mat, e); got != want {
				t.Fatalf("CodeExtended(skip %d) != CodeMasked\n%s", e, mat.Dump())
			}
		}

		h, hext := permuted(g, ext, perm)
		if CodeExtended(h, hext, -1) != code {
			t.Fatalf("vertex-permuted copy codes differently (perm %v)\n%s", perm, mat.Dump())
		}
		hmat, _ := hext.Apply(h)
		if !Isomorphic(mat, hmat) {
			t.Fatalf("vertex-permuted copy not Isomorphic (perm %v)\n%s", perm, mat.Dump())
		}

		rev := ext
		rev.From, rev.To = ext.To, ext.From
		rmat, _ := rev.Apply(g)
		if eq, isoEq := CodeExtended(g, rev, -1) == code, Isomorphic(mat, rmat); eq != isoEq {
			t.Fatalf("reversed extension: equal codes %v, Isomorphic %v\n%s", eq, isoEq, mat.Dump())
		}
	})
}

// TestCodeExtendedShapes pins the overlay coder on the canonical
// benchmark shapes, extended by an edge between existing vertices, a
// new-vertex head and a new-vertex tail.
func TestCodeExtendedShapes(t *testing.T) {
	for name, g := range benchGraphs() {
		for _, ext := range benchExtensions(g) {
			mat, _ := ext.Apply(g)
			if CodeExtended(g, ext, -1) != Code(mat) {
				t.Errorf("%s %+v: CodeExtended != Code(materialised)", name, ext)
			}
			for _, e := range []graph.EdgeID{0, graph.EdgeID(g.NumEdges())} {
				if CodeExtended(g, ext, e) != CodeMasked(mat, e) {
					t.Errorf("%s %+v skip %d: CodeExtended != CodeMasked", name, ext, e)
				}
			}
		}
	}
}

// benchExtensions returns three extensions of g: an edge between its
// first two vertices, a new-vertex head on vertex 0, and a new-vertex
// tail on vertex 1.
func benchExtensions(g *graph.Graph) []Extension {
	newV := graph.VertexID(g.NumVertices())
	return []Extension{
		{From: 1, To: 0, Label: "w"},
		{From: 0, To: newV, Label: "w", NewLabel: "*"},
		{From: newV, To: 1, Label: "e", NewLabel: "A"},
	}
}
