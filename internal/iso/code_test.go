package iso

import (
	"testing"

	"tnkd/internal/graph"
)

func TestCodeEmptyGraph(t *testing.T) {
	a, b := graph.New("e1"), graph.New("e2")
	if Code(a) == "" {
		t.Error("empty graph must still have a code")
	}
	if Code(a) != Code(b) {
		t.Error("empty graphs with different codes")
	}
	one := graph.New("one")
	one.AddVertex("x")
	if Code(one) == Code(a) {
		t.Error("single-vertex graph shares the empty code")
	}
}

func TestCodeSingleVertices(t *testing.T) {
	a := graph.New("a")
	a.AddVertex("p")
	b := graph.New("b")
	b.AddVertex("p")
	c := graph.New("c")
	c.AddVertex("q")
	if Code(a) != Code(b) {
		t.Error("equal single-vertex graphs with different codes")
	}
	if Code(a) == Code(c) {
		t.Error("differently labeled vertices share a code")
	}
	// Isolated vertices count: one p-vertex vs two.
	d := graph.New("d")
	d.AddVertex("p")
	d.AddVertex("p")
	if Code(a) == Code(d) {
		t.Error("different vertex counts share a code")
	}
}

// TestCodeExactOnHugeSymmetry is the shape that previously exceeded
// the permutation budget and degraded to a "~" code: a hub with 60
// identical spokes (60! orderings within one refinement cell). The
// individualisation-refinement labeler must code it exactly — equal
// for isomorphic copies, different from near-misses.
func TestCodeExactOnHugeSymmetry(t *testing.T) {
	mkStar := func(name string, spokes int) *graph.Graph {
		g := graph.New(name)
		h := g.AddVertex("*")
		for i := 0; i < spokes; i++ {
			s := g.AddVertex("*")
			g.AddEdge(h, s, "w")
		}
		return g
	}
	code := Code(mkStar("hub", 60))
	if code != Code(mkStar("hub2", 60)) {
		t.Error("isomorphic 60-spoke hubs with different codes")
	}
	if code == Code(mkStar("hub59", 59)) {
		t.Error("59- and 60-spoke hubs share a code")
	}
	// One reversed spoke breaks the symmetry and the isomorphism.
	rev := mkStar("hubrev", 59)
	s := rev.AddVertex("*")
	rev.AddEdge(s, 0, "w")
	if code == Code(rev) {
		t.Error("hub with one reversed spoke shares the 60-spoke code")
	}
}

// TestCodeSeparatesC12FromTwoC6 is the engineered collision of the
// PR 2 invariant codes: a single directed 12-cycle versus two
// disjoint 6-cycles have identical degree/label refinement views but
// are not isomorphic. Exact codes must separate them.
func TestCodeSeparatesC12FromTwoC6(t *testing.T) {
	cycle := func(g *graph.Graph, n int) {
		vs := make([]graph.VertexID, n)
		for i := range vs {
			vs[i] = g.AddVertex("*")
		}
		for i := range vs {
			g.AddEdge(vs[i], vs[(i+1)%n], "e")
		}
	}
	c12 := graph.New("c12")
	cycle(c12, 12)
	twoC6 := graph.New("2c6")
	cycle(twoC6, 6)
	cycle(twoC6, 6)
	if Code(c12) == Code(twoC6) {
		t.Fatal("C12 and C6+C6 share a canonical code")
	}
	c12b := graph.New("c12b")
	cycle(c12b, 12)
	if Code(c12) != Code(c12b) {
		t.Fatal("isomorphic C12 copies with different codes")
	}
	if Isomorphic(c12, twoC6) {
		t.Fatal("sanity: C12 and C6+C6 reported isomorphic")
	}
}

// TestCodeMaskedEqualsCompactedSubgraph: the masked code of (g, e)
// must equal the code of the materialised subgraph with e deleted and
// orphans dropped — the downward-closure equality fsg relies on.
func TestCodeMaskedEqualsCompactedSubgraph(t *testing.T) {
	g := graph.New("g")
	a := g.AddVertex("A")
	b := g.AddVertex("B")
	c := g.AddVertex("C")
	d := g.AddVertex("B")
	e1 := g.AddEdge(a, b, "x")
	g.AddEdge(b, c, "y")
	g.AddEdge(c, d, "x")
	e4 := g.AddEdge(d, a, "z")

	for _, skip := range []graph.EdgeID{e1, e4} {
		if got, want := CodeMasked(g, skip), Code(withoutEdge(g, skip)); got != want {
			t.Errorf("masked code for skip=%d diverges from compacted subgraph code", skip)
		}
	}

	// Masking the only edge into a leaf drops the orphaned vertex.
	h := graph.New("h")
	x := h.AddVertex("X")
	y := h.AddVertex("Y")
	z := h.AddVertex("Z")
	h.AddEdge(x, y, "e")
	leafEdge := h.AddEdge(y, z, "f")
	if CodeMasked(h, leafEdge) != Code(withoutEdge(h, leafEdge)) {
		t.Error("masked code kept the orphaned leaf vertex")
	}
}

// withoutEdge materialises g minus edge skip with every vertex left
// without an edge dropped, the rest renumbered in ascending ID order:
// the subgraph a masked code must equal the code of.
func withoutEdge(g *graph.Graph, skip graph.EdgeID) *graph.Graph {
	keep := make([]bool, g.NumVertices())
	for e := range graph.EdgeID(g.NumEdges()) {
		if e != skip {
			keep[g.Edge(e).From], keep[g.Edge(e).To] = true, true
		}
	}
	sub := graph.New(g.Name)
	newID := make([]graph.VertexID, g.NumVertices())
	for v := range graph.VertexID(g.NumVertices()) {
		if keep[v] {
			newID[v] = sub.AddVertex(g.Vertex(v).Label)
		}
	}
	for e := range graph.EdgeID(g.NumEdges()) {
		if ed := g.Edge(e); e != skip {
			sub.AddEdge(newID[ed.From], newID[ed.To], ed.Label)
		}
	}
	return sub
}

// TestCodeParallelEdges: multigraph edge multiplicities are part of
// the code.
func TestCodeParallelEdges(t *testing.T) {
	single := graph.New("s")
	a := single.AddVertex("p")
	b := single.AddVertex("q")
	single.AddEdge(a, b, "e")
	double := graph.New("d")
	c := double.AddVertex("p")
	d := double.AddVertex("q")
	double.AddEdge(c, d, "e")
	double.AddEdge(c, d, "e")
	if Code(single) == Code(double) {
		t.Error("parallel-edge multiplicity not in the code")
	}
}

func TestGreedyNonOverlapOrderSensitivity(t *testing.T) {
	embs := EmbeddingList{NV: 2, NE: 1, IDs: []int32{
		0, 1, 0,
		1, 2, 1, // shares vertex 1
		3, 4, 2,
	}}
	if n := GreedyNonOverlap(embs); n != 2 {
		t.Fatalf("disjoint = %d, want 2", n)
	}
}
