package graph

import (
	"strings"
	"testing"
)

func build(t *testing.T) (*Graph, []VertexID, []EdgeID) {
	t.Helper()
	g := New("t")
	v0 := g.AddVertex("a")
	v1 := g.AddVertex("b")
	v2 := g.AddVertex("c")
	e0 := g.AddEdge(v0, v1, "x")
	e1 := g.AddEdge(v1, v2, "y")
	e2 := g.AddEdge(v0, v1, "x") // parallel edge (multigraph)
	return g, []VertexID{v0, v1, v2}, []EdgeID{e0, e1, e2}
}

func TestAddAndQuery(t *testing.T) {
	g, vs, es := build(t)
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.Vertex(vs[0]).Label != "a" {
		t.Error("vertex label wrong")
	}
	if g.Edge(es[1]).Label != "y" {
		t.Error("edge label wrong")
	}
	if got := g.OutDegree(vs[0]); got != 2 {
		t.Errorf("out-degree v0 = %d, want 2 (parallel edges)", got)
	}
	if got := g.InDegree(vs[1]); got != 2 {
		t.Errorf("in-degree v1 = %d, want 2", got)
	}
	if got := g.Degree(vs[1]); got != 3 {
		t.Errorf("degree v1 = %d, want 3", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, vs, _ := build(t)
	c := g.Clone()
	c.AddEdge(vs[2], c.AddVertex("d"), "z")
	if g.NumVertices() != 3 || g.NumEdges() != 3 || g.OutDegree(vs[2]) != 0 {
		t.Error("clone mutation affected original")
	}
	if c.NumVertices() != 4 || c.NumEdges() != 4 || c.OutDegree(vs[2]) != 1 {
		t.Error("clone addition failed")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, vs, _ := build(t)
	sub := g.InducedSubgraph("sub", []VertexID{vs[0], vs[1]})
	if sub.NumVertices() != 2 {
		t.Fatalf("vertices = %d", sub.NumVertices())
	}
	if sub.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 (both parallel x edges)", sub.NumEdges())
	}
}

func TestLabels(t *testing.T) {
	g, _, _ := build(t)
	if got := g.VertexLabels(); len(got) != 3 || got[0] != "a" {
		t.Errorf("vertex labels = %v", got)
	}
	if got := g.EdgeLabels(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("edge labels = %v", got)
	}
}

func TestNeighbors(t *testing.T) {
	g, vs, _ := build(t)
	n := g.Neighbors(vs[1])
	if len(n) != 2 {
		t.Errorf("neighbors of v1 = %v, want v0 and v2", n)
	}
}

func TestComponents(t *testing.T) {
	g := New("c")
	a := g.AddVertex("*")
	b := g.AddVertex("*")
	g.AddEdge(a, b, "e")
	c := g.AddVertex("*")
	d := g.AddVertex("*")
	g.AddEdge(c, d, "e")
	g.AddVertex("*") // isolated

	comps := g.WeaklyConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 2 {
		t.Errorf("largest component size = %d", len(comps[0]))
	}
	split := g.SplitComponents()
	if len(split) != 3 {
		t.Fatalf("split = %d graphs", len(split))
	}
	sub := g.InducedSubgraph("s", comps[0])
	if len(sub.WeaklyConnectedComponents()) != 1 {
		t.Error("single component should be connected")
	}
}

func TestDegreesStats(t *testing.T) {
	g, _, _ := build(t)
	d := g.Degrees()
	if d.MaxOut != 2 || d.MinOut != 1 {
		t.Errorf("out stats = %+v", d)
	}
	if d.MaxIn != 2 || d.MinIn != 1 {
		t.Errorf("in stats = %+v", d)
	}
}

func TestSummarizeTransactions(t *testing.T) {
	g1 := New("t1")
	a := g1.AddVertex("p")
	b := g1.AddVertex("q")
	g1.AddEdge(a, b, "l1")
	g2 := New("t2")
	c := g2.AddVertex("p")
	d := g2.AddVertex("r")
	for i := 0; i < 15; i++ {
		g2.AddEdge(c, d, "l2")
	}
	st := SummarizeTransactions([]*Graph{g1, g2})
	if st.NumTransactions != 2 {
		t.Errorf("txns = %d", st.NumTransactions)
	}
	if st.DistinctEdgeLabels != 2 || st.DistinctVertexLabel != 3 {
		t.Errorf("labels = %d/%d", st.DistinctEdgeLabels, st.DistinctVertexLabel)
	}
	if st.MaxEdges != 15 || st.AvgEdges != 8 {
		t.Errorf("edges max/avg = %d/%.1f", st.MaxEdges, st.AvgEdges)
	}
	// Histogram: g1 (1 edge) in [1,10), g2 (15) in [10,100).
	if st.SizeHistogram[0].Count != 1 || st.SizeHistogram[1].Count != 1 {
		t.Errorf("histogram = %+v", st.SizeHistogram)
	}
	if !strings.Contains(st.String(), "Number of Input Transactions: 2") {
		t.Error("Table 2 rendering wrong")
	}
}

func TestDumpAndString(t *testing.T) {
	g, _, _ := build(t)
	if !strings.Contains(g.String(), "V=3") {
		t.Error("String() format")
	}
	dump := g.Dump()
	if !strings.Contains(dump, "-[x]->") || !strings.Contains(dump, "(a)") {
		t.Errorf("Dump() format:\n%s", dump)
	}
}

func TestPanicsOnBadAccess(t *testing.T) {
	g := New("p")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on missing vertex")
		}
	}()
	g.Vertex(0)
}
