package iso

import (
	"fmt"
	"math/rand"
	"testing"

	"tnkd/internal/graph"
)

// buildGraph constructs a graph from vertex labels and edge triples.
func buildGraph(t testing.TB, vlabels []string, edges [][3]interface{}) *graph.Graph {
	t.Helper()
	g := graph.New("t")
	ids := make([]graph.VertexID, len(vlabels))
	for i, l := range vlabels {
		ids[i] = g.AddVertex(l)
	}
	for _, e := range edges {
		g.AddEdge(ids[e[0].(int)], ids[e[1].(int)], e[2].(string))
	}
	return g
}

func TestContainsSingleEdge(t *testing.T) {
	target := buildGraph(t, []string{"*", "*", "*"}, [][3]interface{}{
		{0, 1, "a"}, {1, 2, "b"},
	})
	pat := buildGraph(t, []string{"*", "*"}, [][3]interface{}{{0, 1, "a"}})
	if !Contains(target, pat) {
		t.Fatal("pattern a-edge should be contained")
	}
	patC := buildGraph(t, []string{"*", "*"}, [][3]interface{}{{0, 1, "c"}})
	if Contains(target, patC) {
		t.Fatal("pattern c-edge should not be contained")
	}
}

func TestContainsRespectsDirection(t *testing.T) {
	target := buildGraph(t, []string{"*", "*"}, [][3]interface{}{{0, 1, "a"}})
	pat := buildGraph(t, []string{"*", "*"}, [][3]interface{}{{1, 0, "a"}})
	// Pattern is 1->0 which is isomorphic to 0->1 under relabeling, so
	// it IS contained (vertex identity doesn't matter, only structure).
	if !Contains(target, pat) {
		t.Fatal("direction-reversed pattern is isomorphic to the target edge")
	}
	// A two-edge path 0->1->2 is not in a single-edge graph.
	path2 := buildGraph(t, []string{"*", "*", "*"}, [][3]interface{}{{0, 1, "a"}, {1, 2, "a"}})
	if Contains(target, path2) {
		t.Fatal("two-edge path cannot embed in one-edge graph")
	}
}

func TestContainsVertexLabels(t *testing.T) {
	target := buildGraph(t, []string{"x", "y"}, [][3]interface{}{{0, 1, "a"}})
	patGood := buildGraph(t, []string{"x", "y"}, [][3]interface{}{{0, 1, "a"}})
	patBad := buildGraph(t, []string{"y", "x"}, [][3]interface{}{{0, 1, "a"}})
	if !Contains(target, patGood) {
		t.Fatal("label-matching pattern should embed")
	}
	if Contains(target, patBad) {
		t.Fatal("pattern y->x should not embed in x->y")
	}
}

func TestEmbeddingCountsHubAndChain(t *testing.T) {
	// Hub with three identical spokes: 3! = 6 embeddings of the
	// 2-spoke hub pattern (ordered choice of 2 of 3 spokes).
	hub := buildGraph(t, []string{"*", "*", "*", "*"}, [][3]interface{}{
		{0, 1, "a"}, {0, 2, "a"}, {0, 3, "a"},
	})
	pat := buildGraph(t, []string{"*", "*", "*"}, [][3]interface{}{
		{0, 1, "a"}, {0, 2, "a"},
	})
	if embs, _ := Embeddings(hub, pat, Options{}); embs.Len() != 6 {
		t.Fatalf("hub embeddings = %d, want 6", embs.Len())
	}
	// Chain x->y->z embeds exactly once in itself... times
	// automorphisms of the pattern (none here).
	chain := buildGraph(t, []string{"*", "*", "*"}, [][3]interface{}{
		{0, 1, "a"}, {1, 2, "b"},
	})
	if embs, _ := Embeddings(chain, chain, Options{}); embs.Len() != 1 {
		t.Fatalf("chain self-embeddings = %d, want 1", embs.Len())
	}
}

func TestMultigraphEdgeInjective(t *testing.T) {
	// Target has two parallel a-edges; pattern needs two distinct
	// a-edges between the same pair.
	target := buildGraph(t, []string{"*", "*"}, [][3]interface{}{
		{0, 1, "a"}, {0, 1, "a"},
	})
	pat := buildGraph(t, []string{"*", "*"}, [][3]interface{}{
		{0, 1, "a"}, {0, 1, "a"},
	})
	if !Contains(target, pat) {
		t.Fatal("double edge should embed in double edge")
	}
	single := buildGraph(t, []string{"*", "*"}, [][3]interface{}{{0, 1, "a"}})
	if Contains(single, pat) {
		t.Fatal("double edge must not embed in single edge (edge-injectivity)")
	}
}

func TestSelfLoop(t *testing.T) {
	target := buildGraph(t, []string{"*"}, [][3]interface{}{{0, 0, "a"}})
	pat := buildGraph(t, []string{"*"}, [][3]interface{}{{0, 0, "a"}})
	if !Contains(target, pat) {
		t.Fatal("self-loop should embed in self-loop")
	}
	if !Isomorphic(target, pat) {
		t.Fatal("identical self-loops should be isomorphic")
	}
}

func TestIsomorphicRelabeledTriangle(t *testing.T) {
	a := buildGraph(t, []string{"*", "*", "*"}, [][3]interface{}{
		{0, 1, "x"}, {1, 2, "y"}, {2, 0, "z"},
	})
	b := buildGraph(t, []string{"*", "*", "*"}, [][3]interface{}{
		{2, 0, "x"}, {0, 1, "y"}, {1, 2, "z"},
	})
	if !Isomorphic(a, b) {
		t.Fatal("rotated triangles should be isomorphic")
	}
	c := buildGraph(t, []string{"*", "*", "*"}, [][3]interface{}{
		{0, 1, "x"}, {1, 2, "y"}, {0, 2, "z"}, // z reversed
	})
	if Isomorphic(a, c) {
		t.Fatal("triangle with reversed edge should not be isomorphic")
	}
}

func TestCodeIsomorphismInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(5)
		g := graph.New("g")
		for i := 0; i < n; i++ {
			g.AddVertex("*")
		}
		labels := []string{"a", "b", "c"}
		m := n + rng.Intn(2*n)
		for i := 0; i < m; i++ {
			g.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), labels[rng.Intn(3)])
		}
		// Random relabeled copy.
		perm := rng.Perm(n)
		h := graph.New("h")
		for i := 0; i < n; i++ {
			h.AddVertex("*")
		}
		type edge struct {
			f, t int
			l    string
		}
		var edges []edge
		for e := range graph.EdgeID(g.NumEdges()) {
			ed := g.Edge(e)
			edges = append(edges, edge{perm[ed.From], perm[ed.To], ed.Label})
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, e := range edges {
			h.AddEdge(graph.VertexID(e.f), graph.VertexID(e.t), e.l)
		}
		cg, ch := Code(g), Code(h)
		if cg != ch {
			t.Fatalf("trial %d: codes differ for isomorphic graphs:\n%s\n%s\n%s", trial, cg, ch, g.Dump())
		}
		if !Isomorphic(g, h) {
			t.Fatalf("trial %d: relabeled copy not isomorphic", trial)
		}
	}
}

func TestCodeSeparatesNonIsomorphic(t *testing.T) {
	path := buildGraph(t, []string{"*", "*", "*"}, [][3]interface{}{
		{0, 1, "a"}, {1, 2, "a"},
	})
	fork := buildGraph(t, []string{"*", "*", "*"}, [][3]interface{}{
		{0, 1, "a"}, {0, 2, "a"},
	})
	if Code(path) == Code(fork) {
		t.Fatal("path and fork must have different codes")
	}
}

func TestCountNonOverlapping(t *testing.T) {
	// Two disjoint a-edges plus one b-edge: the a-edge pattern has
	// exactly two non-overlapping instances.
	g := buildGraph(t, []string{"*", "*", "*", "*", "*", "*"}, [][3]interface{}{
		{0, 1, "a"}, {2, 3, "a"}, {4, 5, "b"},
	})
	pat := buildGraph(t, []string{"*", "*"}, [][3]interface{}{{0, 1, "a"}})
	embs, _ := Embeddings(g, pat, Options{})
	if got := GreedyNonOverlap(embs); got != 2 {
		t.Fatalf("non-overlapping count = %d, want 2", got)
	}
}

func TestFindEmbeddingsLimitAndBudget(t *testing.T) {
	g := graph.New("g")
	for i := 0; i < 30; i++ {
		g.AddVertex("*")
	}
	for i := 0; i < 29; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID(i+1), "a")
	}
	pat := buildGraph(t, []string{"*", "*"}, [][3]interface{}{{0, 1, "a"}})
	if embs, _ := Embeddings(g, pat, Options{Limit: 5}); embs.Len() != 5 {
		t.Fatalf("limited embeddings = %d, want 5", embs.Len())
	}
	found, completed := ContainsBudget(g, pat, 1)
	if !found && completed {
		t.Fatal("budget=1 search reported completed without finding")
	}
}

func TestEmbeddingEdgeMapIsValid(t *testing.T) {
	target := buildGraph(t, []string{"*", "*", "*"}, [][3]interface{}{
		{0, 1, "a"}, {1, 2, "b"}, {0, 2, "c"},
	})
	pat := buildGraph(t, []string{"*", "*", "*"}, [][3]interface{}{
		{0, 1, "a"}, {1, 2, "b"},
	})
	embs, _ := Embeddings(target, pat, Options{})
	if embs.Len() != 1 {
		t.Fatalf("embeddings = %d, want 1", embs.Len())
	}
	emb := embs.At(0)
	for pe, te := range emb.Edges {
		ped, ted := pat.Edge(graph.EdgeID(pe)), target.Edge(graph.EdgeID(te))
		if ped.Label != ted.Label {
			t.Fatalf("edge label mismatch: %s vs %s", ped.Label, ted.Label)
		}
		if graph.VertexID(emb.Verts[ped.From]) != ted.From || graph.VertexID(emb.Verts[ped.To]) != ted.To {
			t.Fatal("edge endpoints inconsistent with vertex mapping")
		}
	}
}

func BenchmarkContains100Vertices(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	g := graph.New("g")
	for i := 0; i < 100; i++ {
		g.AddVertex("*")
	}
	for i := 0; i < 550; i++ {
		g.AddEdge(graph.VertexID(rng.Intn(100)), graph.VertexID(rng.Intn(100)), fmt.Sprint(rng.Intn(7)))
	}
	pat := graph.New("p")
	p0 := pat.AddVertex("*")
	p1 := pat.AddVertex("*")
	p2 := pat.AddVertex("*")
	pat.AddEdge(p0, p1, "1")
	pat.AddEdge(p1, p2, "2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Contains(g, pat)
	}
}

// TestNewMatcherAllocs bounds what compiling a fixed 5-edge pattern
// allocates: the plan itself, with no slice of the pattern's IDs.
func TestNewMatcherAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	p := buildGraph(t, []string{"a", "b", "a", "c"}, [][3]interface{}{
		{0, 1, "x"}, {1, 2, "y"}, {2, 0, "x"}, {2, 3, "z"}, {3, 1, "y"},
	})
	const want = 28
	if allocs := testing.AllocsPerRun(20, func() { NewMatcher(p) }); allocs > want {
		t.Fatalf("NewMatcher allocated %.0f times, want <= %d", allocs, want)
	}
}
