package subdue

import (
	"math/rand"
	"strings"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
)

// planted builds a graph with n copies of a 3-edge "bowtie-ish"
// motif (a->b, a->c, b->c) plus random noise edges.
func planted(n, noise int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New("planted")
	for i := 0; i < n; i++ {
		a := g.AddVertex("*")
		b := g.AddVertex("*")
		c := g.AddVertex("*")
		g.AddEdge(a, b, "w1")
		g.AddEdge(a, c, "w1")
		g.AddEdge(b, c, "w2")
	}
	nv := g.NumVertices()
	for i := 0; i < noise; i++ {
		u := graph.VertexID(rng.Intn(nv))
		v := graph.VertexID(rng.Intn(nv))
		if u == v {
			continue
		}
		g.AddEdge(u, v, "w9")
	}
	return g
}

func TestDiscoverFindsPlantedMotif(t *testing.T) {
	g := planted(10, 5, 1)
	res := Discover(g, Options{
		Principle:    Size,
		BeamWidth:    6,
		MaxBest:      5,
		MaxInstances: 100,
		MaxSteps:     100000,
		MinInstances: 2,
	})
	if len(res.Best) == 0 {
		t.Fatal("no substructures found")
	}
	motif := graph.New("motif")
	a := motif.AddVertex("*")
	b := motif.AddVertex("*")
	c := motif.AddVertex("*")
	motif.AddEdge(a, b, "w1")
	motif.AddEdge(a, c, "w1")
	motif.AddEdge(b, c, "w2")
	found := false
	for _, s := range res.Best {
		if iso.Isomorphic(s.Graph, motif) {
			found = true
			if s.Instances < 8 {
				t.Errorf("motif instances = %d, want >= 8", s.Instances)
			}
		}
	}
	if !found {
		for _, s := range res.Best {
			t.Logf("best: %s", s)
		}
		t.Fatal("planted motif not among best substructures")
	}
}

func TestMDLPrefersFrequentSmallPatterns(t *testing.T) {
	// The paper's central MDL finding: with uniform vertex labels,
	// MDL favours very frequent small substructures over larger rare
	// ones. 40 copies of a 1-edge pattern vs 2 copies of a 5-edge
	// chain.
	g := graph.New("g")
	for i := 0; i < 40; i++ {
		u := g.AddVertex("*")
		v := g.AddVertex("*")
		g.AddEdge(u, v, "common")
	}
	for i := 0; i < 2; i++ {
		prev := g.AddVertex("*")
		for j := 0; j < 5; j++ {
			next := g.AddVertex("*")
			g.AddEdge(prev, next, "rare")
			prev = next
		}
	}
	res := Discover(g, Options{
		Principle: MDL, BeamWidth: 4, MaxBest: 3,
		MaxInstances: 200, MaxSteps: 100000, MinInstances: 2,
	})
	if len(res.Best) == 0 {
		t.Fatal("no substructures found")
	}
	top := res.Best[0]
	if top.Graph.NumEdges() > 2 {
		t.Errorf("MDL top pattern has %d edges; expected a small frequent pattern", top.Graph.NumEdges())
	}
	if top.Instances < 20 {
		t.Errorf("MDL top pattern instances = %d; expected the frequent one", top.Instances)
	}
}

func TestSizePrefersLargerPatterns(t *testing.T) {
	// Size principle on the same graph should rank the long chain
	// higher relative to MDL (the paper's qualitative contrast).
	g := graph.New("g")
	for i := 0; i < 12; i++ {
		u := g.AddVertex("*")
		v := g.AddVertex("*")
		g.AddEdge(u, v, "common")
	}
	for i := 0; i < 3; i++ {
		prev := g.AddVertex("*")
		for j := 0; j < 6; j++ {
			next := g.AddVertex("*")
			g.AddEdge(prev, next, "rare")
			prev = next
		}
	}
	res := Discover(g, Options{
		Principle: Size, BeamWidth: 8, MaxBest: 5,
		MaxInstances: 200, MaxSteps: 200000, MinInstances: 2,
	})
	if len(res.Best) == 0 {
		t.Fatal("no substructures found")
	}
	maxEdges := 0
	for _, s := range res.Best {
		if s.Graph.NumEdges() > maxEdges {
			maxEdges = s.Graph.NumEdges()
		}
	}
	if maxEdges < 3 {
		t.Errorf("Size principle best patterns max edges = %d, want >= 3", maxEdges)
	}
}

func TestRender(t *testing.T) {
	g := planted(2, 0, 4)
	res := Discover(g, Options{Principle: MDL, BeamWidth: 4, MaxBest: 1, MaxInstances: 10, MaxSteps: 10000})
	if len(res.Best) == 0 {
		t.Fatal("no result")
	}
	out := Render(res.Best[0])
	if !strings.Contains(out, "instances") || !strings.Contains(out, "->") {
		t.Fatalf("render output unexpected:\n%s", out)
	}
}

func TestDiscoverRespectsMaxVertices(t *testing.T) {
	g := planted(6, 0, 5)
	res := Discover(g, Options{
		Principle: Size, BeamWidth: 6, MaxBest: 5, MaxVertices: 2,
		MaxInstances: 100, MaxSteps: 100000,
	})
	for _, s := range res.Best {
		if s.Graph.NumVertices() > 2 {
			t.Fatalf("substructure exceeds MaxVertices: %s", s)
		}
	}
}
