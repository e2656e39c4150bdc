package iso

import (
	"fmt"
	"testing"

	"tnkd/internal/graph"
)

// benchGraphs is the canonical-coding benchmark suite: the typical
// mining-path shapes (small, mostly asymmetric patterns), the
// high-symmetry shapes that define the worst case (cycles, stars,
// complete bipartite), and the hub that previously exceeded the
// permutation budget and fell back to a "~" code.
func benchGraphs() map[string]*graph.Graph {
	gs := make(map[string]*graph.Graph)

	// Typical 6-edge mining pattern: distinct labels, low symmetry.
	p := graph.New("pattern6")
	a := p.AddVertex("A")
	b := p.AddVertex("B")
	c := p.AddVertex("C")
	d := p.AddVertex("D")
	e := p.AddVertex("A")
	p.AddEdge(a, b, "x")
	p.AddEdge(b, c, "y")
	p.AddEdge(c, d, "x")
	p.AddEdge(d, e, "z")
	p.AddEdge(a, c, "z")
	p.AddEdge(b, d, "x")
	gs["pattern6"] = p

	// Directed cycle C12, uniform labels: one refinement class, cyclic
	// automorphism group.
	gs["cycle12"] = benchCycle("c12", 12)

	// Star with 20 identical spokes.
	gs["star20"] = benchStar(20)

	// Star with 60 identical spokes: 60! orderings in one refinement
	// class — the shape that previously exceeded permBudget.
	gs["star60"] = benchStar(60)

	// Complete bipartite K4,4, all edges one direction, uniform
	// labels: (4!)^2 leaf orderings without pruning.
	kb := graph.New("k44")
	var left, right []graph.VertexID
	for i := 0; i < 4; i++ {
		left = append(left, kb.AddVertex("*"))
	}
	for i := 0; i < 4; i++ {
		right = append(right, kb.AddVertex("*"))
	}
	for _, u := range left {
		for _, v := range right {
			kb.AddEdge(u, v, "w")
		}
	}
	gs["bipartite44"] = kb

	return gs
}

func benchCycle(name string, n int) *graph.Graph {
	g := graph.New(name)
	vs := make([]graph.VertexID, n)
	for i := range vs {
		vs[i] = g.AddVertex("*")
	}
	for i := range vs {
		g.AddEdge(vs[i], vs[(i+1)%n], "e")
	}
	return g
}

func benchStar(spokes int) *graph.Graph {
	g := graph.New(fmt.Sprintf("star%d", spokes))
	h := g.AddVertex("*")
	for i := 0; i < spokes; i++ {
		s := g.AddVertex("*")
		g.AddEdge(h, s, "w")
	}
	return g
}

// BenchmarkCode measures full canonical coding per graph shape.
func BenchmarkCode(b *testing.B) {
	for name, g := range benchGraphs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Code(g)
			}
		})
	}
}

// BenchmarkCodeExtended measures coding a one-edge extension of each
// shape (a new spoke on vertex 0): on the overlay with CodeExtended,
// against materialising it first (Clone, AddVertex, AddEdge) and
// coding the clone with Code.
func BenchmarkCodeExtended(b *testing.B) {
	for name, g := range benchGraphs() {
		ext := benchExtensions(g)[1]
		b.Run(name+"/overlay", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = CodeExtended(g, ext, -1)
			}
		})
		b.Run(name+"/clone", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, _ := ext.Apply(g)
				_ = Code(c)
			}
		})
	}
}

// BenchmarkRefine measures the partition-refinement step alone (no
// individualisation search, no rendering).
func BenchmarkRefine(b *testing.B) {
	for name, g := range benchGraphs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refineBench(g)
			}
		})
	}
}

// refineBench runs the dense-view build plus one full equitable
// refinement — the per-call cost of the common (asymmetric) case
// minus the search and rendering.
func refineBench(g *graph.Graph) {
	l := labelerPool.Get().(*labeler)
	l.build(g, nil, -1, false)
	colors := l.colorsAt(0)
	copy(colors, l.vlab)
	l.refine(colors)
	labelerPool.Put(l)
}
