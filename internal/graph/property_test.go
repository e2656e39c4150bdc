package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestPropertyOpSequence drives a random operation sequence against
// the graph and a naive reference model, checking counts, degrees and
// component invariants stay consistent throughout.
func TestPropertyOpSequence(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New("prop")
		type refEdge struct{ from, to VertexID }
		nv := 0
		var refEdges []refEdge
		for _, op := range opsRaw {
			if op%2 == 0 || nv < 2 {
				g.AddVertex("*")
				nv++
				continue
			}
			a := VertexID(rng.Intn(nv))
			b := VertexID(rng.Intn(nv))
			g.AddEdge(a, b, "e")
			refEdges = append(refEdges, refEdge{a, b})
		}

		// Invariants.
		outDeg := map[VertexID]int{}
		inDeg := map[VertexID]int{}
		for _, e := range refEdges {
			outDeg[e.from]++
			inDeg[e.to]++
		}
		if g.NumVertices() != nv || g.NumEdges() != len(refEdges) {
			return false
		}
		for v := range VertexID(nv) {
			if !g.HasVertex(v) || g.OutDegree(v) != outDeg[v] || g.InDegree(v) != inDeg[v] {
				return false
			}
		}
		if g.HasVertex(VertexID(nv)) || g.HasVertex(-1) {
			return false
		}
		// Component vertex sets partition the vertices.
		total := 0
		for _, comp := range g.WeaklyConnectedComponents() {
			total += len(comp)
		}
		return total == nv
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSplitComponentsMatchesInducedSubgraph: on random labelled
// multigraphs with self-loops and isolated vertices, the components are those a Neighbors search finds, and
// each split graph equals InducedSubgraph of its component, vertex
// for vertex and edge for edge.
func TestSplitComponentsMatchesInducedSubgraph(t *testing.T) {
	full := func(g *Graph) string {
		s := g.Dump()
		for v := range VertexID(g.NumVertices()) {
			s += fmt.Sprintf("v%d(%s)\n", v, g.Vertex(v).Label)
		}
		return s
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(fmt.Sprintf("g%d", seed))
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			g.AddVertex([]string{"a", "b", "c"}[rng.Intn(3)])
		}
		for i := rng.Intn(2 * n); i > 0; i-- {
			g.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), []string{"x", "y"}[rng.Intn(2)])
		}

		// Reference components: search over Neighbors from each
		// unvisited vertex, then the same order as the method's.
		seen := map[VertexID]bool{}
		var want [][]VertexID
		for s := range VertexID(g.NumVertices()) {
			if seen[s] {
				continue
			}
			seen[s] = true
			comp := []VertexID{}
			for queue := []VertexID{s}; len(queue) > 0; queue = queue[1:] {
				comp = append(comp, queue[0])
				for _, u := range g.Neighbors(queue[0]) {
					if !seen[u] {
						seen[u] = true
						queue = append(queue, u)
					}
				}
			}
			slices.Sort(comp)
			want = append(want, comp)
		}
		slices.SortStableFunc(want, func(a, b []VertexID) int {
			if len(a) != len(b) {
				return len(b) - len(a)
			}
			return int(a[0] - b[0])
		})
		comps := g.WeaklyConnectedComponents()
		if fmt.Sprint(comps) != fmt.Sprint(want) {
			t.Fatalf("seed %d: components %v, want %v", seed, comps, want)
		}
		split := g.SplitComponents()
		if len(split) != len(comps) {
			t.Fatalf("seed %d: %d split graphs for %d components", seed, len(split), len(comps))
		}
		for i, comp := range comps {
			if got, want := full(split[i]), full(g.InducedSubgraph(split[i].Name, comp)); got != want {
				t.Fatalf("seed %d component %d:\n%s\nwant\n%s", seed, i, got, want)
			}
		}
	}
}
