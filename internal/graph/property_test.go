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
		type refEdge struct {
			from, to VertexID
			alive    bool
		}
		var refVerts []bool
		var refEdges []refEdge

		aliveVertices := func() []VertexID {
			var vs []VertexID
			for i, alive := range refVerts {
				if alive {
					vs = append(vs, VertexID(i))
				}
			}
			return vs
		}

		for _, op := range opsRaw {
			switch op % 4 {
			case 0: // add vertex
				g.AddVertex("*")
				refVerts = append(refVerts, true)
			case 1: // add edge
				vs := aliveVertices()
				if len(vs) < 2 {
					continue
				}
				a := vs[rng.Intn(len(vs))]
				b := vs[rng.Intn(len(vs))]
				g.AddEdge(a, b, "e")
				refEdges = append(refEdges, refEdge{a, b, true})
			case 2: // remove edge
				if len(refEdges) == 0 {
					continue
				}
				i := rng.Intn(len(refEdges))
				g.RemoveEdge(EdgeID(i))
				refEdges[i].alive = false
			case 3: // remove vertex
				vs := aliveVertices()
				if len(vs) == 0 {
					continue
				}
				v := vs[rng.Intn(len(vs))]
				g.RemoveVertex(v)
				refVerts[v] = false
				for i := range refEdges {
					if refEdges[i].alive && (refEdges[i].from == v || refEdges[i].to == v) {
						refEdges[i].alive = false
					}
				}
			}
		}

		// Invariants.
		nv, ne := 0, 0
		for _, alive := range refVerts {
			if alive {
				nv++
			}
		}
		outDeg := map[VertexID]int{}
		inDeg := map[VertexID]int{}
		for _, e := range refEdges {
			if e.alive {
				ne++
				outDeg[e.from]++
				inDeg[e.to]++
			}
		}
		if g.NumVertices() != nv || g.NumEdges() != ne {
			return false
		}
		for i, alive := range refVerts {
			v := VertexID(i)
			if g.HasVertex(v) != alive {
				return false
			}
			if alive && (g.OutDegree(v) != outDeg[v] || g.InDegree(v) != inDeg[v]) {
				return false
			}
		}
		// Compact preserves counts.
		c, _ := g.Compact()
		if c.NumVertices() != nv || c.NumEdges() != ne {
			return false
		}
		// Component vertex sets partition the live vertices.
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
// multigraphs with self-loops, isolated vertices and removed vertices
// and edges, the components are those a Neighbors search finds, and
// each split graph equals InducedSubgraph of its component, vertex
// for vertex and edge for edge.
func TestSplitComponentsMatchesInducedSubgraph(t *testing.T) {
	full := func(g *Graph) string {
		s := g.Dump()
		for _, v := range g.Vertices() {
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
		for i := rng.Intn(3); i > 0; i-- {
			g.RemoveEdge(EdgeID(rng.Intn(g.EdgeCap() + 1)))
			g.RemoveVertex(VertexID(rng.Intn(n)))
		}

		// Reference components: search over Neighbors from each
		// unvisited vertex, then the same order as the method's.
		seen := map[VertexID]bool{}
		var want [][]VertexID
		for _, s := range g.Vertices() {
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
