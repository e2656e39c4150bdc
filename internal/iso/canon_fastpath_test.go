package iso

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tnkd/internal/graph"
)

// withoutFastPath runs f with the interchangeable-cell short-circuit
// disabled — the exhaustive individualisation search the fast path
// must be byte-identical to.
func withoutFastPath(f func()) {
	canonNoFastPath = true
	defer func() { canonNoFastPath = false }()
	f()
}

// fastPathFixtures are the shapes the certificate must handle on both
// sides: ones where it fires (stars, cliques, complete bipartite,
// independent sets inside larger graphs) and ones where it must
// refuse (cycles, matchings, near-symmetric graphs with one defect).
func fastPathFixtures() map[string]*graph.Graph {
	gs := map[string]*graph.Graph{
		"star5":       benchStar(5),
		"star20":      benchStar(20),
		"star60":      benchStar(60),
		"cycle12":     benchCycle("c12f", 12),
		"bipartite44": benchGraphs()["bipartite44"],
		"pattern6":    benchGraphs()["pattern6"],
	}

	// Directed clique K5: uniform all-ordered-pairs coupling.
	k5 := graph.New("k5")
	var kv []graph.VertexID
	for i := 0; i < 5; i++ {
		kv = append(kv, k5.AddVertex("*"))
	}
	for _, u := range kv {
		for _, v := range kv {
			if u != v {
				k5.AddEdge(u, v, "e")
			}
		}
	}
	gs["clique5"] = k5

	// Symmetric clique with self-loops on every vertex.
	loop := graph.New("loopclique")
	var lv []graph.VertexID
	for i := 0; i < 4; i++ {
		lv = append(lv, loop.AddVertex("*"))
	}
	for _, u := range lv {
		loop.AddEdge(u, u, "s")
		for _, v := range lv {
			if u != v {
				loop.AddEdge(u, v, "e")
			}
		}
	}
	gs["loopclique4"] = loop

	// Perfect matching: one refinement cell, but transpositions across
	// pairs are not automorphisms — the certificate must refuse.
	match := graph.New("matching")
	for i := 0; i < 5; i++ {
		a := match.AddVertex("*")
		b := match.AddVertex("*")
		match.AddEdge(a, b, "e")
		match.AddEdge(b, a, "e")
	}
	gs["matching5"] = match

	// Star with one defective spoke (a doubled edge): the spoke cell
	// splits after refinement; the remaining cell is interchangeable.
	defect := graph.New("defectstar")
	hub := defect.AddVertex("*")
	for i := 0; i < 12; i++ {
		s := defect.AddVertex("*")
		defect.AddEdge(hub, s, "w")
		if i == 0 {
			defect.AddEdge(hub, s, "w")
		}
	}
	gs["defectstar"] = defect

	// Double star: two hubs joined by an edge, each with its own spoke
	// set — two interchangeable cells alive at once.
	double := graph.New("doublestar")
	h1 := double.AddVertex("h")
	h2 := double.AddVertex("h")
	double.AddEdge(h1, h2, "b")
	for i := 0; i < 8; i++ {
		double.AddEdge(h1, double.AddVertex("*"), "w")
		double.AddEdge(h2, double.AddVertex("*"), "w")
	}
	gs["doublestar"] = double

	return gs
}

// TestFastPathMatchesExhaustiveSearch pins the tentpole invariant:
// the interchangeable-cell short-circuit changes nothing about the
// canonical form, on symmetric shapes where it fires and asymmetric
// ones where it must refuse.
func TestFastPathMatchesExhaustiveSearch(t *testing.T) {
	for name, g := range fastPathFixtures() {
		fast := Code(g)
		var slow string
		withoutFastPath(func() { slow = Code(g) })
		if fast != slow {
			t.Errorf("%s: fast path code %q != exhaustive %q", name, fast, slow)
		}
	}
}

// TestFastPathMatchesOnRandomGraphs fuzzes the equality over random
// multigraphs (self-loops, parallel edges, skewed label alphabets
// that manufacture large refinement cells).
func TestFastPathMatchesOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 300; trial++ {
		g := graph.New(fmt.Sprintf("r%d", trial))
		nv := 2 + rng.Intn(9)
		labels := 1 + rng.Intn(3) // few labels: big symmetric cells
		for i := 0; i < nv; i++ {
			g.AddVertex(fmt.Sprintf("L%d", rng.Intn(labels)))
		}
		ne := rng.Intn(2 * nv)
		for i := 0; i < ne; i++ {
			g.AddEdge(graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv)),
				fmt.Sprintf("w%d", rng.Intn(2)))
		}
		fast := Code(g)
		var slow string
		withoutFastPath(func() { slow = Code(g) })
		if fast != slow {
			t.Fatalf("trial %d: fast %q != slow %q\n%s", trial, fast, slow, g.Dump())
		}
	}
}

// TestFastPathStar60Budget pins the acceptance criterion that
// motivated the fast path: the 60-spoke star — 60! orderings in one
// refinement class, 4.97ms under the exhaustive search — must code in
// under a millisecond.
func TestFastPathStar60Budget(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock budget is meaningless under the race detector")
	}
	g := benchStar(60)
	Code(g) // warm the pool
	const reps = 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		Code(g)
	}
	if per := time.Since(start) / reps; per > time.Millisecond {
		t.Fatalf("star60 canonical code took %v per call, budget 1ms", per)
	}
}

// decodeShapedGraph reads one small labelled multigraph from data
// whose first byte picks a shape, so that the interchangeable-cell
// short-circuit fires as often as it refuses. Missing bytes read as
// zero.
//
//	data[0]  low 2 bits: 0 free-form (decodeFuzzGraph from data[1]),
//	         1 star, 2 directed clique, 3 complete bipartite;
//	         bit 2 adds every shaped edge reversed too, bit 3 puts a
//	         self-loop on every shaped vertex
//	data[1]  size: star spokes 2..17, clique 2..7 vertices,
//	         bipartite sides 1..4 (low bits) by 1..4 (next bits)
//	data[2]  label mask: bit i%8 set labels shaped vertex i b, else a
//	then     up to 4 extra edges (from, to, label) that break or keep
//	         the symmetry
func decodeShapedGraph(data []byte) *graph.Graph {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	flags := at(0)
	if flags&3 == 0 {
		g, _ := decodeFuzzGraph(data, 1)
		return g
	}
	g := graph.New("shaped")
	add := func() graph.VertexID {
		v := g.AddVertex([]string{"a", "b"}[at(2)>>(g.NumVertices()%8)&1])
		if flags&8 != 0 {
			g.AddEdge(v, v, "s")
		}
		return v
	}
	link := func(u, v graph.VertexID) {
		g.AddEdge(u, v, "x")
		if flags&4 != 0 {
			g.AddEdge(v, u, "x")
		}
	}
	switch size := at(1); flags & 3 {
	case 1:
		hub := add()
		for i := 0; i < size%16+2; i++ {
			link(hub, add())
		}
	case 2:
		var vs []graph.VertexID
		for i := 0; i < size%6+2; i++ {
			vs = append(vs, add())
		}
		for _, u := range vs {
			for _, v := range vs {
				if u != v {
					g.AddEdge(u, v, "x")
				}
			}
		}
	case 3:
		var left []graph.VertexID
		for i := 0; i < size%4+1; i++ {
			left = append(left, add())
		}
		for i := 0; i < size>>2%4+1; i++ {
			v := add()
			for _, u := range left {
				link(u, v)
			}
		}
	}
	nv := g.NumVertices()
	for i, pos := 0, 3; i < 4 && pos+2 < len(data); i, pos = i+1, pos+3 {
		g.AddEdge(graph.VertexID(at(pos)%nv), graph.VertexID(at(pos+1)%nv), []string{"x", "y"}[at(pos+2)%2])
	}
	return g
}

// FuzzCanonFastPath is the differential target of the canonical
// labeler's interchangeable-cell short-circuit against the exhaustive
// individualisation search: Code must be byte-identical with the fast
// path on and off. Shapes with big interchangeable cells (stars,
// cliques, complete bipartite graphs, optionally mirrored, looped or
// perturbed by a few extra edges) make the short-circuit fire; the
// free-form shape and the perturbations make it refuse. The toggle is
// a package variable, so the target must not run in parallel. The
// checked-in corpus under testdata/fuzz/FuzzCanonFastPath covers a
// uniform star, a two-label mirrored clique, a looped complete
// bipartite graph, a star with one defective spoke and a free-form
// multigraph.
func FuzzCanonFastPath(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeShapedGraph(data)
		fast := Code(g)
		var slow string
		withoutFastPath(func() { slow = Code(g) })
		if fast != slow {
			t.Fatalf("fast path code %q != exhaustive %q\n%s", fast, slow, g.Dump())
		}
	})
}
