package iso

import (
	"fmt"
	"math/rand"
	"testing"

	"tnkd/internal/graph"
)

// randGraph builds a random labeled directed graph.
func randGraph(rng *rand.Rand, maxV, maxE, vLabels, eLabels int) *graph.Graph {
	g := graph.New("r")
	nv := 2 + rng.Intn(maxV-1)
	vs := make([]graph.VertexID, nv)
	for i := range vs {
		vs[i] = g.AddVertex(fmt.Sprintf("v%d", rng.Intn(vLabels)))
	}
	ne := 1 + rng.Intn(maxE)
	for i := 0; i < ne; i++ {
		a, b := vs[rng.Intn(nv)], vs[rng.Intn(nv)]
		if a != b {
			g.AddEdge(a, b, fmt.Sprintf("e%d", rng.Intn(eLabels)))
		}
	}
	return g
}

// randomConnectedSubgraph extracts a random connected subgraph of g
// (guaranteed embeddable by construction).
func randomConnectedSubgraph(rng *rand.Rand, g *graph.Graph, edges int) *graph.Graph {
	if g.NumEdges() == 0 {
		return nil
	}
	start := graph.EdgeID(rng.Intn(g.NumEdges()))
	chosen := map[graph.EdgeID]bool{start: true}
	touched := map[graph.VertexID]bool{}
	ed := g.Edge(start)
	touched[ed.From], touched[ed.To] = true, true
	for len(chosen) < edges {
		var candidates []graph.EdgeID
		for v := range touched {
			for _, e := range append(g.OutEdges(v), g.InEdges(v)...) {
				if !chosen[e] {
					candidates = append(candidates, e)
				}
			}
		}
		if len(candidates) == 0 {
			break
		}
		e := candidates[rng.Intn(len(candidates))]
		chosen[e] = true
		eed := g.Edge(e)
		touched[eed.From], touched[eed.To] = true, true
	}
	sub := graph.New("sub")
	remap := map[graph.VertexID]graph.VertexID{}
	vtx := func(v graph.VertexID) graph.VertexID {
		if id, ok := remap[v]; ok {
			return id
		}
		id := sub.AddVertex(g.Vertex(v).Label)
		remap[v] = id
		return id
	}
	for e := range chosen {
		eed := g.Edge(e)
		sub.AddEdge(vtx(eed.From), vtx(eed.To), eed.Label)
	}
	return sub
}

// PropertySubgraphAlwaysEmbeds: a subgraph extracted from g must be
// found by the matcher — completeness on positive instances.
func TestPropertySubgraphAlwaysEmbeds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		g := randGraph(rng, 8, 14, 2, 3)
		sub := randomConnectedSubgraph(rng, g, 1+rng.Intn(4))
		if sub == nil {
			continue
		}
		if !Contains(g, sub) {
			t.Fatalf("trial %d: extracted subgraph not found\ngraph:\n%starget:\n%s",
				trial, g.Dump(), sub.Dump())
		}
	}
}

// PropertyEmbeddingIsValid: every reported embedding maps labels,
// directions and multiplicities correctly.
func TestPropertyEmbeddingIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		g := randGraph(rng, 7, 12, 2, 2)
		pat := randomConnectedSubgraph(rng, g, 1+rng.Intn(3))
		if pat == nil {
			continue
		}
		embs, _ := Embeddings(g, pat, Options{Limit: 10})
		if embs.Len() == 0 {
			t.Fatalf("trial %d: no embedding for extracted subgraph", trial)
		}
		for i := range embs.Len() {
			emb := embs.At(i)
			// Vertex injectivity.
			seen := map[int32]bool{}
			for pv, tv := range emb.Verts {
				if seen[tv] {
					t.Fatalf("trial %d: vertex mapping not injective", trial)
				}
				seen[tv] = true
				if pat.Vertex(graph.VertexID(pv)).Label != g.Vertex(graph.VertexID(tv)).Label {
					t.Fatalf("trial %d: vertex label mismatch", trial)
				}
			}
			// Edge consistency and injectivity.
			seenE := map[int32]bool{}
			for pe, te := range emb.Edges {
				if seenE[te] {
					t.Fatalf("trial %d: edge mapping not injective", trial)
				}
				seenE[te] = true
				ped, ted := pat.Edge(graph.EdgeID(pe)), g.Edge(graph.EdgeID(te))
				if ped.Label != ted.Label {
					t.Fatalf("trial %d: edge label mismatch", trial)
				}
				if graph.VertexID(emb.Verts[ped.From]) != ted.From || graph.VertexID(emb.Verts[ped.To]) != ted.To {
					t.Fatalf("trial %d: edge endpoints mismatch", trial)
				}
			}
			if len(emb.Edges) != pat.NumEdges() {
				t.Fatalf("trial %d: incomplete edge mapping", trial)
			}
		}
	}
}

// PropertyIsomorphismEquivalence: Isomorphic is reflexive and
// symmetric, and canonical codes are an exact iso invariant: equal
// codes if and only if isomorphic.
func TestPropertyIsomorphismEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 80; trial++ {
		a := randGraph(rng, 6, 9, 2, 2)
		b := randGraph(rng, 6, 9, 2, 2)
		if !Isomorphic(a, a) {
			t.Fatalf("trial %d: not reflexive", trial)
		}
		ab, ba := Isomorphic(a, b), Isomorphic(b, a)
		if ab != ba {
			t.Fatalf("trial %d: not symmetric", trial)
		}
		if ab != (Code(a) == Code(b)) {
			t.Fatalf("trial %d: Isomorphic=%v but code equality=%v\n%s\n%s",
				trial, ab, !ab, a.Dump(), b.Dump())
		}
	}
}

// permuteGraph rebuilds g with vertices inserted in a random order
// and edges shuffled — an isomorphic copy with a scrambled ID space.
func permuteGraph(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	perm := rng.Perm(g.NumVertices())
	out := graph.New(g.Name + "#perm")
	remap := make(map[graph.VertexID]graph.VertexID, len(perm))
	for _, i := range perm {
		remap[graph.VertexID(i)] = out.AddVertex(g.Vertex(graph.VertexID(i)).Label)
	}
	es := make([]graph.EdgeID, g.NumEdges())
	for i := range es {
		es[i] = graph.EdgeID(i)
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	for _, e := range es {
		ed := g.Edge(e)
		out.AddEdge(remap[ed.From], remap[ed.To], ed.Label)
	}
	return out
}

// PropertyCodeInvariantUnderPermutation: a permuted copy always gets
// the identical code — over random graphs including near-uniform
// labelings whose refinement cells stay large.
func TestPropertyCodeInvariantUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 150; trial++ {
		// Alternate between label-rich and label-poor (symmetric) graphs.
		vl, el := 3, 3
		if trial%2 == 0 {
			vl, el = 1, 1
		}
		g := randGraph(rng, 8, 12, vl, el)
		p := permuteGraph(rng, g)
		if Code(g) != Code(p) {
			t.Fatalf("trial %d: permuted copy changed the code\n%s\n%s",
				trial, g.Dump(), p.Dump())
		}
	}
}

// PropertyCodeExactOnSymmetricFamilies covers the automorphism-heavy
// shapes that previously exceeded the permutation budget: cycles,
// stars, complete bipartite blocks and disjoint cycle unions. Equal
// codes must coincide exactly with isomorphism across the family.
func TestPropertyCodeExactOnSymmetricFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var family []*graph.Graph
	addCycles := func(name string, lens ...int) {
		g := graph.New(name)
		for _, n := range lens {
			vs := make([]graph.VertexID, n)
			for i := range vs {
				vs[i] = g.AddVertex("*")
			}
			for i := range vs {
				g.AddEdge(vs[i], vs[(i+1)%n], "e")
			}
		}
		family = append(family, g)
	}
	addCycles("c12", 12)
	addCycles("c6c6", 6, 6)
	addCycles("c8c4", 8, 4)
	addCycles("c5c7", 5, 7)
	star := func(name string, spokes int, flip int) *graph.Graph {
		g := graph.New(name)
		h := g.AddVertex("*")
		for i := 0; i < spokes; i++ {
			s := g.AddVertex("*")
			if i < flip {
				g.AddEdge(s, h, "w")
			} else {
				g.AddEdge(h, s, "w")
			}
		}
		return g
	}
	family = append(family, star("s40", 40, 0), star("s40f1", 40, 1), star("s40f2", 40, 2))
	bip := func(name string, a, b int) *graph.Graph {
		g := graph.New(name)
		var left, right []graph.VertexID
		for i := 0; i < a; i++ {
			left = append(left, g.AddVertex("*"))
		}
		for i := 0; i < b; i++ {
			right = append(right, g.AddVertex("*"))
		}
		for _, u := range left {
			for _, v := range right {
				g.AddEdge(u, v, "w")
			}
		}
		return g
	}
	family = append(family, bip("k33", 3, 3), bip("k34", 3, 4), bip("k43", 4, 3), bip("k44", 4, 4))

	for i, a := range family {
		pa := permuteGraph(rng, a)
		if Code(a) != Code(pa) {
			t.Fatalf("%s: permuted copy changed the code", a.Name)
		}
		for j, b := range family {
			if i == j {
				continue
			}
			iso := Isomorphic(a, b)
			if iso != (Code(a) == Code(b)) {
				t.Fatalf("%s vs %s: Isomorphic=%v but codes %s",
					a.Name, b.Name, iso, map[bool]string{true: "equal", false: "differ"}[Code(a) == Code(b)])
			}
		}
	}
}

// PropertyMaskedCodeEqualsSubgraphCode: for random graphs and every
// maskable edge, CodeMasked equals the code of the materialised
// one-edge-deleted subgraph.
func TestPropertyMaskedCodeEqualsSubgraphCode(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		g := randGraph(rng, 7, 10, 2, 2)
		for e := range graph.EdgeID(g.NumEdges()) {
			if CodeMasked(g, e) != Code(withoutEdge(g, e)) {
				t.Fatalf("trial %d: masked code for edge %d diverges\n%s", trial, e, g.Dump())
			}
		}
	}
}
