package iso

import (
	"fmt"
	"math/rand"
	"testing"

	"tnkd/internal/graph"
)

func randGraphLoops(rng *rand.Rand, maxV, maxE, vLabels, eLabels int) *graph.Graph {
	g := graph.New("r")
	nv := 1 + rng.Intn(maxV)
	vs := make([]graph.VertexID, nv)
	for i := range vs {
		vs[i] = g.AddVertex(fmt.Sprintf("v%d", rng.Intn(vLabels)))
	}
	ne := rng.Intn(maxE + 1)
	for i := 0; i < ne; i++ {
		a, b := vs[rng.Intn(nv)], vs[rng.Intn(nv)]
		g.AddEdge(a, b, fmt.Sprintf("e%d", rng.Intn(eLabels)))
	}
	return g
}

func TestStressCodeWithSelfLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		vl, el := 1+rng.Intn(3), 1+rng.Intn(3)
		a := randGraphLoops(rng, 7, 12, vl, el)
		b := randGraphLoops(rng, 7, 12, vl, el)
		isoAB := Isomorphic(a, b)
		if isoAB != (Code(a) == Code(b)) {
			t.Fatalf("trial %d: Isomorphic=%v codeEq=%v\n%s\n%s", trial, isoAB, !isoAB, a.Dump(), b.Dump())
		}
		p := permuteGraph(rng, a)
		if Code(a) != Code(p) {
			t.Fatalf("trial %d: permuted copy changed code\n%s\n%s", trial, a.Dump(), p.Dump())
		}
	}
}

func TestStressMaskedWithSelfLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 800; trial++ {
		g := randGraphLoops(rng, 6, 9, 2, 2)
		for e := range graph.EdgeID(g.NumEdges()) {
			if CodeMasked(g, e) != Code(withoutEdge(g, e)) {
				t.Fatalf("trial %d edge %d masked code diverges\n%s", trial, e, g.Dump())
			}
		}
	}
}
