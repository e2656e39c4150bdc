package pattern

import (
	"fmt"
	"math/rand"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/synth"
)

// cycle builds a directed cycle of n uniformly labeled vertices —
// the shape whose hashed invariants used to collide (C12 vs C6+C6).
func cycle(g *graph.Graph, n int) {
	first := g.AddVertex("*")
	cur := first
	for i := 1; i < n; i++ {
		next := g.AddVertex("*")
		g.AddEdge(cur, next, "e")
		cur = next
	}
	g.AddEdge(cur, first, "e")
}

// TestExactCodesSeparateFormerCollision is the engineered collision
// of the pre-canonical era: C12 and C6+C6 are non-isomorphic but
// share vertex and edge invariants, so hashed codes used to collide.
// Exact canonical codes must separate the pair outright, and code
// equality must agree with isomorphism on both the pair and an
// isomorphic copy.
func TestExactCodesSeparateFormerCollision(t *testing.T) {
	c12 := graph.New("c12")
	cycle(c12, 12)
	twoC6 := graph.New("2c6")
	cycle(twoC6, 6)
	cycle(twoC6, 6)
	c12b := graph.New("c12b")
	cycle(c12b, 12)

	if iso.Code(c12) == iso.Code(twoC6) {
		t.Fatal("exact codes failed to separate C12 from C6+C6")
	}
	for _, pair := range [][2]*graph.Graph{{c12, twoC6}, {c12, c12b}} {
		a, b := pair[0], pair[1]
		if same, isomorphic := iso.Code(a) == iso.Code(b), iso.Isomorphic(a, b); same != isomorphic {
			t.Fatalf("%s/%s: equal codes %v but isomorphic %v", a.Name, b.Name, same, isomorphic)
		}
	}
}

// TestSameGraphMatchesIsomorphicOnSynthPairs cross-checks code
// equality against exact isomorphism on seeded random graph pairs
// from the synth generator: (iso.Code(a) == iso.Code(b)) ==
// iso.Isomorphic(a, b).
func TestSameGraphMatchesIsomorphicOnSynthPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(20050405))
	patterns := synth.DefaultPatterns()
	build := func(seed int64, copies, noise int) *graph.Graph {
		return synth.Plant(synth.PlantConfig{
			Seed:             seed,
			Patterns:         patterns[:1+rng.Intn(len(patterns))],
			CopiesPerPattern: copies,
			NoiseEdges:       noise,
			NoiseLabels:      []string{"w1", "w2"},
		}).Graph
	}
	for trial := 0; trial < 20; trial++ {
		seedA := int64(trial)
		seedB := seedA
		copies := 1 + rng.Intn(3)
		noise := rng.Intn(4)
		if trial%2 == 0 {
			seedB = seedA + 100 // usually a different graph
		}
		a := build(seedA, copies, noise)
		b := build(seedB, copies, noise)
		codeA, codeB := iso.Code(a), iso.Code(b)
		if got, want := codeA == codeB, iso.Isomorphic(a, b); got != want {
			t.Fatalf("trial %d: equal codes %v but Isomorphic=%v (codes %q / %q)",
				trial, got, want, codeA, codeB)
		}
	}
}

// twoTxns builds a pair of transactions sharing a v0-e-v1 lane.
func twoTxns() []*graph.Graph {
	txns := make([]*graph.Graph, 2)
	for i := range txns {
		g := graph.New(fmt.Sprintf("t%d", i))
		a := g.AddVertex("v0")
		b := g.AddVertex("v1")
		c := g.AddVertex("v2")
		g.AddEdge(a, b, "e")
		g.AddEdge(b, c, "f")
		txns[i] = g
	}
	return txns
}

// TestCountExtensionIncrementalAndFallback checks both counting paths
// directly on a tiny handmade case.
func TestCountExtensionIncrementalAndFallback(t *testing.T) {
	txns := twoTxns()
	pg := graph.New("p")
	pa := pg.AddVertex("v0")
	pb := pg.AddVertex("v1")
	pg.AddEdge(pa, pb, "e")
	parent := &Pattern{
		Graph: pg, Code: iso.Code(pg), Support: 2, TIDs: NewTIDSet(0, 1),
		Embs: [][]iso.DenseEmbedding{
			{{Verts: []graph.VertexID{0, 1}, Edges: []graph.EdgeID{0}}},
			{{Verts: []graph.VertexID{0, 1}, Edges: []graph.EdgeID{0}}},
		},
	}
	child := pg.Clone()
	pc := child.AddVertex("v2")
	ne := child.AddEdge(pb, pc, "f")

	got, st := CountExtension(txns, parent, child, "c", ne, parent.TIDs, CountOptions{})
	if got.Support != 2 || fmt.Sprint(got.TIDs) != "[0 1]" {
		t.Fatalf("incremental: support %d tids %v", got.Support, got.TIDs)
	}
	if st.IsoTests != 0 || !got.HasEmbeddings() || got.NumEmbeddings() != 2 {
		t.Fatalf("incremental: isoTests=%d embeddings=%d", st.IsoTests, got.NumEmbeddings())
	}

	parent.DropEmbeddings()
	got, st = CountExtension(txns, parent, child, "c", ne, parent.TIDs, CountOptions{})
	if got.Support != 2 || st.IsoTests != 2 {
		t.Fatalf("fallback: support %d isoTests %d", got.Support, st.IsoTests)
	}
	if got.HasEmbeddings() {
		t.Fatal("fallback must leave the child untracked (overflow propagates)")
	}

	// A one-embedding budget overflows the child but keeps counting.
	got, _ = CountExtension(txns, parent, child, "c", ne, parent.TIDs, CountOptions{MaxEmbeddings: 1})
	if got.Support != 2 || got.HasEmbeddings() || !got.Overflowed {
		t.Fatalf("budgeted: support %d hasEmbs %v overflowed %v",
			got.Support, got.HasEmbeddings(), got.Overflowed)
	}
}

// TestEnforceBudget checks the level-wide prefix enforcement.
func TestEnforceBudget(t *testing.T) {
	mk := func(n int) Pattern {
		embs := make([]iso.DenseEmbedding, n)
		return Pattern{Embs: [][]iso.DenseEmbedding{embs}, TIDs: NewTIDSet(0)}
	}
	pats := []Pattern{mk(3), mk(4), mk(2)}
	if retained := EnforceBudget(pats, 5); retained != 5 {
		t.Fatalf("retained %d, want 5 (3 + dropped 4 + 2)", retained)
	}
	if pats[0].Overflowed || !pats[1].Overflowed || pats[2].Overflowed {
		t.Fatalf("wrong drop pattern: %v %v %v",
			pats[0].Overflowed, pats[1].Overflowed, pats[2].Overflowed)
	}
	pats = []Pattern{mk(3), mk(4)}
	if retained := EnforceBudget(pats, 0); retained != 7 {
		t.Fatalf("unlimited retained %d, want 7", retained)
	}
}
