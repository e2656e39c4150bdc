package fsg

import (
	"slices"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
)

// mkTxn builds a transaction from edge triples over "*"-labeled
// vertices identified by small ints.
func mkTxn(edges [][3]interface{}) *graph.Graph {
	g := graph.New("txn")
	ids := map[int]graph.VertexID{}
	v := func(i int) graph.VertexID {
		if id, ok := ids[i]; ok {
			return id
		}
		id := g.AddVertex("*")
		ids[i] = id
		return id
	}
	for _, e := range edges {
		g.AddEdge(v(e[0].(int)), v(e[1].(int)), e[2].(string))
	}
	return g
}

func TestMineSingleEdgeSupport(t *testing.T) {
	txns := []*graph.Graph{
		mkTxn([][3]interface{}{{0, 1, "a"}}),
		mkTxn([][3]interface{}{{0, 1, "a"}, {1, 2, "b"}}),
		mkTxn([][3]interface{}{{0, 1, "b"}}),
	}
	res, err := Mine(txns, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	// "a" edge has support 2, "b" edge support 2; nothing larger is
	// frequent (the a-b path appears once).
	if len(res.Patterns) != 2 {
		for _, p := range res.Patterns {
			t.Logf("pattern support=%d: %s", p.Support, p.Graph.Dump())
		}
		t.Fatalf("patterns = %d, want 2", len(res.Patterns))
	}
	for _, p := range res.Patterns {
		if p.Support != 2 {
			t.Errorf("support = %d, want 2", p.Support)
		}
		if p.Graph.NumEdges() != 1 {
			t.Errorf("pattern edges = %d, want 1", p.Graph.NumEdges())
		}
	}
}

// TestMineSelfLoopIsNotSingleEdgeSupport: a self-loop x -e-> x has no
// injective embedding of the two-vertex pattern * -e-> *, so it must
// not count toward that pattern's support.
func TestMineSelfLoopIsNotSingleEdgeSupport(t *testing.T) {
	txns := []*graph.Graph{
		mkTxn([][3]interface{}{{0, 0, "e"}}),
		mkTxn([][3]interface{}{{0, 1, "e"}}),
	}
	res, err := Mine(txns, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		t.Errorf("pattern support=%d TIDs=%v is not frequent:\n%s", p.Support, p.TIDs, p.Graph.Dump())
	}
	res, err = Mine(txns, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 1 || res.Patterns[0].Support != 1 || !slices.Equal(res.Patterns[0].TIDs.Slice(), []int{1}) {
		for _, p := range res.Patterns {
			t.Logf("pattern support=%d TIDs=%v:\n%s", p.Support, p.TIDs, p.Graph.Dump())
		}
		t.Fatalf("got %d patterns, want * -e-> * alone with support 1 in transaction 1", len(res.Patterns))
	}
}

func TestMineFindsHubPattern(t *testing.T) {
	// Three transactions each containing a 3-spoke hub with labels
	// a, a, b plus noise; minsup 3 should surface the hub pattern.
	hub := func(noise string) *graph.Graph {
		return mkTxn([][3]interface{}{
			{0, 1, "a"}, {0, 2, "a"}, {0, 3, "b"}, {4, 5, noise},
		})
	}
	txns := []*graph.Graph{hub("x"), hub("y"), hub("z")}
	res, err := Mine(txns, Options{MinSupport: 3, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := mkTxn([][3]interface{}{{0, 1, "a"}, {0, 2, "a"}, {0, 3, "b"}})
	found := false
	for _, p := range res.Patterns {
		if p.Graph.NumEdges() == 3 && iso.Isomorphic(p.Graph, want) {
			found = true
			if p.Support != 3 {
				t.Errorf("hub support = %d, want 3", p.Support)
			}
		}
	}
	if !found {
		t.Fatal("3-edge hub pattern not found")
	}
}

func TestMineFindsChainPattern(t *testing.T) {
	chain := func() *graph.Graph {
		return mkTxn([][3]interface{}{
			{0, 1, "a"}, {1, 2, "a"}, {2, 3, "a"},
		})
	}
	txns := []*graph.Graph{chain(), chain(), chain(), mkTxn([][3]interface{}{{0, 1, "b"}})}
	res, err := Mine(txns, Options{MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	best := res.MaxPattern()
	if best == nil || best.Graph.NumEdges() != 3 {
		t.Fatalf("max pattern = %v, want 3-edge chain", best)
	}
	want := mkTxn([][3]interface{}{{0, 1, "a"}, {1, 2, "a"}, {2, 3, "a"}})
	if !iso.Isomorphic(best.Graph, want) {
		t.Fatalf("max pattern is not the chain:\n%s", best.Graph.Dump())
	}
}

func TestMineUniqueVertexLabels(t *testing.T) {
	// Unique labels (Section 6 style): pattern must match locations.
	mk := func(a, b, c string) *graph.Graph {
		g := graph.New("txn")
		va := g.AddVertex(a)
		vb := g.AddVertex(b)
		vc := g.AddVertex(c)
		g.AddEdge(va, vb, "w1")
		g.AddEdge(va, vc, "w1")
		return g
	}
	txns := []*graph.Graph{
		mk("GB", "CHI", "MKE"),
		mk("GB", "CHI", "MKE"),
		mk("GB", "DET", "CLE"), // different spokes: shares only GB label
	}
	res, err := Mine(txns, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	// GB->CHI and GB->MKE single edges have support 2; the 2-spoke
	// pattern {GB->CHI, GB->MKE} has support 2. GB->DET has support 1.
	var twoEdge int
	for _, p := range res.Patterns {
		if p.Graph.NumEdges() == 2 {
			twoEdge++
			if p.Support != 2 {
				t.Errorf("2-edge pattern support = %d, want 2", p.Support)
			}
		}
	}
	if twoEdge != 1 {
		t.Fatalf("two-edge frequent patterns = %d, want 1", twoEdge)
	}
}

func TestMineCandidateBudgetAborts(t *testing.T) {
	// Many distinct vertex labels explode candidates; a tiny budget
	// must abort cleanly rather than grow without bound.
	var txns []*graph.Graph
	for i := 0; i < 4; i++ {
		g := graph.New("txn")
		prev := g.AddVertex("v0")
		for j := 1; j < 8; j++ {
			next := g.AddVertex(labelFor(j))
			g.AddEdge(prev, next, "e")
			prev = next
		}
		txns = append(txns, g)
	}
	res, err := Mine(txns, Options{MinSupport: 2, MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("expected candidate-budget abort")
	}
	if res.AbortReason == "" {
		t.Fatal("abort reason missing")
	}
}

func labelFor(i int) string { return string(rune('a' + i)) }

func TestMinSupportFraction(t *testing.T) {
	if got := MinSupportFraction(53, 0.05); got != 3 {
		t.Errorf("5%% of 53 = %d, want 3", got)
	}
	if got := MinSupportFraction(100, 0.05); got != 5 {
		t.Errorf("5%% of 100 = %d, want 5", got)
	}
	if got := MinSupportFraction(1, 0.0); got != 1 {
		t.Errorf("floor = %d, want 1", got)
	}
}

func TestMineEmptyAndErrors(t *testing.T) {
	if _, err := Mine(nil, Options{MinSupport: 0}); err == nil {
		t.Fatal("MinSupport 0 should error")
	}
	res, err := Mine(nil, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 {
		t.Fatal("no transactions should yield no patterns")
	}
}
