package synth

import (
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
)

func TestPlantEmbedsAllCopies(t *testing.T) {
	pats := DefaultPatterns()
	planted := Plant(PlantConfig{
		Seed: 1, Patterns: pats, CopiesPerPattern: 5, NoiseEdges: 10, JoinEdges: 3,
	})
	wantV, wantE := 0, 0
	for _, p := range pats {
		wantV += 5 * p.NumVertices()
		wantE += 5 * p.NumEdges()
	}
	if planted.Graph.NumVertices() != wantV {
		t.Errorf("vertices = %d, want %d", planted.Graph.NumVertices(), wantV)
	}
	if planted.Graph.NumEdges() < wantE {
		t.Errorf("edges = %d, want >= %d", planted.Graph.NumEdges(), wantE)
	}
	// Every pattern must actually embed.
	for i, p := range pats {
		if !iso.Contains(planted.Graph, p) {
			t.Errorf("pattern %d not embedded", i)
		}
	}
}

func TestRecallScoring(t *testing.T) {
	pats := DefaultPatterns()
	planted := Plant(PlantConfig{Seed: 2, Patterns: pats, CopiesPerPattern: 3})
	if got := planted.Recall(pats); got != 1.0 {
		t.Errorf("perfect recall = %v", got)
	}
	if got := planted.Recall(pats[:1]); got < 0.32 || got > 0.34 {
		t.Errorf("1/3 recall = %v", got)
	}
	if got := planted.Recall(nil); got != 0 {
		t.Errorf("empty recall = %v", got)
	}
	// A non-planted pattern contributes nothing.
	other := graph.New("other")
	a := other.AddVertex("*")
	b := other.AddVertex("*")
	other.AddEdge(a, b, "zzz")
	if got := planted.Recall([]*graph.Graph{other}); got != 0 {
		t.Errorf("foreign recall = %v", got)
	}
}

func TestDefaultPatternsShapes(t *testing.T) {
	pats := DefaultPatterns()
	if len(pats) != 3 {
		t.Fatalf("patterns = %d", len(pats))
	}
	for _, p := range pats {
		if comps := len(p.WeaklyConnectedComponents()); p.NumEdges() < 3 || comps != 1 {
			t.Errorf("pattern %s: edges=%d components=%d", p.Name, p.NumEdges(), comps)
		}
	}
}

func TestLabelStressSharedLanes(t *testing.T) {
	txns := LabelStress(LabelStressConfig{
		Seed: 3, NumTransactions: 10, Lanes: 50, LanesPerTxn: 40,
		VertexLabels: 30, EdgeLabels: 5,
	})
	if len(txns) != 10 {
		t.Fatalf("transactions = %d", len(txns))
	}
	for _, g := range txns {
		if g.NumEdges() != 40 {
			t.Errorf("edges = %d, want 40", g.NumEdges())
		}
	}
	// Lanes recur: the same labeled edge triple must appear in most
	// transactions (that is what makes F1 large).
	type triple struct{ f, e, to string }
	counts := map[triple]int{}
	for _, g := range txns {
		seen := map[triple]bool{}
		for e := range graph.EdgeID(g.NumEdges()) {
			ed := g.Edge(e)
			tr := triple{g.Vertex(ed.From).Label, ed.Label, g.Vertex(ed.To).Label}
			if !seen[tr] {
				seen[tr] = true
				counts[tr]++
			}
		}
	}
	recurring := 0
	for _, c := range counts {
		if c >= 5 {
			recurring++
		}
	}
	if recurring < 20 {
		t.Errorf("recurring lane triples = %d, want many", recurring)
	}
}

func TestLabelStressCardinalityGrowsTriples(t *testing.T) {
	distinctTriples := func(vlabels int) int {
		txns := LabelStress(LabelStressConfig{
			Seed: 4, NumTransactions: 5, Lanes: 300, LanesPerTxn: 250,
			VertexLabels: vlabels, EdgeLabels: 5,
		})
		type triple struct{ f, e, to string }
		set := map[triple]bool{}
		for _, g := range txns {
			for e := range graph.EdgeID(g.NumEdges()) {
				ed := g.Edge(e)
				set[triple{g.Vertex(ed.From).Label, ed.Label, g.Vertex(ed.To).Label}] = true
			}
		}
		return len(set)
	}
	few := distinctTriples(6)
	many := distinctTriples(600)
	if many <= few {
		t.Errorf("triples: %d labels -> %d, 600 labels -> %d; want growth", 6, few, many)
	}
}
