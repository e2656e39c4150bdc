// Package synth generates synthetic graphs with known planted
// patterns. It plays the role of the Kuramochi–Karypis synthetic
// graph generator the paper used for two purposes:
//
//   - the recall study of Section 5.2.1 footnote 2 ("simulated data
//     constructed by joining subgraphs with known frequent patterns to
//     form a single graph, and then partitioned" — recall ≥ 50% for
//     both traversal orders, better on smaller graphs), and
//   - the label-cardinality stress of Section 8 (transaction sets
//     with many distinct vertex labels blow up FSG's candidate sets).
package synth

import (
	"fmt"
	"math/rand"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
)

// PlantConfig controls planted-pattern graph construction.
type PlantConfig struct {
	Seed int64
	// Patterns are the ground-truth subgraphs to embed. Each is
	// embedded CopiesPerPattern times with fresh vertices.
	Patterns []*graph.Graph
	// CopiesPerPattern is how many disjoint copies of each pattern
	// are joined into the single graph.
	CopiesPerPattern int
	// NoiseEdges adds random edges between existing vertices with
	// labels drawn from NoiseLabels.
	NoiseEdges  int
	NoiseLabels []string
	// JoinEdges adds random edges connecting pattern copies so the
	// result is one graph rather than a disjoint union.
	JoinEdges int
}

// Planted is a single graph with ground truth.
type Planted struct {
	Graph    *graph.Graph
	Patterns []*graph.Graph
	// Copies is the number of embedded copies of each pattern.
	Copies int
}

// Plant builds the single graph.
func Plant(cfg PlantConfig) *Planted {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.New("planted")
	for _, pat := range cfg.Patterns {
		for c := 0; c < cfg.CopiesPerPattern; c++ {
			remap := make(map[graph.VertexID]graph.VertexID)
			for v := range graph.VertexID(pat.NumVertices()) {
				remap[v] = g.AddVertex(pat.Vertex(v).Label)
			}
			for e := range graph.EdgeID(pat.NumEdges()) {
				ed := pat.Edge(e)
				g.AddEdge(remap[ed.From], remap[ed.To], ed.Label)
			}
		}
	}
	n := g.NumVertices()
	labels := cfg.NoiseLabels
	if len(labels) == 0 {
		labels = []string{"noise"}
	}
	for i := 0; i < cfg.JoinEdges+cfg.NoiseEdges && n >= 2; i++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		g.AddEdge(u, v, labels[rng.Intn(len(labels))])
	}
	return &Planted{Graph: g, Patterns: cfg.Patterns, Copies: cfg.CopiesPerPattern}
}

// Recall computes the fraction of planted patterns found among the
// mined patterns (matching by isomorphism).
func (p *Planted) Recall(mined []*graph.Graph) float64 {
	if len(p.Patterns) == 0 {
		return 0
	}
	found := 0
	for _, want := range p.Patterns {
		for _, got := range mined {
			if iso.Isomorphic(want, got) {
				found++
				break
			}
		}
	}
	return float64(found) / float64(len(p.Patterns))
}

// DefaultPatterns returns the motif family used by the recall bench:
// a hub-and-spoke, a chain, and a cycle, all over uniform "*" vertex
// labels with a small edge-label alphabet (as in Section 5).
func DefaultPatterns() []*graph.Graph {
	hub := graph.New("hub")
	h := hub.AddVertex("*")
	for i := 0; i < 3; i++ {
		s := hub.AddVertex("*")
		hub.AddEdge(h, s, "w1")
	}

	chain := graph.New("chain")
	prev := chain.AddVertex("*")
	for i := 0; i < 3; i++ {
		next := chain.AddVertex("*")
		chain.AddEdge(prev, next, "w2")
		prev = next
	}

	cycle := graph.New("cycle")
	first := cycle.AddVertex("*")
	cur := first
	for i := 0; i < 2; i++ {
		next := cycle.AddVertex("*")
		cycle.AddEdge(cur, next, "w3")
		cur = next
	}
	cycle.AddEdge(cur, first, "w3")

	return []*graph.Graph{hub, chain, cycle}
}

// LabelStressConfig builds graph-transaction sets with a controlled
// number of distinct vertex labels, reproducing the candidate-set
// explosion of Section 8: the chemical datasets FSG was designed for
// have ~66 vertex labels, while temporally partitioned transportation
// transactions have thousands of unique location labels whose lanes
// recur day after day, so the frequent-1-edge set — and with it the
// level-2 candidate set — grows with label cardinality until memory
// is exhausted.
//
// The generator models exactly that: a fixed universe of "lanes"
// (labeled vertex pairs) shared by all transactions, each transaction
// containing a random majority subset of the lanes (a daily snapshot
// of the recurring network).
type LabelStressConfig struct {
	Seed            int64
	NumTransactions int // daily snapshots
	Lanes           int // lane universe size
	LanesPerTxn     int // lanes active per transaction
	// Hubs is the number of distribution-centre labels every lane
	// originates from (transportation networks are hub-structured;
	// level-2 FSG candidates join lanes at shared hubs, so the
	// candidate count scales with the number of *distinct* frequent
	// lane patterns per hub — the vertex-label cardinality knob).
	Hubs         int
	VertexLabels int // distinct destination-label alphabet
	EdgeLabels   int // distinct edge-label alphabet
}

// LabelStress generates the transaction set.
func LabelStress(cfg LabelStressConfig) []*graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.VertexLabels < 1 {
		cfg.VertexLabels = 1
	}
	if cfg.EdgeLabels < 1 {
		cfg.EdgeLabels = 1
	}
	if cfg.Hubs < 1 {
		cfg.Hubs = 6
	}
	if cfg.LanesPerTxn > cfg.Lanes {
		cfg.LanesPerTxn = cfg.Lanes
	}
	type lane struct {
		fromLabel, toLabel, edgeLabel string
	}
	lanes := make([]lane, cfg.Lanes)
	for i := range lanes {
		lanes[i] = lane{
			fromLabel: fmt.Sprintf("hub%d", rng.Intn(cfg.Hubs)),
			toLabel:   fmt.Sprintf("v%d", rng.Intn(cfg.VertexLabels)),
			edgeLabel: fmt.Sprintf("e%d", rng.Intn(cfg.EdgeLabels)),
		}
	}
	txns := make([]*graph.Graph, 0, cfg.NumTransactions)
	for t := 0; t < cfg.NumTransactions; t++ {
		g := graph.New(fmt.Sprintf("stress/%d", t))
		vertexOf := make(map[string]graph.VertexID)
		vtx := func(label string) graph.VertexID {
			if id, ok := vertexOf[label]; ok {
				return id
			}
			id := g.AddVertex(label)
			vertexOf[label] = id
			return id
		}
		perm := rng.Perm(cfg.Lanes)
		for _, li := range perm[:cfg.LanesPerTxn] {
			ln := lanes[li]
			g.AddEdge(vtx(ln.fromLabel), vtx(ln.toLabel), ln.edgeLabel)
		}
		txns = append(txns, g)
	}
	return txns
}
