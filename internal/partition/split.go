// Package partition implements the two ways the paper turns its
// single transportation graph into sets of graph transactions:
//
//   - Structural partitioning (Section 5.2, Algorithm 2): incremental
//     breadth-first or depth-first extraction of edge-disjoint
//     subgraphs of a target size, repeated with different random
//     partitionings (Algorithm 1).
//   - Temporal partitioning (Section 6): one graph transaction per
//     calendar day containing the OD pairs active on that day, split
//     into connected components, de-duplicated and filtered.
package partition

import (
	"fmt"
	"math/rand"

	"tnkd/internal/graph"
)

// Strategy selects the vertex-expansion order of Algorithm 2.
type Strategy int

const (
	// BreadthFirst grows partitions with a FIFO queue, preserving
	// high-out-degree (hub-and-spoke) patterns.
	BreadthFirst Strategy = iota
	// DepthFirst grows partitions with a LIFO stack, preserving long
	// chain patterns.
	DepthFirst
)

// String names the strategy as in the paper's figures ("BF"/"DF").
func (s Strategy) String() string {
	if s == BreadthFirst {
		return "BF"
	}
	return "DF"
}

// SplitOptions configures SplitGraph.
type SplitOptions struct {
	// K is the number of transactions to partition the graph into
	// (Algorithm 2's k). Must be >= 1.
	K int
	// Strategy selects breadth-first or depth-first growth.
	Strategy Strategy
	// Rand drives the random starting-vertex choices. nil uses a
	// fixed-seed source, making the split deterministic.
	Rand *rand.Rand
}

// SplitGraph implements Algorithm 2: it partitions g into
// edge-disjoint sub-graph transactions by repeatedly growing a
// subgraph from a random start vertex (queue = breadth first, stack =
// depth first), removing its edges from the working copy, and
// dropping orphaned vertices. The input graph is not modified.
//
// The algorithm targets |E|/(k - i) edges for the i-th partition so
// partition sizes stay similar; disconnection during consumption can
// still produce smaller and larger partitions, as the paper notes.
func SplitGraph(g *graph.Graph, opts SplitOptions) []*graph.Graph {
	if opts.K < 1 {
		panic(fmt.Sprintf("partition: SplitGraph with K=%d", opts.K))
	}
	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	work := g.Clone()
	var parts []*graph.Graph
	for txn := 0; txn < opts.K && work.NumEdges() > 0; txn++ {
		remaining := opts.K - txn
		budget := work.NumEdges() / remaining
		if budget < 1 {
			budget = 1
		}
		part := extractOne(work, budget, opts.Strategy, rng)
		if part.NumEdges() > 0 {
			parts = append(parts, part)
		}
		work.RemoveOrphans()
	}
	// Consume any residue (possible when early partitions run small
	// because the graph disconnected).
	for work.NumEdges() > 0 {
		part := extractOne(work, work.NumEdges(), opts.Strategy, rng)
		if part.NumEdges() == 0 {
			break
		}
		parts = append(parts, part)
		work.RemoveOrphans()
	}
	for i, p := range parts {
		p.Name = fmt.Sprintf("%s/%s%d", g.Name, opts.Strategy, i)
	}
	return parts
}

// extractOne pulls one subgraph of up to `budget` edges out of work,
// removing those edges from work. It implements the inner loops of
// Algorithm 2 for both orderings.
func extractOne(work *graph.Graph, budget int, strat Strategy, rng *rand.Rand) *graph.Graph {
	part := graph.New("")
	remap := make(map[graph.VertexID]graph.VertexID)
	addVertex := func(v graph.VertexID) graph.VertexID {
		if id, ok := remap[v]; ok {
			return id
		}
		id := part.AddVertex(work.Vertex(v).Label)
		remap[v] = id
		return id
	}

	edges := budget
	// Ordering structure q: queue for breadth-first, stack for
	// depth-first.
	var q []graph.VertexID
	inQ := make(map[graph.VertexID]bool)
	push := func(v graph.VertexID) {
		if !inQ[v] {
			q = append(q, v)
			inQ[v] = true
		}
	}
	pop := func() graph.VertexID {
		var v graph.VertexID
		if strat == BreadthFirst {
			v = q[0]
			q = q[1:]
		} else {
			v = q[len(q)-1]
			q = q[:len(q)-1]
		}
		return v
	}

	start, ok := randomVertexWithEdges(work, rng)
	if !ok {
		return part
	}
	push(start)
	for edges > 0 && len(q) > 0 {
		v := pop()
		pv := addVertex(v)
		for edges > 0 {
			e, ok := work.FirstIncidentEdge(v)
			if !ok {
				break
			}
			ed := work.Edge(e)
			other := ed.From
			if ed.From == v {
				other = ed.To
			}
			po := addVertex(other)
			if ed.From == v {
				part.AddEdge(pv, po, ed.Label)
			} else {
				part.AddEdge(po, pv, ed.Label)
			}
			work.RemoveEdge(e)
			edges--
			push(other)
		}
	}
	return part
}

// randomVertexWithEdges picks a uniformly random live vertex that has
// at least one live incident edge.
func randomVertexWithEdges(work *graph.Graph, rng *rand.Rand) (graph.VertexID, bool) {
	vs := work.Vertices()
	if len(vs) == 0 {
		return 0, false
	}
	// Try random probes first; fall back to a scan.
	for i := 0; i < 32; i++ {
		v := vs[rng.Intn(len(vs))]
		if work.Degree(v) > 0 {
			return v, true
		}
	}
	for _, v := range vs {
		if work.Degree(v) > 0 {
			return v, true
		}
	}
	return 0, false
}
