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
// depth first), consuming its edges, and dropping orphaned vertices.
// The input graph is read, never modified.
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
	w := newWorkSet(g)
	var parts []*graph.Graph
	for txn := 0; txn < opts.K && w.numEdges > 0; txn++ {
		remaining := opts.K - txn
		budget := w.numEdges / remaining
		if budget < 1 {
			budget = 1
		}
		part := w.extractOne(budget, opts.Strategy, rng)
		if part.NumEdges() > 0 {
			parts = append(parts, part)
		}
		w.dropOrphans()
	}
	// Consume any residue (possible when early partitions run small
	// because the graph disconnected).
	for w.numEdges > 0 {
		part := w.extractOne(w.numEdges, opts.Strategy, rng)
		if part.NumEdges() == 0 {
			break
		}
		parts = append(parts, part)
		w.dropOrphans()
	}
	for i, p := range parts {
		p.Name = fmt.Sprintf("%s/%s%d", g.Name, opts.Strategy, i)
	}
	return parts
}

// workSet is Algorithm 2's working copy of the input graph, built
// once. Edges only ever die, so each vertex's adjacency is walked
// through a monotone first-live cursor: all of a split's edge lookups
// together cost O(V + E), however many partitions it draws.
//
// It reproduces the clone-and-mutate formulation exactly: a vertex's
// next edge is its first live outgoing edge in ascending edge-ID
// order, else its first live incoming one, and live lists the
// vertices the random start draw indexes, in ascending ID order (all
// of the input's vertices, then after each extraction only those with
// a live incident edge).
type workSet struct {
	edges    []graph.Edge // the input's edges, indexed by edge ID
	alive    []bool       // per edge: not yet consumed
	numEdges int          // live edges left

	vlabel        []string // per input vertex ID
	outOff, inOff []int32  // CSR offsets, per input vertex ID (+1)
	outAdj, inAdj []int32  // edge IDs, ascending per vertex
	outCur, inCur []int32  // first possibly-live position in each list
	deg           []int32  // live in+out degree (a self-loop counts twice)
	live          []graph.VertexID

	// Per-extraction scratch: v is in the current partition (and has
	// been queued) iff stamp[v] == epoch, as partition vertex partID[v].
	epoch  uint32
	stamp  []uint32
	partID []graph.VertexID
	q      []graph.VertexID
}

func newWorkSet(g *graph.Graph) *workSet {
	nv := g.NumVertices()
	w := &workSet{
		vlabel: make([]string, nv),
		outOff: make([]int32, nv+1),
		inOff:  make([]int32, nv+1),
		deg:    make([]int32, nv),
		live:   make([]graph.VertexID, nv),
		stamp:  make([]uint32, nv),
		partID: make([]graph.VertexID, nv),
	}
	for v := range w.live {
		w.live[v] = graph.VertexID(v)
		w.vlabel[v] = g.Vertex(graph.VertexID(v)).Label
	}
	ne := g.NumEdges()
	w.edges = make([]graph.Edge, ne)
	w.alive = make([]bool, ne)
	for i := range w.edges {
		ed := g.Edge(graph.EdgeID(i))
		w.edges[i] = ed
		w.alive[i] = true
		w.outOff[ed.From+1]++
		w.inOff[ed.To+1]++
	}
	w.numEdges = ne
	for v := 0; v < nv; v++ {
		w.deg[v] = w.outOff[v+1] + w.inOff[v+1]
		w.outOff[v+1] += w.outOff[v]
		w.inOff[v+1] += w.inOff[v]
	}
	w.outCur = append([]int32(nil), w.outOff[:nv]...)
	w.inCur = append([]int32(nil), w.inOff[:nv]...)
	w.outAdj = make([]int32, ne)
	w.inAdj = make([]int32, ne)
	for i, ed := range w.edges {
		w.outAdj[w.outCur[ed.From]] = int32(i)
		w.outCur[ed.From]++
		w.inAdj[w.inCur[ed.To]] = int32(i)
		w.inCur[ed.To]++
	}
	copy(w.outCur, w.outOff[:nv])
	copy(w.inCur, w.inOff[:nv])
	return w
}

// firstIncident returns v's first live outgoing edge, else its first
// live incoming edge, advancing v's cursors past consumed edges.
func (w *workSet) firstIncident(v graph.VertexID) (int32, bool) {
	if w.deg[v] == 0 {
		return 0, false
	}
	for c, end := w.outCur[v], w.outOff[v+1]; c < end; c++ {
		if e := w.outAdj[c]; w.alive[e] {
			w.outCur[v] = c
			return e, true
		}
	}
	w.outCur[v] = w.outOff[v+1]
	for c, end := w.inCur[v], w.inOff[v+1]; c < end; c++ {
		if e := w.inAdj[c]; w.alive[e] {
			w.inCur[v] = c
			return e, true
		}
	}
	w.inCur[v] = w.inOff[v+1]
	return 0, false
}

// consume marks edge e taken.
func (w *workSet) consume(e int32) {
	w.alive[e] = false
	w.numEdges--
	w.deg[w.edges[e].From]--
	w.deg[w.edges[e].To]--
}

// dropOrphans removes the vertices left with no live incident edge
// from live, keeping it ascending (the "orphaned vertex" cleanup step
// of Algorithm 2).
func (w *workSet) dropOrphans() {
	kept := w.live[:0]
	for _, v := range w.live {
		if w.deg[v] > 0 {
			kept = append(kept, v)
		}
	}
	w.live = kept
}

// extractOne pulls one subgraph of up to `budget` edges out of the
// work-set, consuming those edges. It implements the inner loops of
// Algorithm 2 for both orderings.
func (w *workSet) extractOne(budget int, strat Strategy, rng *rand.Rand) *graph.Graph {
	part := graph.New("")
	start, ok := w.randomVertexWithEdges(rng)
	if !ok {
		return part
	}
	w.epoch++
	// addVertex maps v into part, reporting whether it is new there.
	// A vertex joins the ordering structure when it is first mapped,
	// so "mapped" and "queued" coincide and share one stamp.
	addVertex := func(v graph.VertexID) (graph.VertexID, bool) {
		if w.stamp[v] == w.epoch {
			return w.partID[v], false
		}
		w.stamp[v] = w.epoch
		w.partID[v] = part.AddVertex(w.vlabel[v])
		return w.partID[v], true
	}

	// Ordering structure q: queue for breadth-first, stack for
	// depth-first.
	q, head := append(w.q[:0], start), 0
	edges := budget
	for edges > 0 && head < len(q) {
		var v graph.VertexID
		if strat == BreadthFirst {
			v = q[head]
			head++
		} else {
			v = q[len(q)-1]
			q = q[:len(q)-1]
		}
		pv, _ := addVertex(v)
		for edges > 0 {
			e, ok := w.firstIncident(v)
			if !ok {
				break
			}
			ed := w.edges[e]
			other := ed.From
			if ed.From == v {
				other = ed.To
			}
			po, fresh := addVertex(other)
			if ed.From == v {
				part.AddEdge(pv, po, ed.Label)
			} else {
				part.AddEdge(po, pv, ed.Label)
			}
			w.consume(e)
			edges--
			if fresh {
				q = append(q, other)
			}
		}
	}
	w.q = q
	return part
}

// randomVertexWithEdges picks a uniformly random vertex of live that
// has at least one live incident edge.
func (w *workSet) randomVertexWithEdges(rng *rand.Rand) (graph.VertexID, bool) {
	vs := w.live
	if len(vs) == 0 {
		return 0, false
	}
	// Try random probes first; fall back to a scan.
	for i := 0; i < 32; i++ {
		v := vs[rng.Intn(len(vs))]
		if w.deg[v] > 0 {
			return v, true
		}
	}
	for _, v := range vs {
		if w.deg[v] > 0 {
			return v, true
		}
	}
	return 0, false
}
