// Package bruteforce is an exact, exponential-time frequent-subgraph
// miner used as a test oracle for the FSG reimplementation: it
// enumerates every connected subgraph of every transaction up to a
// size bound, canonicalises each, and counts per-transaction support
// directly. Its output is ground truth; internal/fsg must match it on
// small inputs.
package bruteforce

import (
	"sort"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
)

// Pattern is a frequent subgraph with exact support and the
// ascending indexes of the transactions that contain it.
type Pattern struct {
	Graph   *graph.Graph
	Code    string
	Support int
	TIDs    []int
}

// Mine returns all connected subgraph patterns with at most maxEdges
// edges occurring in at least minSupport transactions, sorted by code.
func Mine(txns []*graph.Graph, minSupport, maxEdges int) []Pattern {
	tids := make(map[string][]int)
	rep := make(map[string]*graph.Graph)
	for ti, t := range txns {
		for code, sub := range connectedSubgraphs(t, maxEdges) {
			tids[code] = append(tids[code], ti)
			if _, ok := rep[code]; !ok {
				rep[code] = sub
			}
		}
	}
	var out []Pattern
	for code, ts := range tids {
		if len(ts) >= minSupport {
			out = append(out, Pattern{Graph: rep[code], Code: code, Support: len(ts), TIDs: ts})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// connectedSubgraphs enumerates the distinct (up to isomorphism)
// connected subgraphs of t with 1..maxEdges edges, keyed by canonical
// code. Distinctness is per transaction: each isomorphism class
// counts once regardless of how many embeddings exist.
func connectedSubgraphs(t *graph.Graph, maxEdges int) map[string]*graph.Graph {
	found := make(map[string]*graph.Graph)
	// Grow connected edge sets from every starting edge; dedup edge
	// sets via a bitmask-ish key over sorted edge ids.
	type state struct {
		set []graph.EdgeID
	}
	seenSet := make(map[string]bool)
	setKey := func(set []graph.EdgeID) string {
		ids := make([]int, len(set))
		for i, e := range set {
			ids[i] = int(e)
		}
		sort.Ints(ids)
		b := make([]byte, 0, len(ids)*3)
		for _, id := range ids {
			b = append(b, byte(id), byte(id>>8), ',')
		}
		return string(b)
	}
	record := func(set []graph.EdgeID) {
		sub := subgraphFromEdges(t, set)
		code := iso.Code(sub)
		if _, ok := found[code]; !ok {
			found[code] = sub
		}
	}
	var queue []state
	for e := range graph.EdgeID(t.NumEdges()) {
		s := state{set: []graph.EdgeID{e}}
		k := setKey(s.set)
		if !seenSet[k] {
			seenSet[k] = true
			queue = append(queue, s)
			record(s.set)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if len(cur.set) == maxEdges {
			continue
		}
		// Vertices touched by the current set.
		touched := make(map[graph.VertexID]bool)
		inSet := make(map[graph.EdgeID]bool)
		for _, e := range cur.set {
			ed := t.Edge(e)
			touched[ed.From] = true
			touched[ed.To] = true
			inSet[e] = true
		}
		for v := range touched {
			for _, e := range append(t.OutEdges(v), t.InEdges(v)...) {
				if inSet[e] {
					continue
				}
				next := append(append([]graph.EdgeID{}, cur.set...), e)
				k := setKey(next)
				if seenSet[k] {
					continue
				}
				seenSet[k] = true
				queue = append(queue, state{set: next})
				record(next)
			}
		}
	}
	return found
}

// subgraphFromEdges builds the compact subgraph induced by an edge set.
func subgraphFromEdges(t *graph.Graph, set []graph.EdgeID) *graph.Graph {
	sub := graph.New("sub")
	remap := make(map[graph.VertexID]graph.VertexID)
	vtx := func(v graph.VertexID) graph.VertexID {
		if id, ok := remap[v]; ok {
			return id
		}
		id := sub.AddVertex(t.Vertex(v).Label)
		remap[v] = id
		return id
	}
	ids := make([]int, len(set))
	for i, e := range set {
		ids[i] = int(e)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ed := t.Edge(graph.EdgeID(id))
		sub.AddEdge(vtx(ed.From), vtx(ed.To), ed.Label)
	}
	return sub
}
