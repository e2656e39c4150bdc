// Package graph implements the labeled directed multigraph used to
// model transportation networks: vertices are locations (origins and
// destinations), edges are shipments from origin to destination, and
// both carry string labels. Multiple edges between the same ordered
// vertex pair represent repeated shipments on the same lane.
//
// The representation follows Section 3 of Jiang et al. (ICDE 2005):
// the six-month origin–destination dataset forms one large directed
// multigraph whose edge labels come from binned shipment attributes
// (gross weight, transit hours, or total distance).
package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// VertexID identifies a vertex within a Graph: its position in
// insertion order, so a graph's vertex IDs are exactly
// 0..NumVertices()-1 and ranging over VertexID(g.NumVertices()) visits
// every vertex.
type VertexID int

// EdgeID identifies an edge within a Graph, a position like VertexID.
type EdgeID int

// Vertex is a labeled graph vertex.
type Vertex struct {
	Label string
}

// Edge is a labeled directed edge from From to To.
type Edge struct {
	From  VertexID
	To    VertexID
	Label string
}

// Graph is an append-only labeled directed multigraph: vertices and
// edges are added, never removed, so IDs stay dense. The zero value is
// not ready to use; call New.
type Graph struct {
	// Name identifies the graph in reports (e.g. "OD_GW").
	Name string

	vertices []Vertex
	edges    []Edge

	out [][]EdgeID // per-vertex outgoing edge IDs
	in  [][]EdgeID // per-vertex incoming edge IDs

	// idx caches the integer-label CSR index (see Index). It is built
	// lazily on first use and dropped on any addition. The pointer is
	// atomic so concurrent read-only users (parallel mining workers)
	// can share one graph: racing builders construct identical
	// indices, and whichever Store lands last wins.
	idx atomic.Pointer[Index]
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddVertex adds a vertex with the given label and returns its ID.
func (g *Graph) AddVertex(label string) VertexID {
	id := VertexID(len(g.vertices))
	g.vertices = append(g.vertices, Vertex{Label: label})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.invalidateIdx()
	return id
}

// AddEdge adds a directed edge from -> to with the given label and
// returns its ID. Both endpoints must exist.
func (g *Graph) AddEdge(from, to VertexID, label string) EdgeID {
	if !g.HasVertex(from) || !g.HasVertex(to) {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) with missing endpoint", from, to))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{From: from, To: to, Label: label})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.invalidateIdx()
	return id
}

// HasVertex reports whether id is a vertex ID of g.
func (g *Graph) HasVertex(id VertexID) bool {
	return id >= 0 && int(id) < len(g.vertices)
}

// HasEdge reports whether id is an edge ID of g.
func (g *Graph) HasEdge(id EdgeID) bool {
	return id >= 0 && int(id) < len(g.edges)
}

// Vertex returns the vertex with the given ID. It panics if the
// vertex does not exist.
func (g *Graph) Vertex(id VertexID) Vertex { return g.vertices[id] }

// Edge returns the edge with the given ID. It panics if the edge does
// not exist.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// OutEdges returns the outgoing edge IDs of v in ascending order. The
// slice is shared and must not be modified.
func (g *Graph) OutEdges(v VertexID) []EdgeID { return slices.Clip(g.out[v]) }

// InEdges returns the incoming edge IDs of v in ascending order. The
// slice is shared and must not be modified.
func (g *Graph) InEdges(v VertexID) []EdgeID { return slices.Clip(g.in[v]) }

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v VertexID) int { return len(g.out[v]) }

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v VertexID) int { return len(g.in[v]) }

// Degree returns InDegree(v) + OutDegree(v).
func (g *Graph) Degree(v VertexID) int { return g.InDegree(v) + g.OutDegree(v) }

// Clone returns a deep copy of g with the same IDs.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:     g.Name,
		vertices: slices.Clone(g.vertices),
		edges:    slices.Clone(g.edges),
		out:      make([][]EdgeID, len(g.out)),
		in:       make([][]EdgeID, len(g.in)),
	}
	for i := range g.out {
		c.out[i] = slices.Clone(g.out[i])
		c.in[i] = slices.Clone(g.in[i])
	}
	return c
}

// InducedSubgraph returns a new graph containing the given vertices,
// renumbered in ascending order of their IDs in g, and every edge whose
// endpoints are both in the set.
func (g *Graph) InducedSubgraph(name string, vs []VertexID) *Graph {
	keep := make(map[VertexID]bool, len(vs))
	for _, v := range vs {
		if g.HasVertex(v) {
			keep[v] = true
		}
	}
	sub := New(name)
	remap := make(map[VertexID]VertexID, len(keep))
	sorted := make([]VertexID, 0, len(keep))
	for v := range keep {
		sorted = append(sorted, v)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, v := range sorted {
		remap[v] = sub.AddVertex(g.vertices[v].Label)
	}
	for _, ed := range g.edges {
		if keep[ed.From] && keep[ed.To] {
			sub.AddEdge(remap[ed.From], remap[ed.To], ed.Label)
		}
	}
	return sub
}

// Neighbors returns the distinct vertices adjacent to v in either
// direction, in ascending order.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	seen := make(map[VertexID]bool)
	for _, id := range g.out[v] {
		seen[g.edges[id].To] = true
	}
	for _, id := range g.in[v] {
		seen[g.edges[id].From] = true
	}
	delete(seen, v)
	res := make([]VertexID, 0, len(seen))
	for u := range seen {
		res = append(res, u)
	}
	sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
	return res
}

// VertexLabels returns the distinct vertex labels in g.
func (g *Graph) VertexLabels() []string {
	set := make(map[string]bool)
	for _, v := range g.vertices {
		set[v.Label] = true
	}
	return sortedKeys(set)
}

// EdgeLabels returns the distinct edge labels in g.
func (g *Graph) EdgeLabels() []string {
	set := make(map[string]bool)
	for _, e := range g.edges {
		set[e.Label] = true
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String returns a compact one-line summary of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("%s{V=%d, E=%d}", g.Name, len(g.vertices), len(g.edges))
}

// Dump renders the graph as an adjacency listing, one edge per line,
// suitable for debugging and for reproducing the paper's figures in
// text form.
func (g *Graph) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s: %d vertices, %d edges\n", g.Name, len(g.vertices), len(g.edges))
	for _, ed := range g.edges {
		fmt.Fprintf(&b, "  v%d(%s) -[%s]-> v%d(%s)\n",
			ed.From, g.vertices[ed.From].Label, ed.Label, ed.To, g.vertices[ed.To].Label)
	}
	return b.String()
}
