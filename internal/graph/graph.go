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
	"sort"
	"strings"
	"sync/atomic"
)

// VertexID identifies a vertex within a Graph. IDs are assigned
// densely from zero in insertion order and are stable for the life of
// the graph (removal tombstones the slot rather than renumbering).
type VertexID int

// EdgeID identifies an edge within a Graph, assigned like VertexIDs.
type EdgeID int

// Vertex is a labeled graph vertex.
type Vertex struct {
	ID    VertexID
	Label string
}

// Edge is a labeled directed edge from From to To.
type Edge struct {
	ID    EdgeID
	From  VertexID
	To    VertexID
	Label string
}

// Graph is a mutable labeled directed multigraph. The zero value is
// not ready to use; call New.
type Graph struct {
	// Name identifies the graph in reports (e.g. "OD_GW").
	Name string

	vertices []Vertex
	edges    []Edge

	vertexAlive []bool
	edgeAlive   []bool

	out [][]EdgeID // per-vertex outgoing edge IDs
	in  [][]EdgeID // per-vertex incoming edge IDs

	numVertices int
	numEdges    int

	// idx caches the integer-label CSR index (see Index). It is built
	// lazily on first use and dropped on any mutation. The pointer is
	// atomic so concurrent read-only users (parallel mining workers)
	// can share one graph: racing builders construct identical
	// indices, and whichever Store lands last wins.
	idx atomic.Pointer[Index]
}

// VertexCap returns an exclusive upper bound on vertex IDs in g
// (tombstoned slots included), for sizing dense per-vertex arrays.
func (g *Graph) VertexCap() int { return len(g.vertices) }

// EdgeCap returns an exclusive upper bound on edge IDs in g
// (tombstoned slots included), for sizing dense per-edge arrays.
func (g *Graph) EdgeCap() int { return len(g.edges) }

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddVertex adds a vertex with the given label and returns its ID.
func (g *Graph) AddVertex(label string) VertexID {
	id := VertexID(len(g.vertices))
	g.vertices = append(g.vertices, Vertex{ID: id, Label: label})
	g.vertexAlive = append(g.vertexAlive, true)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.numVertices++
	g.invalidateIdx()
	return id
}

// AddEdge adds a directed edge from -> to with the given label and
// returns its ID. Both endpoints must exist and be alive.
func (g *Graph) AddEdge(from, to VertexID, label string) EdgeID {
	if !g.HasVertex(from) || !g.HasVertex(to) {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) with missing endpoint", from, to))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Label: label})
	g.edgeAlive = append(g.edgeAlive, true)
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.numEdges++
	g.invalidateIdx()
	return id
}

// HasVertex reports whether id refers to a live vertex.
func (g *Graph) HasVertex(id VertexID) bool {
	return id >= 0 && int(id) < len(g.vertices) && g.vertexAlive[id]
}

// HasEdge reports whether id refers to a live edge.
func (g *Graph) HasEdge(id EdgeID) bool {
	return id >= 0 && int(id) < len(g.edges) && g.edgeAlive[id]
}

// Vertex returns the vertex with the given ID. It panics if the
// vertex does not exist or has been removed.
func (g *Graph) Vertex(id VertexID) Vertex {
	if !g.HasVertex(id) {
		panic(fmt.Sprintf("graph: Vertex(%d) missing", id))
	}
	return g.vertices[id]
}

// Edge returns the edge with the given ID. It panics if the edge does
// not exist or has been removed.
func (g *Graph) Edge(id EdgeID) Edge {
	if !g.HasEdge(id) {
		panic(fmt.Sprintf("graph: Edge(%d) missing", id))
	}
	return g.edges[id]
}

// NumVertices returns the number of live vertices.
func (g *Graph) NumVertices() int { return g.numVertices }

// NumEdges returns the number of live edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Vertices returns the IDs of all live vertices in ascending order.
func (g *Graph) Vertices() []VertexID {
	ids := make([]VertexID, 0, g.numVertices)
	for i, alive := range g.vertexAlive {
		if alive {
			ids = append(ids, VertexID(i))
		}
	}
	return ids
}

// Edges returns the IDs of all live edges in ascending order.
func (g *Graph) Edges() []EdgeID {
	ids := make([]EdgeID, 0, g.numEdges)
	for i, alive := range g.edgeAlive {
		if alive {
			ids = append(ids, EdgeID(i))
		}
	}
	return ids
}

// OutEdges returns the live outgoing edge IDs of v.
func (g *Graph) OutEdges(v VertexID) []EdgeID {
	return g.liveEdges(g.out[v])
}

// InEdges returns the live incoming edge IDs of v.
func (g *Graph) InEdges(v VertexID) []EdgeID {
	return g.liveEdges(g.in[v])
}

func (g *Graph) liveEdges(ids []EdgeID) []EdgeID {
	res := make([]EdgeID, 0, len(ids))
	for _, id := range ids {
		if g.edgeAlive[id] {
			res = append(res, id)
		}
	}
	return res
}

// OutDegree returns the number of live outgoing edges of v.
func (g *Graph) OutDegree(v VertexID) int {
	n := 0
	for _, id := range g.out[v] {
		if g.edgeAlive[id] {
			n++
		}
	}
	return n
}

// InDegree returns the number of live incoming edges of v.
func (g *Graph) InDegree(v VertexID) int {
	n := 0
	for _, id := range g.in[v] {
		if g.edgeAlive[id] {
			n++
		}
	}
	return n
}

// Degree returns InDegree(v) + OutDegree(v).
func (g *Graph) Degree(v VertexID) int { return g.InDegree(v) + g.OutDegree(v) }

// RemoveEdge removes the edge with the given ID. Removing an already
// removed edge is a no-op.
func (g *Graph) RemoveEdge(id EdgeID) {
	if !g.HasEdge(id) {
		return
	}
	g.edgeAlive[id] = false
	g.numEdges--
	g.invalidateIdx()
}

// RemoveVertex removes v and all edges incident on it.
func (g *Graph) RemoveVertex(v VertexID) {
	if !g.HasVertex(v) {
		return
	}
	for _, id := range g.out[v] {
		g.RemoveEdge(id)
	}
	for _, id := range g.in[v] {
		g.RemoveEdge(id)
	}
	g.vertexAlive[v] = false
	g.numVertices--
	g.invalidateIdx()
}

// RemoveOrphans removes all vertices with no live incident edges.
// It returns the number of vertices removed. This is the "orphaned
// vertex" cleanup step of Algorithm 2 in the paper.
func (g *Graph) RemoveOrphans() int {
	removed := 0
	for i, alive := range g.vertexAlive {
		if alive && g.Degree(VertexID(i)) == 0 {
			g.vertexAlive[i] = false
			g.numVertices--
			removed++
		}
	}
	if removed > 0 {
		g.invalidateIdx()
	}
	return removed
}

// Clone returns a deep copy of g, preserving IDs (including
// tombstoned slots).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:        g.Name,
		vertices:    append([]Vertex(nil), g.vertices...),
		edges:       append([]Edge(nil), g.edges...),
		vertexAlive: append([]bool(nil), g.vertexAlive...),
		edgeAlive:   append([]bool(nil), g.edgeAlive...),
		out:         make([][]EdgeID, len(g.out)),
		in:          make([][]EdgeID, len(g.in)),
		numVertices: g.numVertices,
		numEdges:    g.numEdges,
	}
	for i := range g.out {
		c.out[i] = append([]EdgeID(nil), g.out[i]...)
		c.in[i] = append([]EdgeID(nil), g.in[i]...)
	}
	return c
}

// Compact returns a copy of g with dense IDs: tombstoned vertices and
// edges are dropped and the remainder renumbered in ascending order of
// their old IDs. The returned map gives old→new vertex IDs.
func (g *Graph) Compact() (*Graph, map[VertexID]VertexID) {
	c := New(g.Name)
	remap := make(map[VertexID]VertexID, g.numVertices)
	for _, v := range g.Vertices() {
		remap[v] = c.AddVertex(g.vertices[v].Label)
	}
	for _, e := range g.Edges() {
		ed := g.edges[e]
		c.AddEdge(remap[ed.From], remap[ed.To], ed.Label)
	}
	return c, remap
}

// InducedSubgraph returns a new compact graph containing the given
// vertices and every live edge whose endpoints are both in the set.
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
	for _, e := range g.Edges() {
		ed := g.edges[e]
		if keep[ed.From] && keep[ed.To] {
			sub.AddEdge(remap[ed.From], remap[ed.To], ed.Label)
		}
	}
	return sub
}

// Neighbors returns the distinct live vertices adjacent to v in
// either direction, in ascending order.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	seen := make(map[VertexID]bool)
	for _, id := range g.out[v] {
		if g.edgeAlive[id] {
			seen[g.edges[id].To] = true
		}
	}
	for _, id := range g.in[v] {
		if g.edgeAlive[id] {
			seen[g.edges[id].From] = true
		}
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
	for _, v := range g.Vertices() {
		set[g.vertices[v].Label] = true
	}
	return sortedKeys(set)
}

// EdgeLabels returns the distinct edge labels in g.
func (g *Graph) EdgeLabels() []string {
	set := make(map[string]bool)
	for _, e := range g.Edges() {
		set[g.edges[e].Label] = true
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
	return fmt.Sprintf("%s{V=%d, E=%d}", g.Name, g.numVertices, g.numEdges)
}

// Dump renders the graph as an adjacency listing, one edge per line,
// suitable for debugging and for reproducing the paper's figures in
// text form.
func (g *Graph) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s: %d vertices, %d edges\n", g.Name, g.numVertices, g.numEdges)
	for _, e := range g.Edges() {
		ed := g.edges[e]
		fmt.Fprintf(&b, "  v%d(%s) -[%s]-> v%d(%s)\n",
			ed.From, g.vertices[ed.From].Label, ed.Label, ed.To, g.vertices[ed.To].Label)
	}
	return b.String()
}
