package graph

// Index is the integer-label CSR view of a graph's live vertices and
// edges, the form the subgraph matcher searches over. Vertex and edge
// labels are interned to dense int32 IDs (per graph, in order of first
// appearance by ascending vertex/edge ID), so a label test is an
// integer compare and a labeled adjacency lookup is a short scan of a
// vertex's label runs instead of a string-keyed map probe. Live
// in/out degrees are precomputed.
//
// An Index is built lazily by Graph.Index and dropped on any mutation;
// it is immutable once built and safe for concurrent readers. Every
// slice it returns is shared and must not be modified.
type Index struct {
	vertexLabels map[string]int32
	edgeLabels   map[string]int32
	vlabel       []int32      // vertex ID -> label ID (NoLabel when tombstoned)
	byLabel      [][]VertexID // vertex label ID -> live vertices, ascending
	out, in      adjacency
}

// NoLabel is the label ID of a label absent from the graph: it matches
// no vertex and selects no edges.
const NoLabel int32 = -1

// adjacency is one direction of the CSR index. The live edges of
// vertex v are grouped into runs of equal edge label, ordered by label
// ID, each run in ascending edge-ID order: runs[first[v]:first[v+1]].
// ends[i] is the far endpoint of edges[i] (the head of an out-edge,
// the tail of an in-edge), so a scan never dereferences an Edge.
type adjacency struct {
	first  []int32
	runs   []labelRun
	edges  []EdgeID
	ends   []VertexID
	degree []int32
}

// labelRun is edges[start:end] of one vertex, all carrying label.
type labelRun struct {
	label, start, end int32
}

// Index returns g's CSR index, building it if needed.
func (g *Graph) Index() *Index {
	if ix := g.idx.Load(); ix != nil {
		return ix
	}
	ix := &Index{
		vertexLabels: make(map[string]int32),
		edgeLabels:   make(map[string]int32),
		vlabel:       make([]int32, len(g.vertices)),
	}
	for i, alive := range g.vertexAlive {
		if !alive {
			ix.vlabel[i] = NoLabel
			continue
		}
		l := intern(ix.vertexLabels, g.vertices[i].Label)
		if int(l) == len(ix.byLabel) {
			ix.byLabel = append(ix.byLabel, nil)
		}
		ix.vlabel[i] = l
		ix.byLabel[l] = append(ix.byLabel[l], VertexID(i))
	}
	live := make([]EdgeID, 0, g.numEdges)
	elabel := make([]int32, len(g.edges))
	for i, alive := range g.edgeAlive {
		if alive {
			live = append(live, EdgeID(i))
			elabel[i] = intern(ix.edgeLabels, g.edges[i].Label)
		}
	}
	ix.out = g.buildAdjacency(len(ix.edgeLabels), live, elabel, true)
	ix.in = g.buildAdjacency(len(ix.edgeLabels), live, elabel, false)
	g.idx.Store(ix)
	return ix
}

// invalidateIdx drops the cached index after a mutation. It loads
// first so graphs that never built an index (the common case while a
// graph is being constructed) skip the write-barriered pointer store.
func (g *Graph) invalidateIdx() {
	if g.idx.Load() != nil {
		g.idx.Store(nil)
	}
}

func intern(ids map[string]int32, label string) int32 {
	if id, ok := ids[label]; ok {
		return id
	}
	id := int32(len(ids))
	ids[label] = id
	return id
}

// buildAdjacency lays out the out (or in) direction over the live
// edges with two stable counting sorts — by edge label, then by owning
// vertex — so each vertex's edges come out grouped by label ID and
// ascending by edge ID within a label.
func (g *Graph) buildAdjacency(nl int, live []EdgeID, elabel []int32, out bool) adjacency {
	ends := func(e EdgeID) (owner, far VertexID) {
		if out {
			return g.edges[e].From, g.edges[e].To
		}
		return g.edges[e].To, g.edges[e].From
	}
	nv := len(g.vertices)
	pos := make([]int32, nl+1)
	for _, e := range live {
		pos[elabel[e]+1]++
	}
	for l := 1; l <= nl; l++ {
		pos[l] += pos[l-1]
	}
	byLabel := make([]EdgeID, len(live))
	for _, e := range live {
		byLabel[pos[elabel[e]]] = e
		pos[elabel[e]]++
	}

	a := adjacency{
		first:  make([]int32, nv+1),
		edges:  make([]EdgeID, len(live)),
		ends:   make([]VertexID, len(live)),
		degree: make([]int32, nv),
	}
	for _, e := range live {
		v, _ := ends(e)
		a.degree[v]++
	}
	start := make([]int32, nv+1)
	for v := 0; v < nv; v++ {
		start[v+1] = start[v] + a.degree[v]
	}
	fill := append([]int32(nil), start[:nv]...)
	for _, e := range byLabel {
		v, far := ends(e)
		a.edges[fill[v]] = e
		a.ends[fill[v]] = far
		fill[v]++
	}
	for v := 0; v < nv; v++ {
		a.first[v] = int32(len(a.runs))
		for i := start[v]; i < start[v+1]; i++ {
			l := elabel[a.edges[i]]
			if i == start[v] || l != a.runs[len(a.runs)-1].label {
				a.runs = append(a.runs, labelRun{label: l, start: i, end: i})
			}
			a.runs[len(a.runs)-1].end++
		}
	}
	a.first[nv] = int32(len(a.runs))
	return a
}

// run returns v's edges carrying label l with their far endpoints, or
// nils when there are none. Slices are capped so an append by the
// caller cannot overwrite a neighbouring run.
func (a *adjacency) run(v VertexID, l int32) ([]EdgeID, []VertexID) {
	for _, r := range a.runs[a.first[v]:a.first[v+1]] {
		if r.label == l {
			return a.edges[r.start:r.end:r.end], a.ends[r.start:r.end:r.end]
		}
		if r.label > l {
			break
		}
	}
	return nil, nil
}

// VertexLabelID returns the interned ID of a vertex label, or NoLabel
// when no live vertex carries it.
func (ix *Index) VertexLabelID(label string) int32 {
	if id, ok := ix.vertexLabels[label]; ok {
		return id
	}
	return NoLabel
}

// EdgeLabelID returns the interned ID of an edge label, or NoLabel
// when no live edge carries it.
func (ix *Index) EdgeLabelID(label string) int32 {
	if id, ok := ix.edgeLabels[label]; ok {
		return id
	}
	return NoLabel
}

// VertexLabel returns the label ID of live vertex v.
func (ix *Index) VertexLabel(v VertexID) int32 { return ix.vlabel[v] }

// WithLabel returns the live vertices with label ID l, ascending.
func (ix *Index) WithLabel(l int32) []VertexID {
	if l < 0 || int(l) >= len(ix.byLabel) {
		return nil
	}
	return ix.byLabel[l]
}

// Out returns the live outgoing edges of v with label ID l, ascending,
// and their heads.
func (ix *Index) Out(v VertexID, l int32) ([]EdgeID, []VertexID) { return ix.out.run(v, l) }

// In returns the live incoming edges of v with label ID l, ascending,
// and their tails.
func (ix *Index) In(v VertexID, l int32) ([]EdgeID, []VertexID) { return ix.in.run(v, l) }

// OutDegree returns the number of live outgoing edges of v.
func (ix *Index) OutDegree(v VertexID) int { return int(ix.out.degree[v]) }

// InDegree returns the number of live incoming edges of v.
func (ix *Index) InDegree(v VertexID) int { return int(ix.in.degree[v]) }
