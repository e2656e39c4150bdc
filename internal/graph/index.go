package graph

// Index is the integer-label CSR view of a graph's live vertices and
// edges, the form the subgraph matcher searches over. Vertex and edge
// labels are interned to dense int32 IDs (per graph, in order of first
// appearance by ascending vertex/edge ID), so a label test is an
// integer compare. A vertex's label ID and live in/out degrees sit
// side by side, so a candidate filter reads one cache line.
//
// In each direction, the live edges of vertex v carrying label l form
// a Run, found in O(1) through a small open-addressed label table of
// v's own. A run is grouped by far endpoint: each distinct endpoint
// once, in order of its lowest edge ID, with its parallel edges in
// ascending ID order. A matcher step thus walks distinct candidates
// without deduplicating them, and reaches the edges between two placed
// vertices without scanning edges to other vertices. Memory is
// O(V+E) whatever the number of labels.
//
// An Index is built lazily by Graph.Index and dropped on any mutation;
// it is immutable once built and safe for concurrent readers. Every
// slice it returns is shared and must not be modified.
type Index struct {
	vertexLabels map[string]int32
	edgeLabels   map[string]int32
	verts        []vertexInfo // by vertex ID
	byLabel      [][]VertexID // vertex label ID -> live vertices, ascending
	out, in      adjacency
}

// vertexInfo is one vertex's label ID (NoLabel when tombstoned) and
// live degrees.
type vertexInfo struct {
	label, out, in int32
}

// NoLabel is the label ID of a label absent from the graph: it matches
// no vertex and selects no edges.
const NoLabel int32 = -1

// adjacency is one direction of the CSR index. A (vertex, label) run
// is a range of groups, each a far endpoint (the head of an out-edge,
// the tail of an in-edge) and its range of edges. Each vertex v owns a
// small open-addressed table slots[table[v]:table[v+1]] mapping its
// labels to its runs: a power of two larger than its run count, or
// empty when it has no runs, so a lookup is O(1) and touches only v's
// own slots.
type adjacency struct {
	table  []int32
	slots  []runSlot
	groups []group
	edges  []int32
}

// runSlot maps a label to groups[lo:hi]. Every run holds at least one
// group, so hi == 0 marks an empty slot.
type runSlot struct {
	label, lo, hi int32
}

// group is one far endpoint of a run and its edges edges[lo:hi].
type group struct {
	far, lo, hi int32
}

// Run is the live edges of one vertex with one label in one
// direction, grouped by far endpoint. The zero Run is empty.
type Run struct {
	a      *adjacency
	lo, hi int32 // a.groups[lo:hi]
}

// Len returns the number of distinct far endpoints.
func (r Run) Len() int { return int(r.hi - r.lo) }

// End returns the i-th far endpoint; endpoints come in order of their
// lowest edge ID.
func (r Run) End(i int) VertexID { return VertexID(r.a.groups[int(r.lo)+i].far) }

// Edges returns the IDs of the edges to the i-th endpoint, ascending.
func (r Run) Edges(i int) []int32 {
	g := r.a.groups[int(r.lo)+i]
	return r.a.edges[g.lo:g.hi:g.hi]
}

// To returns the IDs of the run's edges to w, ascending, or nil when
// there are none.
func (r Run) To(w VertexID) []int32 {
	for i := range r.Len() {
		if r.End(i) == w {
			return r.Edges(i)
		}
	}
	return nil
}

// Index returns g's CSR index, building it if needed.
func (g *Graph) Index() *Index {
	if ix := g.idx.Load(); ix != nil {
		return ix
	}
	ix := &Index{
		vertexLabels: make(map[string]int32),
		edgeLabels:   make(map[string]int32),
		verts:        make([]vertexInfo, len(g.vertices)),
	}
	for i, alive := range g.vertexAlive {
		if !alive {
			ix.verts[i].label = NoLabel
			continue
		}
		l := intern(ix.vertexLabels, g.vertices[i].Label)
		if int(l) == len(ix.byLabel) {
			ix.byLabel = append(ix.byLabel, nil)
		}
		ix.verts[i].label = l
		ix.byLabel[l] = append(ix.byLabel[l], VertexID(i))
	}
	live := make([]EdgeID, 0, g.numEdges)
	elabel := make([]int32, len(g.edges))
	for i, alive := range g.edgeAlive {
		if alive {
			live = append(live, EdgeID(i))
			elabel[i] = intern(ix.edgeLabels, g.edges[i].Label)
			ix.verts[g.edges[i].From].out++
			ix.verts[g.edges[i].To].in++
		}
	}
	ix.out = g.buildAdjacency(ix.verts, len(ix.edgeLabels), live, elabel, true)
	ix.in = g.buildAdjacency(ix.verts, len(ix.edgeLabels), live, elabel, false)
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
// edges. Two stable counting sorts — by edge label, then by owning
// vertex — leave each vertex's edges grouped by label ID and ascending
// by edge ID within a label; each such (vertex, label) run is then
// regrouped by far endpoint in first-occurrence order, which keeps
// every group ascending.
func (g *Graph) buildAdjacency(verts []vertexInfo, nl int, live []EdgeID, elabel []int32, out bool) adjacency {
	ends := func(e EdgeID) (owner, far VertexID) {
		if out {
			return g.edges[e].From, g.edges[e].To
		}
		return g.edges[e].To, g.edges[e].From
	}
	nv := len(verts)
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
	start := make([]int32, nv+1)
	for v, vi := range verts {
		deg := vi.in
		if out {
			deg = vi.out
		}
		start[v+1] = start[v] + deg
	}
	fill := append([]int32(nil), start[:nv]...)
	sorted := make([]EdgeID, len(live))
	for _, e := range byLabel {
		v, _ := ends(e)
		sorted[fill[v]] = e
		fill[v]++
	}

	// runEnd returns the end of the run starting at sorted[i], which
	// belongs to vertex v.
	runEnd := func(v, i int32) int32 {
		j := i + 1
		for j < start[v+1] && elabel[sorted[j]] == elabel[sorted[i]] {
			j++
		}
		return j
	}
	// member[w] is w's group number within the current run, -1
	// outside it.
	member := make([]int32, nv)
	for i := range member {
		member[i] = -1
	}
	// Count the runs and groups to size the tables and the packing.
	table := make([]int32, nv+1)
	ngroups := 0
	for v := int32(0); v < int32(nv); v++ {
		runs := int32(0)
		for i := start[v]; i < start[v+1]; {
			j := runEnd(v, i)
			runs++
			for _, e := range sorted[i:j] {
				if _, w := ends(e); member[w] < 0 {
					member[w] = 0
					ngroups++
				}
			}
			for _, e := range sorted[i:j] {
				_, w := ends(e)
				member[w] = -1
			}
			i = j
		}
		size := int32(0)
		if runs > 0 {
			size = 2
			for size <= runs {
				size *= 2
			}
		}
		table[v+1] = table[v] + size
	}
	a := adjacency{
		table:  table,
		slots:  make([]runSlot, table[nv]),
		groups: make([]group, 0, ngroups),
		edges:  make([]int32, len(live)),
	}
	// next[k] is where the current run's k-th group packs its next edge.
	var next []int32
	at := int32(0)
	for v := int32(0); v < int32(nv); v++ {
		tab := a.slots[table[v]:table[v+1]]
		for i := start[v]; i < start[v+1]; {
			j := runEnd(v, i)
			lo := int32(len(a.groups))
			for _, e := range sorted[i:j] {
				_, w := ends(e)
				if member[w] < 0 {
					member[w] = int32(len(a.groups)) - lo
					a.groups = append(a.groups, group{far: int32(w)})
				}
				a.groups[lo+member[w]].hi++ // the count until packed
			}
			next = next[:0]
			for k := range a.groups[lo:] {
				gr := &a.groups[lo+int32(k)]
				gr.lo = at
				next = append(next, at)
				at += gr.hi
				gr.hi = at
			}
			for _, e := range sorted[i:j] {
				_, w := ends(e)
				k := member[w]
				a.edges[next[k]] = int32(e)
				next[k]++
			}
			for _, gr := range a.groups[lo:] {
				member[gr.far] = -1
			}
			insertRun(tab, runSlot{label: elabel[sorted[i]], lo: lo, hi: int32(len(a.groups))})
			i = j
		}
	}
	return a
}

// insertRun adds a run to a vertex's table, which has a free slot by
// construction.
func insertRun(tab []runSlot, s runSlot) {
	mask := int32(len(tab) - 1)
	i := s.label & mask
	for tab[i].hi != 0 {
		i = (i + 1) & mask
	}
	tab[i] = s
}

// run returns v's run with label l (empty when there is none).
func (a *adjacency) run(v VertexID, l int32) Run {
	tab := a.slots[a.table[v]:a.table[v+1]]
	if len(tab) == 0 {
		return Run{}
	}
	mask := int32(len(tab) - 1)
	for i := l & mask; ; i = (i + 1) & mask {
		s := tab[i]
		if s.hi == 0 {
			return Run{}
		}
		if s.label == l {
			return Run{a: a, lo: s.lo, hi: s.hi}
		}
	}
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
func (ix *Index) VertexLabel(v VertexID) int32 { return ix.verts[v].label }

// WithLabel returns the live vertices with label ID l, ascending.
func (ix *Index) WithLabel(l int32) []VertexID {
	if l < 0 || int(l) >= len(ix.byLabel) {
		return nil
	}
	return ix.byLabel[l]
}

// Out returns the run of v's live outgoing edges with label ID l,
// grouped by head.
func (ix *Index) Out(v VertexID, l int32) Run { return ix.out.run(v, l) }

// In returns the run of v's live incoming edges with label ID l,
// grouped by tail.
func (ix *Index) In(v VertexID, l int32) Run { return ix.in.run(v, l) }

// OutDegree returns the number of live outgoing edges of v.
func (ix *Index) OutDegree(v VertexID) int { return int(ix.verts[v].out) }

// InDegree returns the number of live incoming edges of v.
func (ix *Index) InDegree(v VertexID) int { return int(ix.verts[v].in) }
