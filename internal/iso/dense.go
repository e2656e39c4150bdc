package iso

import (
	"tnkd/internal/graph"
)

// EmbeddingList holds embeddings of one pattern with NV vertices and
// NE edges inside a target graph, stride-packed in one pointer-free
// []int32. Row i is IDs[i*s:(i+1)*s] with s = NV+NE: its first NV
// entries are the target vertices matched by pattern vertices
// 0..NV-1, the remaining NE the target edges matched by pattern edges
// 0..NE-1. The vertex map is injective and the edge map
// edge-injective, so multigraph instances consume distinct parallel
// edges.
//
// It is the storage format of every embedding list (the matcher's
// results, one-edge extensions, the per-pattern lists of
// internal/pattern, decoded store records): a list of any length is
// one allocation the garbage collector never scans, instead of two
// slices per embedding.
type EmbeddingList struct {
	NV, NE int
	IDs    []int32
}

// NewEmbeddingList returns an empty list for embeddings of pattern.
func NewEmbeddingList(pattern *graph.Graph) EmbeddingList {
	return EmbeddingList{NV: pattern.NumVertices(), NE: pattern.NumEdges()}
}

// Stride is the number of IDs in one row.
func (l EmbeddingList) Stride() int { return l.NV + l.NE }

// Len is the number of embeddings in the list.
func (l EmbeddingList) Len() int {
	if s := l.Stride(); s > 0 {
		return len(l.IDs) / s
	}
	return 0
}

// At returns embedding i as a view into the list's IDs: no copy, valid
// until the list's IDs are next appended to or overwritten.
func (l EmbeddingList) At(i int) DenseEmbedding {
	row := l.IDs[i*l.Stride() : (i+1)*l.Stride() : (i+1)*l.Stride()]
	return DenseEmbedding{Verts: row[:l.NV:l.NV], Edges: row[l.NV:]}
}

// Rows returns embeddings [lo, hi) as a list sharing l's IDs.
func (l EmbeddingList) Rows(lo, hi int) EmbeddingList {
	s := l.Stride()
	return EmbeddingList{NV: l.NV, NE: l.NE, IDs: l.IDs[lo*s : hi*s : hi*s]}
}

// Append appends a copy of e, which must have NV vertices and NE
// edges.
func (l *EmbeddingList) Append(e DenseEmbedding) {
	l.IDs = append(append(l.IDs, e.Verts...), e.Edges...)
}

// Truncate keeps the first n embeddings.
func (l *EmbeddingList) Truncate(n int) { l.IDs = l.IDs[:n*l.Stride()] }

// appendExtended appends e grown by the new edge's target match te
// (and, when nv >= 0, the new vertex's): the new pattern vertex and
// edge carry the next dense IDs, so they close the vertex and edge
// runs.
func (l *EmbeddingList) appendExtended(e DenseEmbedding, nv graph.VertexID, te graph.EdgeID) {
	l.IDs = append(l.IDs, e.Verts...)
	if nv >= 0 {
		l.IDs = append(l.IDs, int32(nv))
	}
	l.IDs = append(append(l.IDs, e.Edges...), int32(te))
}

// DenseEmbedding is one embedding read from an EmbeddingList:
// Verts[pv] is the target vertex matched by pattern vertex pv,
// Edges[pe] the target edge matched by pattern edge pe. Both are
// views into the list's IDs, not copies.
type DenseEmbedding struct {
	Verts []int32
	Edges []int32
}

// UsesVertex reports whether tv is already matched by some pattern
// vertex. Pattern sides are tiny (a few dozen vertices at most), so a
// linear scan beats any hashing.
func (e DenseEmbedding) UsesVertex(tv graph.VertexID) bool {
	for _, v := range e.Verts {
		if graph.VertexID(v) == tv {
			return true
		}
	}
	return false
}

// UsesEdge reports whether te is already matched by some pattern
// edge.
func (e DenseEmbedding) UsesEdge(te graph.EdgeID) bool {
	for _, t := range e.Edges {
		if graph.EdgeID(t) == te {
			return true
		}
	}
	return false
}

// Embeddings enumerates the embeddings of pattern into target. The
// second result reports whether the search ran to completion (false
// when Options.MaxSteps aborted it, in which case the list may be
// incomplete). Callers searching one pattern against many targets
// should compile it once with NewMatcher instead.
func Embeddings(target, pattern *graph.Graph, opts Options) (EmbeddingList, bool) {
	out := NewEmbeddingList(pattern)
	completed := NewMatcher(pattern).Embeddings(target, opts, &out)
	return out, completed
}

// Extender enumerates the one-edge extensions of embeddings of a
// parent pattern into one target: given an embedding of the parent
// (child minus newEdge, minus the new endpoint if newEdge introduced
// one), Extend finds every way to extend it across newEdge. Because
// child was built from the parent by Clone (+AddVertex) +AddEdge, IDs
// are preserved, so a new endpoint is recognised by its ID lying
// beyond the parent's vertices. NewExtender resolves the new edge's
// label and the new endpoint's label in the target's index once, so
// extending each of the parent's embeddings costs no label lookup.
//
// Embeddings follow the matcher's semantics: one embedding per
// injective vertex map, with each pattern edge carrying the first
// compatible target edge as its witness — parallel duplicate target
// edges do not multiply embeddings. The child pattern must not repeat
// a (from, to, label) edge signature (FSG candidate generation never
// does), so the greedy witness choice is never lossy.
//
// This is the incremental step of FSG-style support counting: every
// embedding of child restricts to exactly one embedding of its
// parent, so extending a complete parent list yields the complete
// child list, each embedding exactly once.
type Extender struct {
	ix       *graph.Index
	from, to graph.VertexID
	fromNew  bool
	toNew    bool
	// label is the new edge's label ID and far the new endpoint's
	// vertex label ID (unused when both endpoints are mapped), both
	// in ix.
	label, far int32
}

// NewExtender prepares the extension of embeddings of child's parent,
// which has parentVerts vertices, into target across newEdge.
func NewExtender(target, child *graph.Graph, newEdge graph.EdgeID, parentVerts int) Extender {
	ed := child.Edge(newEdge)
	x := Extender{
		ix:      target.Index(),
		from:    ed.From,
		to:      ed.To,
		fromNew: int(ed.From) >= parentVerts,
		toNew:   int(ed.To) >= parentVerts,
	}
	x.label = x.ix.EdgeLabelID(ed.Label)
	switch {
	case x.toNew:
		x.far = x.ix.VertexLabelID(child.Vertex(ed.To).Label)
	case x.fromNew:
		x.far = x.ix.VertexLabelID(child.Vertex(ed.From).Label)
	}
	return x
}

// Extend appends the extensions of emb across the new edge to out,
// a list for the child pattern. limit > 0 stops once out holds that
// many embeddings (existence checks pass out.Len()+1).
func (x Extender) Extend(emb DenseEmbedding, limit int, out *EmbeddingList) {
	ix := x.ix
	switch {
	case !x.fromNew && !x.toNew:
		// New edge between mapped endpoints: the vertex map is already
		// fixed, so the first unused target edge on that lane with the
		// right label is the single witness.
		tt := graph.VertexID(emb.Verts[x.to])
		for _, te := range ix.Out(graph.VertexID(emb.Verts[x.from]), x.label).To(tt) {
			if !emb.UsesEdge(graph.EdgeID(te)) {
				out.appendExtended(emb, -1, graph.EdgeID(te))
				break
			}
		}
	case !x.fromNew:
		// New edge out of a mapped vertex to a new endpoint: one
		// extension per distinct compatible endpoint (first edge as
		// witness). A target edge into an unmapped vertex cannot
		// already be used (used edges connect mapped vertices), so
		// only injectivity and the endpoint label need checking.
		extendToNew(ix, ix.Out(graph.VertexID(emb.Verts[x.from]), x.label), x.far, emb, limit, out)
	case !x.toNew:
		// New edge into a mapped vertex from a new endpoint.
		extendToNew(ix, ix.In(graph.VertexID(emb.Verts[x.to]), x.label), x.far, emb, limit, out)
	}
	// Both endpoints new would mean a disconnected extension; one-edge
	// candidate generation never produces one.
}

// extendToNew appends to out one extension of emb per distinct far
// endpoint of run that carries vertex label want and is not yet
// mapped, in the run's order and witnessed by its lowest-ID edge,
// stopping once out holds limit embeddings (limit > 0).
func extendToNew(ix *graph.Index, run graph.Run, want int32, emb DenseEmbedding, limit int, out *EmbeddingList) {
	for i := range run.Len() {
		tv := run.End(i)
		if ix.VertexLabel(tv) != want || emb.UsesVertex(tv) {
			continue
		}
		out.appendExtended(emb, tv, graph.EdgeID(run.Edges(i)[0]))
		if limit > 0 && out.Len() >= limit {
			return
		}
	}
}

// GreedyNonOverlap returns the size of a maximal prefix-greedy subset
// of embs whose embeddings are pairwise vertex- and edge-disjoint —
// the "no overlap" instance count SUBDUE evaluates with.
func GreedyNonOverlap(embs EmbeddingList) int {
	usedV := make(map[int32]bool)
	usedE := make(map[int32]bool)
	n := 0
	for i := range embs.Len() {
		emb := embs.At(i)
		ok := true
		for _, tv := range emb.Verts {
			if usedV[tv] {
				ok = false
				break
			}
		}
		if ok {
			for _, te := range emb.Edges {
				if usedE[te] {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		for _, tv := range emb.Verts {
			usedV[tv] = true
		}
		for _, te := range emb.Edges {
			usedE[te] = true
		}
		n++
	}
	return n
}
