package iso

import (
	"tnkd/internal/graph"
)

// DenseEmbedding records one occurrence of a pattern with dense IDs
// (every vertex ID in [0, NumVertices) and every edge ID in
// [0, NumEdges), which holds for all pattern graphs built by
// Clone+AddVertex+AddEdge) inside a target graph: Verts[pv] is the
// target vertex matched by pattern vertex pv, Edges[pe] the target
// edge matched by pattern edge pe. The vertex map is injective and the
// edge map edge-injective, so multigraph instances consume distinct
// parallel edges. It is also the storage format of the embedding lists
// in internal/pattern — two small slices, so storing and extending
// hundreds of thousands of embeddings stays cheap.
type DenseEmbedding struct {
	Verts []graph.VertexID
	Edges []graph.EdgeID
}

// UsesVertex reports whether tv is already matched by some pattern
// vertex. Pattern sides are tiny (a few dozen vertices at most), so a
// linear scan beats any hashing.
func (e DenseEmbedding) UsesVertex(tv graph.VertexID) bool {
	for _, v := range e.Verts {
		if v == tv {
			return true
		}
	}
	return false
}

// UsesEdge reports whether te is already matched by some pattern
// edge.
func (e DenseEmbedding) UsesEdge(te graph.EdgeID) bool {
	for _, t := range e.Edges {
		if t == te {
			return true
		}
	}
	return false
}

// Clone returns a deep copy with room for one more vertex and edge
// (the one-edge extension growth pattern).
func (e DenseEmbedding) Clone() DenseEmbedding {
	verts := make([]graph.VertexID, len(e.Verts), len(e.Verts)+1)
	copy(verts, e.Verts)
	edges := make([]graph.EdgeID, len(e.Edges), len(e.Edges)+1)
	copy(edges, e.Edges)
	return DenseEmbedding{Verts: verts, Edges: edges}
}

// extended returns a copy of e grown by the new edge's target match
// (and, when nv >= 0, the new vertex's).
func (e DenseEmbedding) extended(nv graph.VertexID, te graph.EdgeID) DenseEmbedding {
	c := e.Clone()
	if nv >= 0 {
		c.Verts = append(c.Verts, nv)
	}
	c.Edges = append(c.Edges, te)
	return c
}

// Embeddings enumerates the embeddings of pattern into target. The
// pattern must have dense IDs. The second result reports whether the
// search ran to completion (false when Options.MaxSteps aborted it, in
// which case the list may be incomplete). Callers searching one
// pattern against many targets should compile it once with NewMatcher
// instead.
func Embeddings(target, pattern *graph.Graph, opts Options) ([]DenseEmbedding, bool) {
	return NewMatcher(pattern).Embeddings(target, opts)
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

// Extend appends the extensions of emb across the new edge to out.
// limit > 0 stops once out holds that many embeddings (existence
// checks pass 1).
func (x Extender) Extend(emb DenseEmbedding, limit int, out []DenseEmbedding) []DenseEmbedding {
	ix := x.ix
	switch {
	case !x.fromNew && !x.toNew:
		// New edge between mapped endpoints: the vertex map is already
		// fixed, so the first unused target edge on that lane with the
		// right label is the single witness.
		tt := emb.Verts[x.to]
		edges, heads := ix.Out(emb.Verts[x.from], x.label)
		for i, te := range edges {
			if heads[i] != tt || emb.UsesEdge(te) {
				continue
			}
			out = append(out, emb.extended(-1, te))
			break
		}
	case !x.fromNew:
		// New edge out of a mapped vertex to a new endpoint: one
		// extension per distinct compatible endpoint (first edge as
		// witness). A target edge into an unmapped vertex cannot
		// already be used (used edges connect mapped vertices), so
		// only injectivity and the endpoint label need checking.
		edges, heads := ix.Out(emb.Verts[x.from], x.label)
		out = extendToNew(ix, edges, heads, x.far, emb, limit, out)
	case !x.toNew:
		// New edge into a mapped vertex from a new endpoint.
		edges, tails := ix.In(emb.Verts[x.to], x.label)
		out = extendToNew(ix, edges, tails, x.far, emb, limit, out)
	}
	// Both endpoints new would mean a disconnected extension; one-edge
	// candidate generation never produces one.
	return out
}

// extendToNew appends one extension of emb per distinct far endpoint
// among the given target edges that carries vertex label want and is
// not yet mapped, witnessed by its first edge, stopping once out holds
// limit embeddings (limit > 0).
func extendToNew(ix *graph.Index, edges []graph.EdgeID, ends []graph.VertexID, want int32, emb DenseEmbedding, limit int, out []DenseEmbedding) []DenseEmbedding {
	start := len(out)
	for i, te := range edges {
		tv := ends[i]
		if ix.VertexLabel(tv) != want || emb.UsesVertex(tv) || endpointSeen(out[start:], tv) {
			continue
		}
		out = append(out, emb.extended(tv, te))
		if limit > 0 && len(out) >= limit {
			return out
		}
	}
	return out
}

// endpointSeen reports whether one of this call's extensions already
// mapped the new pattern vertex (the last Verts slot) to tv —
// deduping parallel target edges to the same endpoint. Extension
// counts per embedding are degree-bounded and small, so a linear scan
// beats a set.
func endpointSeen(batch []DenseEmbedding, tv graph.VertexID) bool {
	for i := range batch {
		if batch[i].Verts[len(batch[i].Verts)-1] == tv {
			return true
		}
	}
	return false
}

// GreedyNonOverlap selects a maximal prefix-greedy subset of
// embeddings that are pairwise vertex- and edge-disjoint — the
// "no overlap" instance count SUBDUE evaluates with.
func GreedyNonOverlap(embs []DenseEmbedding) []DenseEmbedding {
	usedV := make(map[graph.VertexID]bool)
	usedE := make(map[graph.EdgeID]bool)
	var out []DenseEmbedding
	for _, emb := range embs {
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
		out = append(out, emb)
	}
	return out
}
