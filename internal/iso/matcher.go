package iso

import (
	"sort"

	"tnkd/internal/graph"
)

// Matcher is a pattern compiled for repeated subgraph-isomorphism
// searches, plus the reusable state those searches run on.
//
// Compilation (NewMatcher) fixes everything about the search that
// depends on the pattern alone: the vertex assignment order, and for
// each search depth the pattern vertex placed there, its label and
// degree requirements, the already-placed neighbour its candidates are
// drawn from, and the pattern edges to verify against placed vertices.
// A search then only translates the plan's distinct labels into the
// target's interned label IDs (O(pattern) map probes) and walks the
// target's CSR index (graph.Index): candidate generation, degree
// filters and edge reservation are integer compares over dense arrays.
//
// The target-sized scratch (vertex/edge use marks, the restriction
// sets Reanchorer loads) is allocated once per Matcher, grown when a
// larger target arrives, and returned to all-false after every call in
// time proportional to what the call touched, so a Matcher reused
// across a candidate's transactions allocates nothing beyond the
// growth of the list its results are appended to.
//
// The search tree is the classic one of this package: at every depth
// the same candidates are visited in the same order, the lowest-ID
// compatible target edge is reserved for each pattern edge, and every
// expanded node counts one step against Options.MaxSteps — so two
// searches of the same inputs expand the same nodes, emit the same
// embeddings in the same order and abort at the same point.
//
// A Matcher is not safe for concurrent use.
type Matcher struct {
	pattern *graph.Graph

	// The compiled plan (immutable after NewMatcher).
	order   []graph.VertexID // pattern vertex assignment order
	pEdges  []graph.EdgeID   // live pattern edges, ascending
	levels  []level          // levels[d] places order[d]
	vLabels []string         // distinct pattern vertex labels
	eLabels []string         // distinct pattern edge labels

	// The bound target and the plan's labels in its ID space
	// (graph.NoLabel where the target lacks a label).
	target *graph.Graph
	ix     *graph.Index
	vLab   []int32
	eLab   []int32

	// Pattern-sized search state; -1 marks unassigned.
	assigned []graph.VertexID // pattern vertex ID -> target vertex
	edgeMap  []graph.EdgeID   // pattern edge ID -> target edge

	// Target-sized scratch, all clear between calls.
	usedVertex []bool
	usedEdge   []bool
	restrictV  idSet
	restrictE  idSet
	// hasRestrict* distinguish "no restriction" from an empty
	// restriction set.
	hasRestrictV, hasRestrictE bool

	// candScratch[d] holds depth d's candidate list: an outer depth is
	// still iterating its list while deeper levels build theirs.
	candScratch [][]candidate
	// checkRuns[d][i] is the target run that levels[d].checks[i]
	// reserves from, looked up once per search node (unused for
	// self-loops, whose run depends on the candidate). The anchoring
	// check's run is the one candidates are drawn from.
	checkRuns [][]graph.Run

	limit    int
	maxSteps int
	steps    int
	aborted  bool
	found    int
	// out receives every completed embedding; nil only counts them
	// (a stopped search then leaves the last one assigned).
	out *EmbeddingList
}

// level is the compiled plan of one search depth.
type level struct {
	pv            graph.VertexID
	vlabel        int // index into vLabels
	outDeg, inDeg int
	// checks are the pattern edges between pv and placed vertices
	// (self-loops included), in reservation order. checks[anchorCheck]
	// (-1: none, scan by label) anchors pv: the placed neighbour's
	// labeled target adjacency along it supplies pv's candidates.
	checks      []edgeCheck
	anchorCheck int
}

// candidate is a target vertex that may take a level's pattern vertex,
// with its group in the anchoring check's run (-1 without an anchor).
type candidate struct {
	tv    graph.VertexID
	group int
}

// edgeCheck is one pattern edge reserved when its level places pv.
type edgeCheck struct {
	pe    graph.EdgeID
	other graph.VertexID // placed endpoint, or pv itself for a self-loop
	out   bool           // pv -> other; else other -> pv
	label int            // index into eLabels
}

// idSet is a target-sized membership array that remembers what it set,
// so clearing costs O(members) rather than O(target).
type idSet struct {
	on  []bool
	ids []int
}

func (s *idSet) add(id int) {
	if id >= 0 && id < len(s.on) && !s.on[id] {
		s.on[id] = true
		s.ids = append(s.ids, id)
	}
}

func (s *idSet) clear() {
	for _, id := range s.ids {
		s.on[id] = false
	}
	s.ids = s.ids[:0]
}

// grow sizes an empty set for IDs below n.
func (s *idSet) grow(n int) {
	if len(s.on) < n {
		s.on = make([]bool, n)
	}
}

// NewMatcher compiles pattern into a search plan. The pattern must not
// be mutated while the Matcher is in use.
func NewMatcher(pattern *graph.Graph) *Matcher {
	m := &Matcher{
		pattern:  pattern,
		order:    searchOrder(pattern),
		pEdges:   pattern.Edges(),
		assigned: make([]graph.VertexID, pattern.VertexCap()),
		edgeMap:  make([]graph.EdgeID, pattern.EdgeCap()),
	}
	for i := range m.assigned {
		m.assigned[i] = -1
	}
	for i := range m.edgeMap {
		m.edgeMap[i] = -1
	}
	vIdx, eIdx := map[string]int{}, map[string]int{}
	internV := func(l string) int {
		if i, ok := vIdx[l]; ok {
			return i
		}
		vIdx[l] = len(m.vLabels)
		m.vLabels = append(m.vLabels, l)
		return vIdx[l]
	}
	internE := func(l string) int {
		if i, ok := eIdx[l]; ok {
			return i
		}
		eIdx[l] = len(m.eLabels)
		m.eLabels = append(m.eLabels, l)
		return eIdx[l]
	}
	placed := make([]bool, pattern.VertexCap())
	m.levels = make([]level, len(m.order))
	for d, pv := range m.order {
		lv := level{
			pv:          pv,
			vlabel:      internV(pattern.Vertex(pv).Label),
			outDeg:      pattern.OutDegree(pv),
			inDeg:       pattern.InDegree(pv),
			anchorCheck: -1,
		}
		outs, ins := pattern.OutEdges(pv), pattern.InEdges(pv)
		// The anchor is the first out-edge (ascending ID) to a placed
		// vertex, else the first such in-edge; a self-loop never
		// anchors, since pv itself is not yet placed.
		anchorEdge := graph.EdgeID(-1)
		for _, pe := range outs {
			if placed[pattern.Edge(pe).To] {
				anchorEdge = pe
				break
			}
		}
		if anchorEdge < 0 {
			for _, pe := range ins {
				if placed[pattern.Edge(pe).From] {
					anchorEdge = pe
					break
				}
			}
		}
		// Out-edges to placed vertices and self-loops first, then
		// in-edges from placed vertices, each ascending: a self-loop
		// is reserved once, as an out-edge.
		for _, pe := range outs {
			if ed := pattern.Edge(pe); placed[ed.To] || ed.To == pv {
				lv.checks = append(lv.checks, edgeCheck{pe: pe, other: ed.To, out: true, label: internE(ed.Label)})
			}
		}
		for _, pe := range ins {
			if ed := pattern.Edge(pe); placed[ed.From] {
				lv.checks = append(lv.checks, edgeCheck{pe: pe, other: ed.From, label: internE(ed.Label)})
			}
		}
		for i, c := range lv.checks {
			if c.pe == anchorEdge {
				lv.anchorCheck = i
			}
		}
		m.levels[d] = lv
		placed[pv] = true
	}
	m.vLab = make([]int32, len(m.vLabels))
	m.eLab = make([]int32, len(m.eLabels))
	m.candScratch = make([][]candidate, len(m.order))
	m.checkRuns = make([][]graph.Run, len(m.order))
	for d := range m.levels {
		m.checkRuns[d] = make([]graph.Run, len(m.levels[d].checks))
	}
	return m
}

// searchOrder returns the pattern vertices ordered so that after the
// first, every vertex is adjacent to an earlier one when possible
// (connected patterns then never branch on disconnected candidates).
// Ties break toward higher degree for earlier pruning.
func searchOrder(p *graph.Graph) []graph.VertexID {
	vs := p.Vertices()
	if len(vs) == 0 {
		return nil
	}
	sort.Slice(vs, func(i, j int) bool {
		di, dj := p.Degree(vs[i]), p.Degree(vs[j])
		if di != dj {
			return di > dj
		}
		return vs[i] < vs[j]
	})
	order := []graph.VertexID{vs[0]}
	placed := map[graph.VertexID]bool{vs[0]: true}
	for len(order) < len(vs) {
		best := graph.VertexID(-1)
		bestDeg := -1
		// Prefer vertices adjacent to the placed set.
		for _, v := range vs {
			if placed[v] {
				continue
			}
			adj := false
			for _, u := range p.Neighbors(v) {
				if placed[u] {
					adj = true
					break
				}
			}
			if adj && p.Degree(v) > bestDeg {
				best, bestDeg = v, p.Degree(v)
			}
		}
		if best == -1 {
			for _, v := range vs {
				if !placed[v] {
					best = v
					break
				}
			}
		}
		order = append(order, best)
		placed[best] = true
	}
	return order
}

// fits reports whether target is large enough to hold the pattern at
// all; callers short-circuit to "no embeddings, search complete"
// otherwise.
func (m *Matcher) fits(target *graph.Graph) bool {
	p := m.pattern
	return p.NumVertices() > 0 && p.NumVertices() <= target.NumVertices() &&
		p.NumEdges() <= target.NumEdges()
}

// Embeddings appends the embeddings of the compiled pattern into
// target to out, a list for the pattern (the pattern must have dense
// IDs; opts.Limit counts this call's embeddings, not out's). It
// reports whether the search ran to completion (false when
// opts.MaxSteps aborted it, in which case the appended embeddings may
// be incomplete).
func (m *Matcher) Embeddings(target *graph.Graph, opts Options, out *EmbeddingList) bool {
	if !m.fits(target) {
		return true
	}
	m.begin(target, opts, out)
	m.search(0)
	m.finish()
	return !m.aborted
}

// bind points the matcher at target: the plan's labels are translated
// into target's label IDs and the scratch grows to target's ID space.
// Rebinding the same unmutated target is free.
func (m *Matcher) bind(target *graph.Graph) {
	ix := target.Index()
	if target == m.target && ix == m.ix {
		return
	}
	m.target, m.ix = target, ix
	for i, l := range m.vLabels {
		m.vLab[i] = ix.VertexLabelID(l)
	}
	for i, l := range m.eLabels {
		m.eLab[i] = ix.EdgeLabelID(l)
	}
	if nv := target.VertexCap(); len(m.usedVertex) < nv {
		m.usedVertex = make([]bool, nv)
	}
	if ne := target.EdgeCap(); len(m.usedEdge) < ne {
		m.usedEdge = make([]bool, ne)
	}
	m.restrictV.grow(target.VertexCap())
	m.restrictE.grow(target.EdgeCap())
}

// begin prepares one call against target: binds it, loads opts' limit
// and budget, and sets the list completed embeddings are appended to
// (nil: only count them). The restriction sets start empty;
// Reanchorer.Reanchor fills them.
func (m *Matcher) begin(target *graph.Graph, opts Options, out *EmbeddingList) {
	m.bind(target)
	m.limit, m.maxSteps, m.out = opts.Limit, opts.MaxSteps, out
	m.steps, m.aborted, m.found = 0, false, 0
}

// finish returns every piece of scratch a call touched to its clear
// state. The step count and abort flag of the last search survive for
// inspection.
func (m *Matcher) finish() {
	m.unassignAll()
	m.restrictV.clear()
	m.restrictE.clear()
	m.hasRestrictV, m.hasRestrictE = false, false
	m.out = nil
}

// unassignAll undoes the live assignment — after a search stops, the
// only marks left in the target-sized arrays are its own — in
// O(pattern).
func (m *Matcher) unassignAll() {
	for _, pv := range m.order {
		if tv := m.assigned[pv]; tv >= 0 {
			m.usedVertex[tv] = false
			m.assigned[pv] = -1
		}
	}
	for _, pe := range m.pEdges {
		if te := m.edgeMap[pe]; te >= 0 {
			m.usedEdge[te] = false
			m.edgeMap[pe] = -1
		}
	}
}

// search expands the node at depth, returning true to stop the whole
// search (limit reached or budget exhausted). The assignment of a
// stopped search stays live until finish.
func (m *Matcher) search(depth int) bool {
	if m.maxSteps > 0 {
		m.steps++
		if m.steps > m.maxSteps {
			m.aborted = true
			return true
		}
	}
	if depth == len(m.levels) {
		m.found++
		if m.out != nil {
			m.appendAssignment()
		}
		return m.limit > 0 && m.found >= m.limit
	}
	lv := &m.levels[depth]
	runs := m.checkRuns[depth]
	if lv.anchorCheck >= 0 {
		c := &lv.checks[lv.anchorCheck]
		runs[lv.anchorCheck] = m.placedRun(c, m.assigned[c.other])
	}
	cands := m.candidates(depth, lv, runs)
	if len(cands) == 0 {
		return false
	}
	for i := range lv.checks {
		if c := &lv.checks[i]; i != lv.anchorCheck && c.other != lv.pv {
			runs[i] = m.placedRun(c, m.assigned[c.other])
		}
	}
	for _, cand := range cands {
		tv := cand.tv
		if m.usedVertex[tv] || (m.hasRestrictV && !m.restrictV.on[tv]) {
			continue
		}
		if !m.reserve(lv, runs, cand) {
			continue
		}
		m.assigned[lv.pv] = tv
		m.usedVertex[tv] = true
		if m.search(depth + 1) {
			return true
		}
		m.release(lv.checks)
		m.assigned[lv.pv] = -1
		m.usedVertex[tv] = false
	}
	return false
}

// candidates returns the target vertices that may take lv's pattern
// vertex, in visiting order: the distinct far endpoints of the
// anchor's target edges carrying the anchoring label (the endpoints of
// the anchoring check's run in runs, in order of their lowest edge
// ID), or every target vertex with the right label when the level has
// no anchor — each filtered by label and by live in/out degree at
// least the pattern vertex's. The slice is the depth's scratch buffer,
// valid until the next call at the same depth.
func (m *Matcher) candidates(depth int, lv *level, runs []graph.Run) []candidate {
	ix := m.ix
	want := m.vLab[lv.vlabel]
	res := m.candScratch[depth][:0]
	if lv.anchorCheck < 0 {
		for _, tv := range ix.WithLabel(want) {
			if ix.OutDegree(tv) >= lv.outDeg && ix.InDegree(tv) >= lv.inDeg {
				res = append(res, candidate{tv, -1})
			}
		}
		m.candScratch[depth] = res
		return res
	}
	run := runs[lv.anchorCheck]
	for i := range run.Len() {
		tv := run.End(i)
		if ix.VertexLabel(tv) == want && ix.OutDegree(tv) >= lv.outDeg && ix.InDegree(tv) >= lv.inDeg {
			res = append(res, candidate{tv, i})
		}
	}
	m.candScratch[depth] = res
	return res
}

// placedRun returns the run check c reserves from when its far end is
// the placed target vertex other: the edges between other and the
// candidate are one group of it, and every candidate at the depth
// reads the same run.
func (m *Matcher) placedRun(c *edgeCheck, other graph.VertexID) graph.Run {
	if c.out {
		return m.ix.In(other, m.eLab[c.label])
	}
	return m.ix.Out(other, m.eLab[c.label])
}

// reserve verifies lv's pattern edges for pv -> cand.tv, reserving
// for each the lowest-ID unused compatible target edge: the first
// usable edge of cand's group for the anchoring check, else of tv's
// group in the check's run in runs (a self-loop's run is tv's own).
// On failure it releases what it reserved and reports false.
func (m *Matcher) reserve(lv *level, runs []graph.Run, cand candidate) bool {
	tv := cand.tv
	for i := range lv.checks {
		c := &lv.checks[i]
		var edges []int32
		switch {
		case i == lv.anchorCheck:
			edges = runs[i].Edges(cand.group)
		case c.other == lv.pv:
			edges = m.placedRun(c, tv).To(tv)
		default:
			edges = runs[i].To(tv)
		}
		if !m.reserveEdge(c.pe, edges) {
			m.release(lv.checks[:i])
			return false
		}
	}
	return true
}

// reserveEdge maps pattern edge pe onto the first unused, permitted
// target edge of edges (ascending IDs).
func (m *Matcher) reserveEdge(pe graph.EdgeID, edges []int32) bool {
	for _, te := range edges {
		if m.usedEdge[te] || (m.hasRestrictE && !m.restrictE.on[te]) {
			continue
		}
		m.usedEdge[te] = true
		m.edgeMap[pe] = graph.EdgeID(te)
		return true
	}
	return false
}

// release undoes the reservations of checks.
func (m *Matcher) release(checks []edgeCheck) {
	for _, c := range checks {
		m.usedEdge[m.edgeMap[c.pe]] = false
		m.edgeMap[c.pe] = -1
	}
}

// appendAssignment appends the current assignment to out as one row
// (meaningful for dense-ID patterns, where every slot is assigned).
func (m *Matcher) appendAssignment() {
	ids := m.out.IDs
	for _, tv := range m.assigned {
		ids = append(ids, int32(tv))
	}
	for _, te := range m.edgeMap {
		ids = append(ids, int32(te))
	}
	m.out.IDs = ids
}
