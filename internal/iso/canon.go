package iso

import (
	"encoding/base64"
	"encoding/binary"
	"slices"
	"sort"
	"sync"

	"tnkd/internal/graph"
)

// This file implements exact canonical labeling for labeled directed
// multigraphs via individualisation–refinement (the bliss/nauty
// family of algorithms), replacing the earlier quasi-canonical string
// codes and their permutation-budget "~" fallback.
//
// The pipeline per graph:
//
//  1. Build a dense integer view: vertices (in a masked view, those
//     left with an edge) renumbered 0..n-1, vertex and edge labels
//     interned to ranks of their sorted distinct values, adjacency
//     flattened into one CSR arc array.
//     No strings are touched after this point.
//  2. Equitable refinement: vertices are partitioned by iterated
//     Weisfeiler–Leman-style splitting on (color, sorted multiset of
//     (direction, edge label, neighbor color)), entirely on packed
//     uint64 keys.
//  3. Individualisation search: while the partition is not discrete,
//     pick the first smallest non-singleton cell, individualise each
//     member in turn and recurse. Leaves are discrete partitions; the
//     canonical form is the minimum leaf edge encoding.
//  4. Automorphism pruning: two leaves with equal forms certify an
//     automorphism. Discovered generators prune target-cell members
//     in the same orbit (under generators fixing the individualised
//     prefix), and a leaf that reproduces the first leaf's form on a
//     leftmost descent prunes its whole branch back to the node where
//     it diverged from the first path (McKay's backjump).
//
// The canonical form is a compact []byte (label alphabets, counts,
// vertex-label sequence, canonically ordered edge triples). Equal
// forms hold exactly for isomorphic graphs; bytes.Compare is a fast
// total order. Code returns the form base64url-encoded so it stays
// JSON- and URL-safe for the store and serving layers.

// maxCanonVertices bounds the dense view. Canonical labeling is for
// pattern-sized graphs; the packed leaf edge keys need n*n*labels to
// fit in 62 bits.
const maxCanonVertices = 1 << 20

// Code returns the canonical code of g: an exact isomorphism
// invariant. Two graphs receive equal codes if and only if they are
// isomorphic — no fallback, no collisions. Codes are URL- and
// JSON-safe (base64url of the canonical form) and their bytewise
// comparison is a total order usable for deterministic sorting.
func Code(g *graph.Graph) string {
	l := labelerPool.Get().(*labeler)
	defer labelerPool.Put(l)
	form := l.canonicalForm(g, nil, -1, false)
	return base64.RawURLEncoding.EncodeToString(form)
}

// CodeMasked returns the canonical code of the view of g with edge
// skip removed and any vertex that loses its last incident edge
// dropped — the one-edge-deleted subpattern of downward-closure
// checks, coded without materialising it. CodeMasked(g, e) equals
// Code of the compacted subgraph exactly. Vertices isolated in g
// itself are also dropped from the masked view (patterns built by
// edge extension never have any).
func CodeMasked(g *graph.Graph, skip graph.EdgeID) string {
	l := labelerPool.Get().(*labeler)
	defer labelerPool.Put(l)
	form := l.canonicalForm(g, nil, skip, true)
	return base64.RawURLEncoding.EncodeToString(form)
}

// Extension describes a one-edge extension of a graph g without
// materialising it: g plus an edge From→To labelled Label. An
// endpoint equal to g.NumVertices() is a new vertex labelled NewLabel
// (at most one endpoint may be new); otherwise NewLabel is unused.
// It is the dual of CodeMasked's one-edge deletion: the candidates of
// level-wise mining are coded as extensions of their parent and
// cloned only once they survive dedup and downward closure.
type Extension struct {
	From, To graph.VertexID
	Label    string
	NewLabel string
}

// Apply materialises the extension: a clone of g (IDs preserved) with
// the new vertex, if any, at ID g.NumVertices() and the new edge, whose
// ID it returns, at g.NumEdges().
func (x Extension) Apply(g *graph.Graph) (*graph.Graph, graph.EdgeID) {
	c := g.Clone()
	if newV := graph.VertexID(g.NumVertices()); x.From == newV || x.To == newV {
		c.AddVertex(x.NewLabel)
	}
	return c, c.AddEdge(x.From, x.To, x.Label)
}

// CodeExtended returns the canonical code of g extended by ext,
// coded on an overlay view without cloning g. With skip < 0 it equals
// Code(ext.Apply(g)); with skip >= 0 it equals CodeMasked of the
// materialised graph minus edge skip, where the extension edge's ID
// is g.NumEdges() — so the one-edge-deleted subpatterns of a candidate
// are coded without materialising the candidate either.
func CodeExtended(g *graph.Graph, ext Extension, skip graph.EdgeID) string {
	l := labelerPool.Get().(*labeler)
	defer labelerPool.Put(l)
	form := l.canonicalForm(g, &ext, skip, skip >= 0)
	return base64.RawURLEncoding.EncodeToString(form)
}

var labelerPool = sync.Pool{New: func() any { return &labeler{} }}

// arc packing: each adjacency entry is (edgeLabel<<1 | direction) in
// the high 32 bits and the dense neighbor index (during build) or the
// neighbor's current color (during refinement) in the low 32 bits.
const arcLow = 0xffffffff

// labeler holds the dense view and all scratch state of one
// canonical labeling. Instances are pooled and reused; every slice
// is resized with append semantics so steady-state calls on
// pattern-sized graphs allocate nothing.
type labeler struct {
	// dense view
	n, m    int
	denseOf []int32  // graph vertex ID -> dense index, -1 absent
	vlab    []int32  // dense vertex -> vertex-label rank
	vLabels []string // sorted distinct vertex labels
	eLabels []string // sorted distinct edge labels
	adjOff  []int32  // CSR offsets, len n+1
	adjArc  []uint64 // CSR arcs (label+dir high, neighbor low)
	eFrom   []int32  // dense edges
	eTo     []int32
	eLab    []int32

	// refinement scratch
	sigArc   []uint64 // per-arc keys, CSR layout parallel to adjArc
	ord      []int32
	newColor []int32
	cellCnt  []int32

	// search state
	colorStack [][]int32 // per-depth color scratch
	prefix     []int32   // individualised vertices along current path
	firstPath  []int32   // child chosen per depth on the first descent
	firstPos   []int32   // first leaf: dense vertex -> position
	posInv     []int32   // scratch: position -> vertex
	firstKeys  []uint64  // first leaf edge keys
	bestKeys   []uint64  // minimum leaf edge keys
	leafKeys   []uint64  // scratch
	gens       [][]int32 // automorphism generators
	uf         []int32   // union-find scratch for orbit pruning
	haveFirst  bool
	haveBest   bool
	jump       int // backjump target depth, -1 none

	// label interning scratch
	labScratch  []string
	vlabScratch []string
	// form rendering scratch
	formBuf []byte
	// interchangeable-cell certificate scratch
	fpSig, fpRefSig, fpIntra []uint64
}

// canonNoFastPath disables the interchangeable-cell short-circuit.
// Tests flip it to cross-check the fast path against the exhaustive
// search on the same graphs.
var canonNoFastPath = false

// maxGens caps the retained automorphism generators: pruning stays
// sound with any subset, and pathological searches must not grow
// memory without bound.
const maxGens = 64

// canonicalForm computes the canonical form of g (plus ext when
// non-nil; masked: minus edge skip, minus vertices the mask orphans).
// The returned slice aliases the labeler's scratch buffer — callers
// copy or encode before the labeler is reused.
func (l *labeler) canonicalForm(g *graph.Graph, ext *Extension, skip graph.EdgeID, masked bool) []byte {
	l.build(g, ext, skip, masked)
	if l.n >= maxCanonVertices || len(l.eLabels) >= 1<<20 {
		panic("iso: graph too large for canonical coding")
	}
	l.haveFirst, l.haveBest = false, false
	l.jump = -1
	l.gens = l.gens[:0]
	l.prefix = l.prefix[:0]
	l.firstPath = l.firstPath[:0]
	l.firstKeys = l.firstKeys[:0]
	l.bestKeys = l.bestKeys[:0]
	if l.n > 0 {
		colors := l.colorsAt(0)
		copy(colors, l.vlab)
		l.search(colors, 0, -1, false)
	}
	return l.render()
}

// build constructs the dense integer view of g, overlaid with ext
// when non-nil: the extension edge takes ID g.NumEdges() and a new
// endpoint ID g.NumVertices(), exactly as ext.Apply would number them.
func (l *labeler) build(g *graph.Graph, ext *Extension, skip graph.EdgeID, masked bool) {
	nv, ne := g.NumVertices(), g.NumEdges()
	newV := graph.VertexID(-1)
	if ext != nil && (ext.From == graph.VertexID(nv) || ext.To == graph.VertexID(nv)) {
		newV = graph.VertexID(nv)
		nv++
	}
	l.denseOf = resizeI32(l.denseOf, nv)
	for i := range l.denseOf {
		l.denseOf[i] = -1
	}
	// One pass over the edges: collect endpoints (graph IDs for
	// now), labels and degrees. Degrees under the mask decide which
	// vertices the masked view keeps; the unmasked view keeps every
	// vertex.
	l.cellCnt = resizeI32(l.cellCnt, nv) // reused as degree scratch
	deg := l.cellCnt
	for i := range deg {
		deg[i] = 0
	}
	l.eFrom = l.eFrom[:0]
	l.eTo = l.eTo[:0]
	l.labScratch = l.labScratch[:0]
	for id := 0; id < ne; id++ {
		e := graph.EdgeID(id)
		if e == skip {
			continue
		}
		ed := g.Edge(e)
		l.eFrom = append(l.eFrom, int32(ed.From))
		l.eTo = append(l.eTo, int32(ed.To))
		l.labScratch = append(l.labScratch, ed.Label)
		deg[ed.From]++
		deg[ed.To]++
	}
	if ext != nil && skip != graph.EdgeID(ne) {
		l.eFrom = append(l.eFrom, int32(ext.From))
		l.eTo = append(l.eTo, int32(ext.To))
		l.labScratch = append(l.labScratch, ext.Label)
		deg[ext.From]++
		deg[ext.To]++
	}
	m := len(l.eFrom)
	n := 0
	l.vlabScratch = l.vlabScratch[:0]
	for id := 0; id < nv; id++ {
		v := graph.VertexID(id)
		if masked && deg[id] == 0 {
			continue
		}
		l.denseOf[id] = int32(n)
		n++
		if v == newV {
			l.vlabScratch = append(l.vlabScratch, ext.NewLabel)
		} else {
			l.vlabScratch = append(l.vlabScratch, g.Vertex(v).Label)
		}
	}
	l.n, l.m = n, m

	// Intern labels: sort distinct, rank by binary search.
	l.vLabels = internLabels(l.vLabels[:0], l.vlabScratch)
	l.vlab = resizeI32(l.vlab, n)
	for i, s := range l.vlabScratch {
		l.vlab[i] = int32(sort.SearchStrings(l.vLabels, s))
	}
	l.eLabels = internLabels(l.eLabels[:0], l.labScratch)
	l.eLab = resizeI32(l.eLab, m)
	for k := 0; k < m; k++ {
		l.eLab[k] = int32(sort.SearchStrings(l.eLabels, l.labScratch[k]))
		l.eFrom[k] = l.denseOf[l.eFrom[k]]
		l.eTo[k] = l.denseOf[l.eTo[k]]
	}

	// CSR adjacency: every edge contributes an out-arc at From and an
	// in-arc at To (self-loops contribute both to the same vertex).
	l.adjOff = resizeI32(l.adjOff, n+1)
	for i := range l.adjOff {
		l.adjOff[i] = 0
	}
	for k := 0; k < m; k++ {
		l.adjOff[l.eFrom[k]+1]++
		l.adjOff[l.eTo[k]+1]++
	}
	for i := 1; i <= n; i++ {
		l.adjOff[i] += l.adjOff[i-1]
	}
	l.adjArc = resizeU64(l.adjArc, 2*m)
	l.newColor = resizeI32(l.newColor, n) // reused as fill cursor
	fill := l.newColor
	for i := range fill {
		fill[i] = 0
	}
	for k := 0; k < m; k++ {
		f, t, lab := l.eFrom[k], l.eTo[k], uint64(l.eLab[k])
		l.adjArc[l.adjOff[f]+fill[f]] = (lab << 33) | uint64(t)
		fill[f]++
		l.adjArc[l.adjOff[t]+fill[t]] = (lab<<33 | 1<<32) | uint64(f)
		fill[t]++
	}
	l.sigArc = resizeU64(l.sigArc, 2*m)
}

// internLabels fills dst with the sorted distinct strings of src.
func internLabels(dst, src []string) []string {
	dst = append(dst, src...)
	sort.Strings(dst)
	uniq := dst[:0]
	for i, s := range dst {
		if i == 0 || s != dst[i-1] {
			uniq = append(uniq, s)
		}
	}
	return uniq
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// colorsAt returns the per-depth color scratch slice, growing the
// stack as the search deepens.
func (l *labeler) colorsAt(depth int) []int32 {
	for len(l.colorStack) <= depth {
		l.colorStack = append(l.colorStack, nil)
	}
	l.colorStack[depth] = resizeI32(l.colorStack[depth], l.n)
	return l.colorStack[depth]
}

// refine refines colors in place to the coarsest equitable partition
// at least as fine as the input, re-ranking colors to 0..k-1 (cell
// order follows the input color order, ties split by signature
// order). Returns the number of colors k.
func (l *labeler) refine(colors []int32) int {
	n := l.n
	l.ord = resizeI32(l.ord, n)
	l.newColor = resizeI32(l.newColor, n)
	cur := -1 // the first pass always runs: it densifies spread colors
	for {
		// Per-vertex signature: arcs re-keyed by neighbor color, sorted.
		for v := 0; v < n; v++ {
			lo, hi := l.adjOff[v], l.adjOff[v+1]
			for k := lo; k < hi; k++ {
				a := l.adjArc[k]
				l.sigArc[k] = (a &^ arcLow) | uint64(uint32(colors[a&arcLow]))
			}
			sortU64(l.sigArc[lo:hi])
		}
		// Order vertices by (color, signature), then re-rank.
		for i := range l.ord {
			l.ord[i] = int32(i)
		}
		l.sortVerts(colors)
		next := 0
		prev := int32(-1)
		for i, v := range l.ord {
			if i > 0 {
				if colors[v] != colors[prev] || !l.sameSig(v, prev) {
					next++
				}
			}
			l.newColor[v] = int32(next)
			prev = v
		}
		copy(colors, l.newColor)
		if next+1 == cur || next+1 == n {
			return next + 1
		}
		cur = next + 1
	}
}

// sortVerts insertion-sorts l.ord by (color, signature). Pattern
// graphs are small; insertion sort beats sort.Slice here and
// allocates nothing.
func (l *labeler) sortVerts(colors []int32) {
	ord := l.ord
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && l.vertLess(colors, ord[j], ord[j-1]); j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
}

func (l *labeler) vertLess(colors []int32, a, b int32) bool {
	if colors[a] != colors[b] {
		return colors[a] < colors[b]
	}
	return l.cmpSig(a, b) < 0
}

func (l *labeler) cmpSig(a, b int32) int {
	alo, ahi := l.adjOff[a], l.adjOff[a+1]
	blo, bhi := l.adjOff[b], l.adjOff[b+1]
	la, lb := ahi-alo, bhi-blo
	min := la
	if lb < min {
		min = lb
	}
	for k := int32(0); k < min; k++ {
		x, y := l.sigArc[alo+k], l.sigArc[blo+k]
		if x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	switch {
	case la < lb:
		return -1
	case la > lb:
		return 1
	}
	return 0
}

func (l *labeler) sameSig(a, b int32) bool { return l.cmpSig(a, b) == 0 }

// sortU64 is an insertion sort for the short per-vertex arc slices.
func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// search explores the individualisation-refinement tree under the
// given colors (consumed in place). divergedAt is the depth at which
// this path left the first path (-1 while still on it); leftmost
// reports whether every choice strictly below the divergence point
// was the first explored child, which is the precondition for the
// first-leaf backjump.
func (l *labeler) search(colors []int32, depth, divergedAt int, leftmost bool) {
	k := l.refine(colors)
	if k == l.n {
		l.leaf(colors, divergedAt, leftmost)
		return
	}
	// Target cell: first smallest non-singleton (cellCnt is fresh
	// from refine's final countColors... recompute to be safe).
	target := l.targetCell(colors, k)
	// Collect the cell members in ascending dense order into the
	// per-depth scratch tail of posInv... use a local small slice.
	var cellBuf [16]int32
	cell := cellBuf[:0]
	for v := 0; v < l.n; v++ {
		if colors[v] == target {
			cell = append(cell, int32(v))
		}
	}
	if len(cell) > 1 && !canonNoFastPath && l.interchangeable(colors, cell, target) {
		// Every member of the cell is provably in one orbit of the
		// prefix-stabilising automorphism group, so each member's
		// subtree yields the same set of leaf forms: exploring the
		// first alone is the generator-based orbit pruning below,
		// computed directly instead of waiting for discovered
		// generators. High-automorphism shapes (stars, complete
		// bipartite cores) collapse from factorial fan-out to a single
		// descent.
		cell = cell[:1]
	}
	firstDescent := !l.haveFirst
	if firstDescent {
		l.firstPath = append(l.firstPath, -1)
	}

	explored := 0
	ufGens := -1
	for _, u := range cell {
		if explored > 0 {
			// Orbit pruning: skip u when an automorphism fixing the
			// individualised prefix maps it onto an earlier cell member
			// (explored directly, or itself pruned into one — the orbit
			// relation is transitive either way).
			if len(l.gens) != ufGens {
				l.buildOrbits()
				ufGens = len(l.gens)
			}
			pruned := false
			ru := l.find(u)
			for _, w := range cell {
				if w == u {
					break
				}
				if l.find(w) == ru {
					pruned = true
					break
				}
			}
			if pruned {
				continue
			}
		}
		child := l.colorsAt(depth + 1)
		individualise(child, colors, u, target)
		childDiverged := divergedAt
		childLeftmost := leftmost && explored == 0
		if firstDescent && explored == 0 {
			l.firstPath[depth] = u
		} else if divergedAt < 0 && (depth >= len(l.firstPath) || l.firstPath[depth] != u) {
			childDiverged = depth
			childLeftmost = true
		}
		l.prefix = append(l.prefix, u)
		l.search(child, depth+1, childDiverged, childLeftmost)
		l.prefix = l.prefix[:len(l.prefix)-1]
		explored++
		if l.jump >= 0 {
			if l.jump < depth {
				return // keep unwinding to the divergence node
			}
			l.jump = -1 // this node is the target: continue siblings
		}
	}
}

// Tags for the combined per-member signature interchangeable builds:
// external arcs are raw adjArc entries (< 2^53), self-loops and
// normalised intra-cell arcs are tagged into disjoint high-bit ranges.
const (
	fpSelfTag  = uint64(1) << 62
	fpIntraTag = uint64(1) << 63
)

// interchangeable reports whether swapping any two members of the
// target cell is an automorphism of the dense graph, which proves the
// whole cell is a single orbit of the automorphism group fixing the
// individualised prefix (prefix vertices are singletons, hence
// outside the cell). The certificate:
//
//	(a) every member carries the same multiset of (labdir, neighbor)
//	    arcs to vertices outside the cell — the same actual
//	    neighbors, not just the same neighbor colors;
//	(b) every member carries the same self-loop labdir multiset;
//	(c) intra-cell arcs are absent or uniformly coupled: every member
//	    reaches every other member, with the same labdir multiset on
//	    every ordered pair.
//
// Under (a)-(c) a transposition of two members fixes all external
// arcs, maps self-loops onto equal self-loops, and permutes the
// uniform intra-cell arcs among themselves — an automorphism. The
// symmetric group on the cell therefore acts by prefix-fixing
// automorphisms, which is exactly the premise the generator-based
// orbit pruning in search relies on; the resulting canonical form is
// byte-identical with the fast path on or off.
func (l *labeler) interchangeable(colors []int32, cell []int32, target int32) bool {
	ok := true
	refSig := l.fpRefSig[:0]
	sig := l.fpSig[:0]
	intra := l.fpIntra[:0]
	for mi, v := range cell {
		sig = sig[:0]
		intra = intra[:0]
		for k := l.adjOff[v]; k < l.adjOff[v+1]; k++ {
			a := l.adjArc[k]
			w := int32(a & arcLow)
			switch {
			case w == v:
				sig = append(sig, fpSelfTag|(a>>32))
			case colors[w] == target:
				// Sortable by (partner, labdir): labdir < 2^21,
				// partner < 2^20 (maxCanonVertices).
				intra = append(intra, uint64(w)<<22|(a>>32))
			default:
				sig = append(sig, a)
			}
		}
		// Per-member uniformity of the intra-cell coupling: the sorted
		// arcs must split into len(cell)-1 equal-size blocks, each a
		// single partner, all with element-wise equal labdir runs (or
		// there are no intra arcs at all). Together with the
		// cross-member signature comparison below — which carries the
		// partner-stripped intra multiset — a pass means every member
		// reaches every other member with one shared labdir multiset.
		sortU64Long(intra)
		if len(intra) > 0 {
			if len(intra)%(len(cell)-1) != 0 {
				ok = false
				break
			}
			per := len(intra) / (len(cell) - 1)
			for i, x := range intra {
				if x>>22 != intra[(i/per)*per]>>22 || x&(1<<22-1) != intra[i%per]&(1<<22-1) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		for _, x := range intra {
			sig = append(sig, fpIntraTag|(x&(1<<22-1)))
		}
		sortU64Long(sig)
		if mi == 0 {
			refSig = append(refSig[:0], sig...)
		} else if !equalU64(sig, refSig) {
			ok = false
			break
		}
	}
	l.fpSig, l.fpRefSig, l.fpIntra = sig[:0], refSig[:0], intra[:0]
	return ok
}

// targetCell picks the first smallest non-singleton cell.
func (l *labeler) targetCell(colors []int32, k int) int32 {
	l.cellCnt = resizeI32(l.cellCnt, k)
	for i := range l.cellCnt {
		l.cellCnt[i] = 0
	}
	for _, c := range colors {
		l.cellCnt[c]++
	}
	best := int32(-1)
	var bestSize int32
	for c := int32(0); c < int32(k); c++ {
		if sz := l.cellCnt[c]; sz > 1 && (best < 0 || sz < bestSize) {
			best, bestSize = c, sz
		}
	}
	return best
}

// individualise writes into dst the coloring that splits u out of its
// cell, ordered before the remainder. Color values are spread (×2) so
// the new cell slots in without renumbering; refine re-ranks.
func individualise(dst, src []int32, u, cell int32) {
	for i, c := range src {
		d := 2 * c
		if c == cell && int32(i) != u {
			d++
		}
		dst[i] = d
	}
}

// leaf handles a discrete partition: render the edge keys, update the
// best form, and derive an automorphism when the form reproduces the
// first leaf's.
func (l *labeler) leaf(pos []int32, divergedAt int, leftmost bool) {
	n := uint64(l.n)
	labBits := uint(20)
	l.leafKeys = resizeU64(l.leafKeys, l.m)
	for k := 0; k < l.m; k++ {
		pf := uint64(pos[l.eFrom[k]])
		pt := uint64(pos[l.eTo[k]])
		l.leafKeys[k] = ((pf*n + pt) << labBits) | uint64(l.eLab[k])
	}
	sortU64Long(l.leafKeys)
	if !l.haveFirst {
		l.haveFirst = true
		l.firstKeys = append(l.firstKeys[:0], l.leafKeys...)
		l.firstPos = append(l.firstPos[:0], pos...)
	} else if equalU64(l.leafKeys, l.firstKeys) {
		l.recordAutomorphism(pos)
		if divergedAt >= 0 && leftmost {
			l.jump = divergedAt
		}
	}
	if !l.haveBest || lessU64(l.leafKeys, l.bestKeys) {
		l.haveBest = true
		l.bestKeys = append(l.bestKeys[:0], l.leafKeys...)
	}
}

// recordAutomorphism derives the automorphism mapping this leaf's
// labeling onto the first leaf's and appends it as a generator.
func (l *labeler) recordAutomorphism(pos []int32) {
	if len(l.gens) >= maxGens {
		return
	}
	l.posInv = resizeI32(l.posInv, l.n)
	for v, p := range l.firstPos {
		l.posInv[p] = int32(v)
	}
	gen := make([]int32, l.n)
	identity := true
	for v := 0; v < l.n; v++ {
		gen[v] = l.posInv[pos[v]]
		if gen[v] != int32(v) {
			identity = false
		}
	}
	if !identity {
		l.gens = append(l.gens, gen)
	}
}

// buildOrbits rebuilds the union-find over the orbits of the
// generators that fix the current individualised prefix pointwise.
func (l *labeler) buildOrbits() {
	l.uf = resizeI32(l.uf, l.n)
	for i := range l.uf {
		l.uf[i] = int32(i)
	}
	for _, gen := range l.gens {
		fixes := true
		for _, p := range l.prefix {
			if gen[p] != p {
				fixes = false
				break
			}
		}
		if !fixes {
			continue
		}
		for v := 0; v < l.n; v++ {
			l.union(int32(v), gen[v])
		}
	}
}

func (l *labeler) find(x int32) int32 {
	for l.uf[x] != x {
		l.uf[x] = l.uf[l.uf[x]]
		x = l.uf[x]
	}
	return x
}

func (l *labeler) union(a, b int32) {
	ra, rb := l.find(a), l.find(b)
	if ra != rb {
		l.uf[ra] = rb
	}
}

// sortU64Long sorts leaf key slices; they can be larger than arc
// slices, so fall back to the stdlib above a small threshold.
func sortU64Long(s []uint64) {
	if len(s) <= 32 {
		sortU64(s)
		return
	}
	slices.Sort(s)
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessU64(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// render serialises the canonical form from the best leaf:
//
//	uvarint #vertexLabels, each label (uvarint len + bytes)
//	uvarint #edgeLabels, each label
//	uvarint n, uvarint m
//	vertex-label rank per canonical position (invariant across
//	leaves: refinement preserves the initial label ordering)
//	per edge in key order: uvarint fromPos, toPos, labelRank
func (l *labeler) render() []byte {
	b := l.formBuf[:0]
	b = binary.AppendUvarint(b, uint64(len(l.vLabels)))
	for _, s := range l.vLabels {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(len(l.eLabels)))
	for _, s := range l.eLabels {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(l.n))
	b = binary.AppendUvarint(b, uint64(l.m))
	// The vertex-label sequence by position is the sorted vlab
	// multiset (initial colors are label ranks and refinement only
	// ever splits cells in order).
	l.ord = resizeI32(l.ord, l.n)
	copy(l.ord, l.vlab)
	sortI32(l.ord)
	for _, r := range l.ord {
		b = binary.AppendUvarint(b, uint64(r))
	}
	n := uint64(l.n)
	for _, key := range l.bestKeys {
		lab := key & (1<<20 - 1)
		ft := key >> 20
		b = binary.AppendUvarint(b, ft/n)
		b = binary.AppendUvarint(b, ft%n)
		b = binary.AppendUvarint(b, lab)
	}
	l.formBuf = b
	return b
}

func sortI32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
