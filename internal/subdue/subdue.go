// Package subdue reimplements the SUBDUE substructure discovery
// system (Holder, Cook & Djoko 1994) used in Section 5.1 of the
// paper: a beam search over substructures of a single labeled graph,
// evaluated by how well replacing their instances compresses the
// graph, under either the Minimum Description Length principle or the
// Size principle. Instances are counted without overlap (vertex- and
// edge-disjoint), exactly as the paper ran the original system.
package subdue

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"tnkd/internal/engine"
	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/pattern"
)

// Principle selects the substructure evaluation heuristic.
type Principle int

const (
	// MDL evaluates a substructure by description-length compression:
	// DL(G) / (DL(S) + DL(G|S)). With uniformly labeled vertices it
	// favours small, very frequent substructures — the paper found it
	// "tends to give trivial results" on transportation data.
	MDL Principle = iota
	// Size evaluates by raw size compression: size(G) / (size(S) +
	// size(G|S)) with size = |V| + |E|. The paper found it surfaces
	// larger, more interesting patterns, at much higher cost.
	Size
)

// String names the principle.
func (p Principle) String() string {
	if p == MDL {
		return "MDL"
	}
	return "Size"
}

// Options configures a discovery run.
type Options struct {
	Principle Principle
	// BeamWidth bounds the substructures kept per search level
	// (paper: beam 4 and 5).
	BeamWidth int
	// MaxBest is the number of best substructures to report
	// (paper: best 3, 5, 15).
	MaxBest int
	// MaxVertices caps substructure size in vertices (paper: "up to
	// size 6"); 0 = unlimited.
	MaxVertices int
	// Limit caps the number of substructures expanded (SUBDUE's
	// -limit); 0 derives the classic default |E|/2.
	Limit int
	// MaxInstances caps instances tracked per substructure (both for
	// counting and extension generation); 0 = unlimited.
	MaxInstances int
	// MaxSteps bounds each isomorphism search (0 = unlimited).
	MaxSteps int
	// MinInstances filters reported substructures (default 2: a
	// pattern occurring once compresses nothing).
	MinInstances int
	// Parallelism is the worker count for beam-candidate evaluation:
	// each beam parent's instance-driven extension and scoring runs
	// as one unit of work on the engine pool. <= 0 selects
	// GOMAXPROCS; 1 runs fully serial. Results are identical for
	// every value.
	Parallelism int
}

// DefaultOptions mirrors the paper's MDL run: beam 4, best 3.
func DefaultOptions() Options {
	return Options{
		Principle:    MDL,
		BeamWidth:    4,
		MaxBest:      3,
		MaxInstances: 500,
		MaxSteps:     200000,
		MinInstances: 2,
	}
}

// Substructure is a discovered pattern with its evaluation.
type Substructure struct {
	Graph *graph.Graph
	Code  string
	// Instances is the non-overlapping (vertex- and edge-disjoint)
	// instance count, the support notion the paper's SUBDUE runs
	// used ("without allowing overlap").
	Instances int
	// Value is the evaluation score; higher is better.
	Value float64
	// pat is the shared pattern-store representation (internal/
	// pattern): the substructure graph with its canonical code and
	// all discovered (possibly overlapping) instances as a
	// single-target embedding list. The instances seed the next
	// extension round — the classic SUBDUE instance-growth design
	// that avoids global isomorphism searches.
	pat *pattern.Pattern
}

// String renders a one-line summary.
func (s Substructure) String() string {
	return fmt.Sprintf("sub{V=%d E=%d instances=%d value=%.4f}",
		s.Graph.NumVertices(), s.Graph.NumEdges(), s.Instances, s.Value)
}

// Result is the outcome of one discovery pass.
type Result struct {
	Best       []Substructure // descending by value
	Considered int            // substructures expanded
	Generated  int            // candidate substructures evaluated
}

// Discover runs one SUBDUE pass over g.
func Discover(g *graph.Graph, opts Options) *Result {
	d := newDiscoverer(g, opts)
	return d.run()
}

type discoverer struct {
	g    *graph.Graph
	opts Options
	eval evaluator

	seen map[string]bool
	res  *Result
}

func newDiscoverer(g *graph.Graph, opts Options) *discoverer {
	if opts.BeamWidth < 1 {
		opts.BeamWidth = 4
	}
	if opts.MaxBest < 1 {
		opts.MaxBest = 3
	}
	if opts.Limit <= 0 {
		opts.Limit = g.NumEdges()/2 + 1
	}
	if opts.MinInstances <= 0 {
		opts.MinInstances = 2
	}
	return &discoverer{
		g:    g,
		opts: opts,
		eval: newEvaluator(g, opts.Principle),
		seen: make(map[string]bool),
		res:  &Result{},
	}
}

// alreadySeen reports whether an isomorphic pattern was evaluated
// before, and records the code if not. Codes are exact canonical
// codes (iso.Code), so dedup is a plain set-membership test.
func (d *discoverer) alreadySeen(code string) bool {
	if d.seen[code] {
		return true
	}
	d.seen[code] = true
	return false
}

func (d *discoverer) run() *Result {
	parents := d.initialSubstructures()
	var best []Substructure
	for d.res.Considered < d.opts.Limit && len(parents) > 0 {
		// Expand as many beam parents as the -limit allows this
		// level. Each parent's extension+scoring is independent of
		// the others, so the beam fans out across the engine pool;
		// the cross-parent isomorphism dedup below stays serial and
		// walks parents in beam order, which keeps the child list —
		// and therefore the whole search — identical at every
		// Parallelism.
		expand := parents
		if remain := d.opts.Limit - d.res.Considered; len(expand) > remain {
			expand = expand[:remain]
		}
		outs := engine.Map(d.opts.Parallelism, len(expand), func(i int) []rawCand {
			return d.extend(&expand[i])
		})
		d.res.Considered += len(expand)
		// Serial cross-parent dedup in beam order, then a second
		// fan-out scoring only the survivors — duplicate patterns
		// (common between sibling parents) are never scored.
		var survivors []rawCand
		for _, cands := range outs {
			for _, rc := range cands {
				if d.alreadySeen(rc.code) {
					continue
				}
				d.res.Generated++
				survivors = append(survivors, rc)
			}
		}
		children := engine.Map(d.opts.Parallelism, len(survivors), func(i int) Substructure {
			return d.score(survivors[i].pattern, survivors[i].code, survivors[i].embs)
		})
		for _, sub := range children {
			if sub.Instances >= d.opts.MinInstances && sub.Graph.NumEdges() > 0 {
				best = insertCapped(best, sub, d.opts.MaxBest)
			}
		}
		sortByValue(children)
		if len(children) > d.opts.BeamWidth {
			children = children[:d.opts.BeamWidth]
		}
		parents = children
	}
	d.res.Best = best
	return d.res
}

// initialSubstructures builds one single-vertex substructure per
// distinct vertex label, with every matching vertex as an instance.
func (d *discoverer) initialSubstructures() []Substructure {
	var subs []Substructure
	for _, label := range d.g.VertexLabels() {
		pg := graph.New("sub")
		pg.AddVertex(label)
		embs := iso.NewEmbeddingList(pg)
		for v := range graph.VertexID(d.g.NumVertices()) {
			if d.g.Vertex(v).Label != label {
				continue
			}
			embs.IDs = append(embs.IDs, int32(v))
			if d.opts.MaxInstances > 0 && embs.Len() >= d.opts.MaxInstances {
				break
			}
		}
		if embs.Len() == 0 {
			continue
		}
		subs = append(subs, d.score(pg, iso.Code(pg), embs))
	}
	sortByValue(subs)
	if len(subs) > d.opts.BeamWidth {
		subs = subs[:d.opts.BeamWidth]
	}
	return subs
}

// score computes the non-overlapping instance count and evaluation
// value of a pattern given its canonical code (already computed by
// the extend/dedup stage) and its discovered embeddings.
func (d *discoverer) score(pg *graph.Graph, code string, embs iso.EmbeddingList) Substructure {
	disjoint := iso.GreedyNonOverlap(embs)
	return Substructure{
		Graph:     pg,
		Code:      code,
		Instances: disjoint,
		Value:     d.eval.value(pg, disjoint),
		pat:       pattern.NewSingle(pg, code, embs),
	}
}

// extCandidate accumulates the instances of one extension pattern.
type extCandidate struct {
	pattern *graph.Graph
	embs    iso.EmbeddingList
	seen    map[string]bool // instance dedup by target vertex+edge sets
	// re re-anchors instances reached through a different isomorphic
	// construction onto pattern, built lazily on first need and
	// reused so each re-anchor costs O(pattern), not O(target).
	re *iso.Reanchorer
}

// descKey identifies an extension construction independent of the
// target edge that induced it: extending the parent pattern at the
// given pattern vertices with an edge of the given label (and, for
// new-vertex extensions, a new endpoint with the given vertex label)
// always produces the identical extension graph, so its fingerprint
// and candidate grouping can be computed once and cached.
type descKey struct {
	kind   byte // 'b' both-in, 'o' out to new vertex, 'i' in from new vertex
	a, b   graph.VertexID
	elabel string
	vlabel string
}

// descInfo caches one extension construction.
type descInfo struct {
	cand *extCandidate
	// pattern is the graph built for this construction; its vertex
	// and edge IDs are deterministic, so embeddings can be built
	// without re-cloning.
	pattern *graph.Graph
	pe      graph.EdgeID   // the added pattern edge
	nv      graph.VertexID // the added pattern vertex ('o'/'i' kinds)
	// needsReanchor is true when cand.pattern is a different
	// (isomorphic) construction, so embeddings must be re-anchored.
	needsReanchor bool
}

// rawCand is one unscored extension pattern produced by extend, with
// the canonical code used for cross-parent dedup. Scoring happens
// after dedup so duplicates are never scored.
type rawCand struct {
	code    string
	pattern *graph.Graph
	embs    iso.EmbeddingList
}

// extend generates all one-edge extensions of sub that occur in the
// graph, growing each parent instance by one incident edge — the
// classic SUBDUE instance-driven extension, which never performs a
// global isomorphism search. Extension patterns are grouped by exact
// canonical code (equal code ⟺ isomorphic), so isomorphic
// constructions merge with no verification search. It reads only the
// shared graph (never the shared seen-set or result counters), so
// distinct parents extend safely in parallel.
func (d *discoverer) extend(sub *Substructure) []rawCand {
	candidates := make(map[string]*extCandidate)
	var order []string // codes in first-seen order, for determinism
	descs := make(map[descKey]*descInfo)

	// resolveDesc builds the extension pattern for a construction the
	// first time it appears and merges it with the isomorphic
	// candidate when one exists.
	resolveDesc := func(key descKey) *descInfo {
		if info, ok := descs[key]; ok {
			return info
		}
		ext := sub.Graph.Clone()
		info := &descInfo{pattern: ext, nv: -1}
		switch key.kind {
		case 'b':
			info.pe = ext.AddEdge(key.a, key.b, key.elabel)
		case 'o':
			info.nv = ext.AddVertex(key.vlabel)
			info.pe = ext.AddEdge(key.a, info.nv, key.elabel)
		case 'i':
			info.nv = ext.AddVertex(key.vlabel)
			info.pe = ext.AddEdge(info.nv, key.a, key.elabel)
		}
		code := iso.Code(ext)
		if c, ok := candidates[code]; ok {
			info.cand = c
			info.needsReanchor = true
		} else {
			info.cand = &extCandidate{pattern: ext, embs: iso.NewEmbeddingList(ext), seen: make(map[string]bool)}
			candidates[code] = info.cand
			order = append(order, code)
		}
		descs[key] = info

		return info
	}

	// Pattern vertices are walked in ascending ID order, a fixed
	// order because it decides instance insertion order, fingerprint
	// first-seen order and the MaxInstances cutoff, all of which must
	// be deterministic.
	npv := graph.VertexID(sub.Graph.NumVertices())
	insts := sub.pat.Embs
	// newEmb is the scratch the extended instance is built in before
	// it is copied into its candidate's list.
	var newEmb iso.DenseEmbedding
	for i := range insts.Len() {
		emb := insts.At(i)
		// Reverse map: target vertex -> pattern vertex.
		rev := make(map[graph.VertexID]graph.VertexID, len(emb.Verts))
		for pv, tv := range emb.Verts {
			rev[graph.VertexID(tv)] = graph.VertexID(pv)
		}
		usedEdges := make(map[graph.EdgeID]bool, len(emb.Edges))
		for _, te := range emb.Edges {
			usedEdges[graph.EdgeID(te)] = true
		}
		atVertexCap := d.opts.MaxVertices > 0 && sub.Graph.NumVertices() >= d.opts.MaxVertices
		for pv := range npv {
			tv := graph.VertexID(emb.Verts[pv])
			for _, te := range append(d.g.OutEdges(tv), d.g.InEdges(tv)...) {
				if usedEdges[te] {
					continue
				}
				ed := d.g.Edge(te)
				pFrom, fromIn := rev[ed.From]
				pTo, toIn := rev[ed.To]
				if ed.From == ed.To && !(fromIn && toIn) {
					continue // self-loops attach only via both-in
				}
				var key descKey
				var newTarget graph.VertexID // target vertex mapped by the new pattern vertex
				switch {
				case fromIn && toIn:
					key = descKey{kind: 'b', a: pFrom, b: pTo, elabel: ed.Label}
				case fromIn:
					if atVertexCap {
						continue
					}
					key = descKey{kind: 'o', a: pFrom, elabel: ed.Label, vlabel: d.g.Vertex(ed.To).Label}
					newTarget = ed.To
				case toIn:
					if atVertexCap {
						continue
					}
					key = descKey{kind: 'i', a: pTo, elabel: ed.Label, vlabel: d.g.Vertex(ed.From).Label}
					newTarget = ed.From
				default:
					continue
				}
				info := resolveDesc(key)
				cand := info.cand
				if d.opts.MaxInstances > 0 && cand.embs.Len() >= d.opts.MaxInstances {
					continue
				}
				// Dense growth: the added pattern vertex/edge IDs are
				// exactly the parent's caps (patterns are built by
				// Clone+Add), so the embedding extends by appending.
				newEmb.Verts = append(newEmb.Verts[:0], emb.Verts...)
				if info.nv >= 0 {
					newEmb.Verts = append(newEmb.Verts, int32(newTarget))
				}
				newEmb.Edges = append(append(newEmb.Edges[:0], emb.Edges...), int32(te))
				ikey := instanceKey(newEmb)
				if cand.seen[ikey] {
					continue
				}
				cand.seen[ikey] = true
				if info.needsReanchor {
					// The same instance subgraph reached through a
					// different construction: re-anchor the embedding
					// onto the candidate's pattern graph.
					if cand.re == nil {
						maxSteps := d.opts.MaxSteps
						if maxSteps <= 0 {
							maxSteps = 10000
						}
						cand.re = iso.NewReanchorer(cand.pattern, d.g, maxSteps)
					}
					re, ok := cand.re.Reanchor(newEmb)
					if !ok {
						continue
					}
					cand.embs.Append(re)
					continue
				}
				cand.embs.Append(newEmb)
			}
		}
	}

	var out []rawCand
	for _, code := range order {
		cand := candidates[code]
		out = append(out, rawCand{code: code, pattern: cand.pattern, embs: cand.embs})
	}
	return out
}

// instanceKey identifies an instance by its target vertex and edge
// sets, independent of the pattern-side numbering.
func instanceKey(e iso.DenseEmbedding) string {
	vs := make([]int, 0, len(e.Verts))
	for _, tv := range e.Verts {
		vs = append(vs, int(tv))
	}
	es := make([]int, 0, len(e.Edges))
	for _, te := range e.Edges {
		es = append(es, int(te))
	}
	sort.Ints(vs)
	sort.Ints(es)
	buf := make([]byte, 0, 8*(len(vs)+len(es))+2)
	for _, v := range vs {
		buf = strconv.AppendInt(buf, int64(v), 36)
		buf = append(buf, ',')
	}
	buf = append(buf, '|')
	for _, e := range es {
		buf = strconv.AppendInt(buf, int64(e), 36)
		buf = append(buf, ',')
	}
	return string(buf)
}

func sortByValue(subs []Substructure) {
	sort.SliceStable(subs, func(i, j int) bool {
		if subs[i].Value != subs[j].Value {
			return subs[i].Value > subs[j].Value
		}
		// Tie-break toward more instances, then larger patterns.
		if subs[i].Instances != subs[j].Instances {
			return subs[i].Instances > subs[j].Instances
		}
		return subs[i].Graph.NumEdges() > subs[j].Graph.NumEdges()
	})
}

func insertCapped(best []Substructure, s Substructure, cap int) []Substructure {
	best = append(best, s)
	sortByValue(best)
	if len(best) > cap {
		best = best[:cap]
	}
	return best
}

// evaluator scores substructures under a principle.
type evaluator struct {
	principle Principle
	numV      int
	numE      int
	vLabels   int
	eLabels   int
	dlG       float64
	sizeG     float64
}

func newEvaluator(g *graph.Graph, p Principle) evaluator {
	ev := evaluator{
		principle: p,
		numV:      g.NumVertices(),
		numE:      g.NumEdges(),
		vLabels:   len(g.VertexLabels()),
		eLabels:   len(g.EdgeLabels()),
	}
	ev.dlG = ev.dl(ev.numV, ev.numE, 0)
	ev.sizeG = float64(ev.numV + ev.numE)
	return ev
}

// dl is the description length (bits) of a graph with v vertices and
// e edges over the global label alphabets; instances supervertices
// add extraInst pointer costs.
func (ev evaluator) dl(v, e, extraInst int) float64 {
	if v <= 0 {
		return 0
	}
	vBits := float64(v) * log2(float64(ev.vLabels)+1)
	eBits := float64(e) * (2*log2(float64(v)) + log2(float64(ev.eLabels)+1))
	instBits := float64(extraInst) * log2(float64(v)+1)
	return vBits + eBits + instBits
}

func log2(x float64) float64 {
	if x <= 1 {
		return 1 // at least one bit per element keeps DL monotone
	}
	return math.Log2(x)
}

// value computes the compression score of a substructure with the
// given non-overlapping instance count.
func (ev evaluator) value(sub *graph.Graph, instances int) float64 {
	vs, es := sub.NumVertices(), sub.NumEdges()
	if instances == 0 {
		return 0
	}
	// Compressed graph: each instance collapses to one supervertex.
	cv := ev.numV - instances*(vs-1)
	ce := ev.numE - instances*es
	if cv < 1 {
		cv = 1
	}
	if ce < 0 {
		ce = 0
	}
	switch ev.principle {
	case MDL:
		den := ev.dl(vs, es, 0) + ev.dl(cv, ce, instances)
		if den <= 0 {
			return 0
		}
		return ev.dlG / den
	default: // Size
		den := float64(vs+es) + float64(cv+ce)
		if den <= 0 {
			return 0
		}
		return ev.sizeG / den
	}
}

// Render draws a substructure as an indented adjacency list, the
// textual analogue of the paper's Figures 1–3.
func Render(s Substructure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "substructure (%d vertices, %d edges, %d instances, value %.4f)\n",
		s.Graph.NumVertices(), s.Graph.NumEdges(), s.Instances, s.Value)
	b.WriteString(s.Graph.Dump())
	return b.String()
}
