// Package fsg reimplements the FSG-style frequent connected subgraph
// miner of Kuramochi & Karypis used by the paper: given a set of
// labeled graph transactions and a minimum support s, it finds every
// connected subgraph pattern contained in at least s transactions.
//
// The miner is level-wise (Apriori): level k holds all frequent
// patterns with k edges. Candidates for level k+1 are generated by
// one-edge extension of level-k patterns, de-duplicated with exact
// canonical codes (iso.Code: equal code if and only if isomorphic,
// so dedup is a plain map hit with no isomorphism fallback), and
// pruned by downward closure (every connected (k)-edge subpattern
// must itself be frequent). This enumerates the same pattern lattice
// as FSG's core-join candidate generation, so the frequent-pattern
// output is identical; only the intermediate candidate sets differ.
//
// Support counting is incremental (the FSG embedding-list design,
// internal/pattern): each frequent pattern carries per-TID embedding
// lists, and a candidate's occurrences are found by extending its
// parent's embeddings across the one new edge instead of re-running
// a full subgraph-isomorphism search per transaction. Patterns whose
// embedding lists exceed the MaxEmbeddings budget keep warm-start
// seeds instead, and their extensions search only when the seeds
// miss, so the memory/speed trade-off is metered and the worst case
// costs what classic counting cost.
//
// The miner also meters its candidate sets so the paper's
// out-of-memory behaviour on large transactions with many distinct
// vertex labels (Section 6.1, Section 8) can be reproduced as a
// controlled abort instead of an actual OOM kill.
package fsg

import (
	"fmt"
	"sort"
	"time"

	"tnkd/internal/engine"
	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/pattern"
)

// Options configures a mining run.
type Options struct {
	// MinSupport is the absolute number of transactions a pattern
	// must occur in. Must be >= 1.
	MinSupport int
	// MaxEdges caps pattern size (0 = unlimited).
	MaxEdges int
	// MaxCandidates aborts the run when a level's candidate set
	// exceeds this size (0 = unlimited). This models the memory
	// exhaustion FSG hits on transaction sets with many distinct
	// vertex labels.
	MaxCandidates int
	// MaxSteps bounds each subgraph-isomorphism test (0 = unlimited).
	// Tests that exceed the budget count as non-containment; the
	// result records that this happened.
	MaxSteps int
	// MaxEmbeddings bounds the complete embedding lists the
	// incremental support counter retains: no single pattern may
	// store more than this many embeddings, and each level retains
	// at most this many in total. Patterns over budget are demoted
	// to warm-start seeds (pattern.SeedsPerTID per transaction) and
	// their extensions fall back to isomorphism searches when the
	// seeds miss — the memory dial of the embedding-list design,
	// metered in the same spirit as MaxCandidates so the paper's
	// memory-exhaustion regime stays honestly reproducible. 0
	// selects DefaultMaxEmbeddings; a negative value disables the
	// budget entirely, which can materialise combinatorially many
	// embeddings on symmetric patterns (the uniform-label Section 5
	// regime) and is for controlled experiments only.
	MaxEmbeddings int
	// AllowSelfLoops permits candidate edges from a vertex to itself.
	// OD data has none (origin != destination), so the default is off.
	AllowSelfLoops bool
	// Parallelism is the worker count for support counting, which
	// fans out the subgraph-isomorphism tests per candidate across
	// its parent's TID list. <= 0 selects GOMAXPROCS; 1 runs fully
	// serial. Results are identical for every value.
	Parallelism int
	// Checkpoint, when non-nil, is invoked on the mining goroutine
	// after each completed level that produced frequent patterns,
	// with the level's stats and its patterns — the streaming
	// persistence hook of internal/store, so a long run's completed
	// levels are on disk before the next level starts. The patterns
	// are the miner's own: the callback must not retain or mutate
	// them beyond the call. A checkpoint error aborts the run and is
	// returned by Mine.
	Checkpoint func(level LevelStats, pats []Pattern) error
	// Progress, when non-nil, is invoked on the mining goroutine
	// after every completed level — including empty and aborted ones
	// — with that level's statistics, wall-clock duration, and the
	// cumulative pattern count. It fires during the mine (after the
	// level's checkpoint, before the next level starts), so a long
	// run streams level-by-level visibility instead of going silent
	// until Mine returns. The callback must not block for long; it
	// runs on the mining goroutine.
	Progress func(LevelProgress)
}

// LevelProgress is one per-level progress event: the level's stats
// plus run-cumulative context.
type LevelProgress struct {
	LevelStats
	// Elapsed is the wall-clock time the level took to mine.
	Elapsed time.Duration
	// Patterns is the cumulative frequent-pattern count including
	// this level.
	Patterns int
}

// Pattern is one frequent subgraph with its support: the shared
// pattern-with-embeddings representation of internal/pattern (graph,
// hashed isomorphism-invariant code, TID list, per-TID embedding
// lists).
type Pattern = pattern.Pattern

// LevelStats meters one Apriori level.
type LevelStats struct {
	Edges      int // pattern size at this level
	Candidates int // candidates generated after dedup + closure pruning
	Frequent   int // candidates meeting MinSupport
	IsoTests   int // full isomorphism searches run (fallback path only)
	// BudgetedTests counts this level's isomorphism searches that hit
	// MaxSteps before finding an embedding and were treated as
	// non-containment; Result.BudgetedTests is the sum over levels.
	BudgetedTests int
	// Embeddings counts the embeddings enumerated while support
	// counting the level — the memory unit MaxEmbeddings budgets, so
	// blow-up experiments report candidate volume and embedding
	// volume in comparable terms.
	Embeddings int
}

// Result is the outcome of a mining run.
type Result struct {
	Patterns []Pattern
	Levels   []LevelStats
	// Aborted is set when the run stopped early (candidate budget).
	Aborted     bool
	AbortReason string
	// BudgetedTests counts iso tests that hit MaxSteps and were
	// treated as non-containment, summed over Levels.
	BudgetedTests int
}

// MaxPattern returns the largest frequent pattern (most edges,
// breaking ties by support), or nil if none.
func (r *Result) MaxPattern() *Pattern {
	var best *Pattern
	for i := range r.Patterns {
		p := &r.Patterns[i]
		if best == nil || p.Graph.NumEdges() > best.Graph.NumEdges() ||
			(p.Graph.NumEdges() == best.Graph.NumEdges() && p.Support > best.Support) {
			best = p
		}
	}
	return best
}

// DefaultMaxEmbeddings is the per-level embedding budget selected by
// Options.MaxEmbeddings == 0: large enough that typical levels count
// fully incrementally, small enough that a symmetric pattern whose
// embedding count explodes (a hub with uniform vertex labels has
// factorially many automorphic images per instance) demotes to seeds
// quickly instead of exhausting time and memory; tuned on the
// ScaledConfig(0.05) structural benchmark.
const DefaultMaxEmbeddings = 1 << 13

// Mine runs the frequent-subgraph search over the transactions.
func Mine(txns []*graph.Graph, opts Options) (*Result, error) {
	if opts.MinSupport < 1 {
		return nil, fmt.Errorf("fsg: MinSupport %d < 1", opts.MinSupport)
	}
	switch {
	case opts.MaxEmbeddings == 0:
		opts.MaxEmbeddings = DefaultMaxEmbeddings
	case opts.MaxEmbeddings < 0:
		opts.MaxEmbeddings = 0 // unlimited internally
	}
	m := &miner{txns: txns, opts: opts, res: &Result{}}
	if err := m.run(); err != nil {
		return nil, err
	}
	return m.res, nil
}

// MinSupportFraction converts a fractional support (e.g. 0.05 for the
// paper's 5%) into the absolute count for a transaction set.
func MinSupportFraction(numTxns int, frac float64) int {
	s := int(float64(numTxns)*frac + 0.9999)
	if s < 1 {
		s = 1
	}
	return s
}

type edgeTriple struct {
	fromLabel, edgeLabel, toLabel string
}

type miner struct {
	txns []*graph.Graph
	opts Options
	res  *Result

	frequentTriples []edgeTriple

	// Connectivity scratch for the serial closure-pruning loop,
	// reused across maskedConnected calls.
	ccDeg   []int
	ccSeen  []bool
	ccStack []graph.VertexID
}

func (m *miner) run() error {
	levelStart := time.Now()
	level1 := m.mineSingleEdges()
	if err := m.checkpoint(level1); err != nil {
		return err
	}
	m.res.Patterns = append(m.res.Patterns, level1...)
	m.emitProgress(levelStart)
	current := level1
	k := 1
	for len(current) > 0 {
		if m.opts.MaxEdges > 0 && k >= m.opts.MaxEdges {
			break
		}
		levelStart = time.Now()
		next := m.extendLevel(current, k)
		if m.res.Aborted {
			m.emitProgress(levelStart)
			return nil
		}
		if err := m.checkpoint(next); err != nil {
			return err
		}
		m.res.Patterns = append(m.res.Patterns, next...)
		m.emitProgress(levelStart)
		current = next
		k++
	}
	return nil
}

// emitProgress fires Options.Progress for the most recently appended
// level. Every level-mining step (mineSingleEdges, extendLevel, the
// candidate-budget abort) appends exactly one LevelStats row, so one
// event fires per level, in order, during the mine.
func (m *miner) emitProgress(levelStart time.Time) {
	if m.opts.Progress == nil || len(m.res.Levels) == 0 {
		return
	}
	m.opts.Progress(LevelProgress{
		LevelStats: m.res.Levels[len(m.res.Levels)-1],
		Elapsed:    time.Since(levelStart),
		Patterns:   len(m.res.Patterns),
	})
}

// checkpoint hands a completed level to Options.Checkpoint. Empty
// levels are skipped: they carry no patterns to persist, and the
// level-store format indexes only populated levels.
func (m *miner) checkpoint(pats []Pattern) error {
	if m.opts.Checkpoint == nil || len(pats) == 0 {
		return nil
	}
	stats := m.res.Levels[len(m.res.Levels)-1]
	if err := m.opts.Checkpoint(stats, pats); err != nil {
		return fmt.Errorf("fsg: checkpoint at level %d: %w", stats.Edges, err)
	}
	return nil
}

// mineSingleEdges computes F1: frequent (fromLabel, edgeLabel,
// toLabel) triples with their TID lists and per-TID embedding lists,
// in one pass over every edge. Embeddings follow the matcher's
// vertex-map semantics: one embedding per matching vertex pair, the
// first parallel edge as witness. Self-loop edges support the triple
// count but admit no injective embedding, so they contribute the TID
// only.
func (m *miner) mineSingleEdges() []Pattern {
	type pairOcc struct {
		tr       edgeTriple
		from, to graph.VertexID
	}
	tids := make(map[edgeTriple][]int)
	embs := make(map[edgeTriple][][]iso.DenseEmbedding)
	generated := 0
	for ti, t := range m.txns {
		seen := make(map[edgeTriple]bool)
		seenPair := make(map[pairOcc]bool)
		for _, e := range t.Edges() {
			ed := t.Edge(e)
			tr := edgeTriple{
				fromLabel: t.Vertex(ed.From).Label,
				edgeLabel: ed.Label,
				toLabel:   t.Vertex(ed.To).Label,
			}
			if !seen[tr] {
				seen[tr] = true
				tids[tr] = append(tids[tr], ti)
				embs[tr] = append(embs[tr], nil)
			}
			occ := pairOcc{tr: tr, from: ed.From, to: ed.To}
			if ed.From != ed.To && !seenPair[occ] {
				seenPair[occ] = true
				lists := embs[tr]
				lists[len(lists)-1] = append(lists[len(lists)-1], iso.DenseEmbedding{
					Verts: []graph.VertexID{ed.From, ed.To},
					Edges: []graph.EdgeID{e},
				})
				generated++
			}
		}
	}
	var frequent []Pattern
	triples := sortedTriples(tids)
	for _, tr := range triples {
		if len(tids[tr]) < m.opts.MinSupport {
			continue
		}
		g := tripleGraph(tr)
		p := Pattern{
			Graph:   g,
			Code:    iso.Code(g),
			Support: len(tids[tr]),
			TIDs:    pattern.TIDSetFromSlice(tids[tr]),
			Embs:    embs[tr],
		}
		if m.opts.MaxEmbeddings > 0 && p.NumEmbeddings() > m.opts.MaxEmbeddings {
			p.DemoteToSeeds()
		}
		frequent = append(frequent, p)
		m.frequentTriples = append(m.frequentTriples, tr)
	}
	pattern.EnforceBudget(frequent, m.opts.MaxEmbeddings)
	m.res.Levels = append(m.res.Levels, LevelStats{
		Edges: 1, Candidates: len(triples), Frequent: len(frequent), Embeddings: generated,
	})
	return frequent
}

// sortedTriples returns the map's keys in lexicographic order — the
// deterministic F1 output order.
func sortedTriples(m map[edgeTriple][]int) []edgeTriple {
	out := make([]edgeTriple, 0, len(m))
	for tr := range m {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return lessTriple(out[i], out[j]) })
	return out
}

func lessTriple(a, b edgeTriple) bool {
	if a.fromLabel != b.fromLabel {
		return a.fromLabel < b.fromLabel
	}
	if a.edgeLabel != b.edgeLabel {
		return a.edgeLabel < b.edgeLabel
	}
	return a.toLabel < b.toLabel
}

func tripleGraph(tr edgeTriple) *graph.Graph {
	g := graph.New("pat")
	from := g.AddVertex(tr.fromLabel)
	to := g.AddVertex(tr.toLabel)
	g.AddEdge(from, to, tr.edgeLabel)
	return g
}

// candidate is a proposed (k+1)-edge pattern: the parent pattern it
// was constructed from by adding newEdge (IDs preserved, so parent
// embeddings extend directly), and the TID filter its support is
// confined to (the intersection of every isomorphic parent's TID
// list, by downward closure).
type candidate struct {
	g         *graph.Graph
	code      string
	parent    *Pattern
	newEdge   graph.EdgeID
	tidFilter pattern.TIDSet
}

// extendLevel generates, prunes and counts the next level.
func (m *miner) extendLevel(current []Pattern, k int) []Pattern {
	freqCodes := make(map[string]bool, len(current))
	for i := range current {
		freqCodes[current[i].Code] = true
	}
	// Candidates dedup by exact canonical code: equal codes certify
	// isomorphism, so a duplicate extension (the same pattern reached
	// from another parent) is a single map hit — no per-bucket
	// isomorphism search.
	byCode := make(map[string]*candidate)
	numCands := 0
	for i := range current {
		p := &current[i]
		for _, ext := range m.extensions(p.Graph) {
			code := iso.Code(ext)
			if dup := byCode[code]; dup != nil {
				// The same pattern reached from another parent: its
				// support is confined to both parents' TID columns —
				// a sorted-merge intersection (neither input is
				// modified; candidates share their parents' columns
				// until a duplicate narrows them).
				dup.tidFilter = dup.tidFilter.And(p.TIDs)
				continue
			}
			numCands++
			byCode[code] = &candidate{
				g: ext, code: code, parent: p,
				newEdge:   graph.EdgeID(ext.NumEdges() - 1),
				tidFilter: p.TIDs,
			}
			if m.opts.MaxCandidates > 0 && numCands > m.opts.MaxCandidates {
				m.res.Aborted = true
				m.res.AbortReason = fmt.Sprintf(
					"candidate set at level %d exceeded %d (FSG exhausts memory here on the paper's hardware)",
					k+1, m.opts.MaxCandidates)
				m.res.Levels = append(m.res.Levels, LevelStats{Edges: k + 1, Candidates: numCands})
				return nil
			}
		}
	}

	// Downward-closure pruning, in code order for determinism (codes
	// are a total order over isomorphism classes).
	codes := make([]string, 0, len(byCode))
	for c := range byCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	var pruned []*candidate
	for _, c := range codes {
		if cand := byCode[c]; m.passesClosure(cand.g, cand.newEdge, freqCodes) {
			pruned = append(pruned, cand)
		}
	}

	stats := LevelStats{Edges: k + 1, Candidates: len(pruned)}

	// Support counting is the Apriori bottleneck. Each candidate
	// extends its parent's stored embeddings across the one new edge
	// (pattern.CountExtension), running a full isomorphism search
	// only when the parent's lists overflowed the embedding budget.
	// Candidates fan out on the engine worker pool; the merge below
	// walks them in input order, so the output is identical at every
	// Parallelism. Tallies are shared atomic counters — their totals
	// are order-independent.
	var isoTests, budgetedTests, generated engine.Counter
	copts := pattern.CountOptions{MaxEmbeddings: m.opts.MaxEmbeddings, MaxSteps: m.opts.MaxSteps}
	counted := engine.Map(m.opts.Parallelism, len(pruned), func(i int) *Pattern {
		cand := pruned[i]
		pat, st := pattern.CountExtension(m.txns, cand.parent, cand.g, cand.code, cand.newEdge, cand.tidFilter, copts)
		isoTests.Add(st.IsoTests)
		budgetedTests.Add(st.BudgetedTests)
		generated.Add(st.Generated)
		return pat
	})
	stats.IsoTests = isoTests.Load()
	stats.BudgetedTests = budgetedTests.Load()
	stats.Embeddings = generated.Load()
	m.res.BudgetedTests += stats.BudgetedTests

	var next []Pattern
	for _, pat := range counted {
		if pat.Support >= m.opts.MinSupport {
			next = append(next, *pat)
		}
	}
	pattern.EnforceBudget(next, m.opts.MaxEmbeddings)
	stats.Frequent = len(next)
	m.res.Levels = append(m.res.Levels, stats)
	return next
}

// extensions returns every one-edge extension of p: a new edge
// between existing vertices, or a new vertex attached by one edge.
// Edge labels and endpoint vertex labels are restricted to the
// frequent single-edge triples (any extension using an infrequent
// triple cannot be frequent, by downward closure).
func (m *miner) extensions(p *graph.Graph) []*graph.Graph {
	var exts []*graph.Graph
	vs := p.Vertices()

	hasEdge := func(g *graph.Graph, from, to graph.VertexID, label string) bool {
		for _, e := range g.OutEdges(from) {
			ed := g.Edge(e)
			if ed.To == to && ed.Label == label {
				return true
			}
		}
		return false
	}

	for _, tr := range m.frequentTriples {
		// New edge between existing vertices.
		for _, u := range vs {
			if p.Vertex(u).Label != tr.fromLabel {
				continue
			}
			for _, v := range vs {
				if u == v && !m.opts.AllowSelfLoops {
					continue
				}
				if p.Vertex(v).Label != tr.toLabel {
					continue
				}
				if hasEdge(p, u, v, tr.edgeLabel) {
					// Duplicate (from,to,label) edges cannot occur in
					// de-duplicated transactions.
					continue
				}
				ext := p.Clone()
				ext.AddEdge(u, v, tr.edgeLabel)
				exts = append(exts, ext)
			}
		}
		// New vertex attached to an existing one.
		for _, u := range vs {
			if p.Vertex(u).Label == tr.fromLabel {
				ext := p.Clone()
				w := ext.AddVertex(tr.toLabel)
				ext.AddEdge(u, w, tr.edgeLabel)
				exts = append(exts, ext)
			}
			if p.Vertex(u).Label == tr.toLabel {
				ext := p.Clone()
				w := ext.AddVertex(tr.fromLabel)
				ext.AddEdge(w, u, tr.edgeLabel)
				exts = append(exts, ext)
			}
		}
	}
	return exts
}

// passesClosure checks that every connected (k)-edge subpattern of
// cand (obtained by deleting one edge, dropping an orphaned vertex)
// is frequent. Deleting newEdge recovers the parent, frequent by
// construction, so it is skipped. Each subpattern is examined as a
// masked view of cand — no clone, no compaction — and membership is
// an exact canonical-code lookup (iso.CodeMasked equals the code of
// the materialised subpattern), so the check neither misses frequent
// subpatterns nor passes infrequent ones.
func (m *miner) passesClosure(cand *graph.Graph, newEdge graph.EdgeID, freqCodes map[string]bool) bool {
	for _, e := range cand.Edges() {
		if e == newEdge {
			continue
		}
		if !m.maskedConnected(cand, e) {
			// Deleting this edge disconnects the pattern; the
			// disconnected remainder is not a connected subpattern,
			// so closure does not constrain it.
			continue
		}
		if !freqCodes[iso.CodeMasked(cand, e)] {
			return false
		}
	}
	return true
}

// maskedConnected reports whether g minus edge skip (orphans dropped)
// is connected and non-empty. It runs once per (candidate, edge) in
// the serial pruning loop, so its working arrays live on the miner.
func (m *miner) maskedConnected(g *graph.Graph, skip graph.EdgeID) bool {
	vcap := g.VertexCap()
	if cap(m.ccDeg) < vcap {
		m.ccDeg = make([]int, vcap)
		m.ccSeen = make([]bool, vcap)
	}
	deg, seen := m.ccDeg[:vcap], m.ccSeen[:vcap]
	for i := 0; i < vcap; i++ {
		deg[i], seen[i] = 0, false
	}
	n := 0
	start := graph.VertexID(-1)
	for _, e := range g.Edges() {
		if e == skip {
			continue
		}
		ed := g.Edge(e)
		if deg[ed.From] == 0 {
			n++
			if start < 0 {
				start = ed.From
			}
		}
		deg[ed.From]++
		if ed.To != ed.From {
			if deg[ed.To] == 0 {
				n++
			}
			deg[ed.To]++
		}
	}
	if start < 0 {
		return false
	}
	stack := append(m.ccStack[:0], start)
	defer func() { m.ccStack = stack[:0] }()
	seen[start] = true
	reached := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.OutEdges(v) {
			if e == skip {
				continue
			}
			if u := g.Edge(e).To; !seen[u] {
				seen[u] = true
				reached++
				stack = append(stack, u)
			}
		}
		for _, e := range g.InEdges(v) {
			if e == skip {
				continue
			}
			if u := g.Edge(e).From; !seen[u] {
				seen[u] = true
				reached++
				stack = append(stack, u)
			}
		}
	}
	return reached == n
}
