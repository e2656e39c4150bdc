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
	"log/slog"
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
	// Logger, when non-nil, receives structured mining logs: today
	// the MineDelta fold provenance (generation, appended TIDs,
	// reuse vs recount tallies). nil is silent.
	Logger *slog.Logger
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
	// Delta reports that the event came from a MineDelta fold.
	Delta bool
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
	// volume in comparable terms. A delta run (MineDelta) enumerates
	// only over the appended transactions for reused candidates, so
	// this undercounts the stored volume there by design.
	Embeddings int
	// Reused counts candidates whose old-transaction column came from
	// the persisted parent run (MineDelta only; zero in a full mine).
	Reused int
	// Promoted counts frequent patterns of this level that were
	// absent from the parent run — sub-threshold before the appended
	// transactions arrived (MineDelta only; zero in a full mine).
	Promoted int
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
	opts, err := normalizeOptions(opts)
	if err != nil {
		return nil, err
	}
	m := &miner{txns: txns, opts: opts, res: &Result{}}
	if err := m.run(); err != nil {
		return nil, err
	}
	return m.res, nil
}

// normalizeOptions validates the options shared by Mine and MineDelta
// and resolves the MaxEmbeddings sentinel values.
func normalizeOptions(opts Options) (Options, error) {
	if opts.MinSupport < 1 {
		return opts, fmt.Errorf("fsg: MinSupport %d < 1", opts.MinSupport)
	}
	switch {
	case opts.MaxEmbeddings == 0:
		opts.MaxEmbeddings = DefaultMaxEmbeddings
	case opts.MaxEmbeddings < 0:
		opts.MaxEmbeddings = 0 // unlimited internally
	}
	return opts, nil
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

	// Delta mode (MineDelta): prior holds the parent run's patterns
	// keyed by level then exact code, and newStart is the first
	// appended TID — txns[:newStart] are the parent run's transactions
	// whose support the persisted columns already prove. Nil/0 in a
	// full mine. priorMinSupport is the parent run's threshold (0 =
	// unknown), which gates the incremental level-1 path.
	prior           map[int]map[string]*Pattern
	newStart        int
	priorMinSupport int

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
		Delta:      m.prior != nil,
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

// tripleScan is the outcome of one single-edge pass: per-triple TID
// lists and aligned per-TID embedding lists, plus the enumeration
// count the embedding budget meters.
type tripleScan struct {
	tids      map[edgeTriple][]int
	embs      map[edgeTriple][][]iso.DenseEmbedding
	generated int
}

// scanTriples runs the F1 single-edge scan over txns, recording TIDs
// as index + tidOffset. Embeddings follow the matcher's vertex-map
// semantics: one embedding per matching vertex pair, the first
// parallel edge as witness. Self-loop edges support the triple-scan
// count but admit no injective embedding, so they contribute the TID
// only. A non-nil restrict limits collection to that triple set (the
// delta path's targeted promotion scan).
func scanTriples(txns []*graph.Graph, tidOffset int, restrict map[edgeTriple]bool) tripleScan {
	type pairOcc struct {
		tr       edgeTriple
		from, to graph.VertexID
	}
	sc := tripleScan{
		tids: make(map[edgeTriple][]int),
		embs: make(map[edgeTriple][][]iso.DenseEmbedding),
	}
	for ti, t := range txns {
		seen := make(map[edgeTriple]bool)
		seenPair := make(map[pairOcc]bool)
		for _, e := range t.Edges() {
			ed := t.Edge(e)
			tr := edgeTriple{
				fromLabel: t.Vertex(ed.From).Label,
				edgeLabel: ed.Label,
				toLabel:   t.Vertex(ed.To).Label,
			}
			if restrict != nil && !restrict[tr] {
				continue
			}
			if !seen[tr] {
				seen[tr] = true
				sc.tids[tr] = append(sc.tids[tr], ti+tidOffset)
				sc.embs[tr] = append(sc.embs[tr], nil)
			}
			occ := pairOcc{tr: tr, from: ed.From, to: ed.To}
			if ed.From != ed.To && !seenPair[occ] {
				seenPair[occ] = true
				lists := sc.embs[tr]
				lists[len(lists)-1] = append(lists[len(lists)-1], iso.DenseEmbedding{
					Verts: []graph.VertexID{ed.From, ed.To},
					Edges: []graph.EdgeID{e},
				})
				sc.generated++
			}
		}
	}
	return sc
}

// mineSingleEdges computes F1: frequent (fromLabel, edgeLabel,
// toLabel) triples with their TID lists and per-TID embedding lists.
// A delta run takes the incremental path when it can (see
// mineSingleEdgesDelta); otherwise — and in every full mine — the
// whole transaction set is scanned.
func (m *miner) mineSingleEdges() []Pattern {
	if m.prior != nil {
		if pats, ok := m.mineSingleEdgesDelta(); ok {
			return pats
		}
	}
	sc := scanTriples(m.txns, 0, nil)
	var frequent []Pattern
	candidates := 0
	for _, tr := range sortedTriples(sc.tids) {
		candidates++
		if len(sc.tids[tr]) < m.opts.MinSupport {
			continue
		}
		g := tripleGraph(tr)
		p := Pattern{
			Graph:   g,
			Code:    iso.Code(g),
			Support: len(sc.tids[tr]),
			TIDs:    pattern.TIDSetFromSlice(sc.tids[tr]),
			Embs:    sc.embs[tr],
		}
		if m.opts.MaxEmbeddings > 0 && p.NumEmbeddings() > m.opts.MaxEmbeddings {
			p.DemoteToSeeds()
		}
		frequent = append(frequent, p)
		m.frequentTriples = append(m.frequentTriples, tr)
	}
	pattern.EnforceBudget(frequent, m.opts.MaxEmbeddings)
	lv := LevelStats{
		Edges: 1, Candidates: candidates, Frequent: len(frequent), Embeddings: sc.generated,
	}
	if m.prior != nil {
		// Fallback rescan in delta mode: only the promotion tally is
		// delta-specific.
		for i := range frequent {
			if m.priorAt(1, frequent[i].Code) == nil {
				lv.Promoted++
			}
		}
	}
	m.res.Levels = append(m.res.Levels, lv)
	return frequent
}

// mineSingleEdgesDelta is the incremental F1 pass: stored level-1
// columns are reused verbatim, only the appended transactions are
// scanned in full, and old transactions are re-read only for the
// triples that appear in the appended transactions without a stored
// record (promotion candidates). This is exact when the delta
// threshold is at least the parent run's: a triple absent from the
// store was sub-threshold over the old transactions, so it can reach
// the (no lower) new threshold only by gaining support in the
// appended transactions — in which case the targeted scan sees it.
// With an unknown prior threshold or a lowered one the premise fails
// and the caller falls back to the full rescan (ok = false), as it
// does when a stored level-1 record is not a recognisable
// single-edge pattern.
func (m *miner) mineSingleEdgesDelta() ([]Pattern, bool) {
	if m.priorMinSupport <= 0 || m.opts.MinSupport < m.priorMinSupport {
		return nil, false
	}
	storedByTriple := make(map[edgeTriple]*Pattern, len(m.prior[1]))
	for _, sp := range m.prior[1] {
		tr, ok := tripleOf(sp.Graph)
		if !ok {
			return nil, false
		}
		storedByTriple[tr] = sp
	}
	newScan := scanTriples(m.txns[m.newStart:], m.newStart, nil)
	var restrict map[edgeTriple]bool
	for tr := range newScan.tids {
		if storedByTriple[tr] == nil {
			if restrict == nil {
				restrict = make(map[edgeTriple]bool)
			}
			restrict[tr] = true
		}
	}
	var oldScan tripleScan
	if len(restrict) > 0 {
		oldScan = scanTriples(m.txns[:m.newStart], 0, restrict)
	}

	// The triple universe of this pass: every stored triple plus
	// every triple seen in the appended transactions. Triples that
	// occur only in old transactions and were sub-threshold there
	// cannot qualify now, so they are rightly absent.
	universe := make(map[edgeTriple]bool, len(storedByTriple)+len(newScan.tids))
	for tr := range storedByTriple {
		universe[tr] = true
	}
	for tr := range newScan.tids {
		universe[tr] = true
	}

	var frequent []Pattern
	lv := LevelStats{Edges: 1, Candidates: len(universe), Embeddings: newScan.generated + oldScan.generated}
	for _, tr := range sortedTriples(universe) {
		sp := storedByTriple[tr]
		var tids, partial pattern.TIDSet
		var embs [][]iso.DenseEmbedding
		overflowed := false
		bare := false
		switch {
		case sp != nil:
			tids = sp.TIDs.Clone()
			switch {
			case sp.Embs != nil:
				embs = append(embs, sp.Embs...)
				if sp.Overflowed {
					// The stored lists keep their per-TID completeness
					// marks; an overflowed record without marks (legacy
					// data) treats every stored list as seeds. Appended
					// lists from the fresh scan below stay complete.
					overflowed = true
					partial = sp.Partial.Clone()
					if partial.Len() == 0 {
						partial = sp.TIDs.Clone()
					}
				}
			case sp.TIDs.Len() > 0:
				overflowed, bare = true, true // bare column stays bare
			default:
				overflowed = sp.Overflowed
			}
		default:
			tids = pattern.TIDSetFromSlice(oldScan.tids[tr])
			embs = append(embs, oldScan.embs[tr]...)
		}
		for _, tid := range newScan.tids[tr] {
			tids.Add(tid)
		}
		if !bare {
			embs = append(embs, newScan.embs[tr]...)
		}
		if tids.Len() < m.opts.MinSupport {
			continue
		}
		g := tripleGraph(tr)
		p := Pattern{
			Graph:      g,
			Code:       iso.Code(g),
			Support:    tids.Len(),
			TIDs:       tids,
			Embs:       embs,
			Overflowed: overflowed,
			Partial:    partial,
		}
		if m.opts.MaxEmbeddings > 0 && p.NumEmbeddings() > m.opts.MaxEmbeddings {
			p.DemoteToSeeds()
		}
		if sp != nil {
			lv.Reused++
		} else {
			lv.Promoted++
		}
		frequent = append(frequent, p)
		m.frequentTriples = append(m.frequentTriples, tr)
	}
	pattern.EnforceBudget(frequent, m.opts.MaxEmbeddings)
	lv.Frequent = len(frequent)
	m.res.Levels = append(m.res.Levels, lv)
	return frequent, true
}

// tripleOf recovers the (from, edge, to) triple from a stored
// single-edge pattern graph, which tripleGraph always builds as
// vertex 0 -> vertex 1 via edge 0. ok = false for any other shape —
// the store did not come from this miner's F1 pass.
func tripleOf(g *graph.Graph) (edgeTriple, bool) {
	if g == nil || g.VertexCap() != 2 || g.EdgeCap() != 1 ||
		!g.HasVertex(0) || !g.HasVertex(1) || !g.HasEdge(0) {
		return edgeTriple{}, false
	}
	ed := g.Edge(0)
	if ed.From != 0 || ed.To != 1 {
		return edgeTriple{}, false
	}
	return edgeTriple{
		fromLabel: g.Vertex(0).Label,
		edgeLabel: ed.Label,
		toLabel:   g.Vertex(1).Label,
	}, true
}

// sortedTriples returns the map's keys in lexicographic order — the
// deterministic F1 output order of both the full and the delta pass.
func sortedTriples[V any](m map[edgeTriple]V) []edgeTriple {
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
				// a word-parallel bitset intersection (neither input
				// is modified; candidates share their parents'
				// columns until a duplicate narrows them).
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
	// In delta mode a candidate the parent run already proved reuses
	// its persisted column (TIDs, support, embeddings) rebased onto
	// this run's candidate graph and extends only over the appended
	// transactions; a candidate absent from the parent run — sub-
	// threshold before the append — counts over every transaction,
	// which is exactly the promotion work a delta cannot skip.
	// Candidates fan out on the engine worker pool; the merge below
	// walks them in input order, so the output is identical at every
	// Parallelism. Tallies are shared atomic counters — their totals
	// are order-independent.
	var isoTests, budgetedTests, generated, reused engine.Counter
	copts := pattern.CountOptions{MaxEmbeddings: m.opts.MaxEmbeddings, MaxSteps: m.opts.MaxSteps}
	counted := engine.Map(m.opts.Parallelism, len(pruned), func(i int) *Pattern {
		cand := pruned[i]
		if stored := m.priorAt(k+1, cand.code); stored != nil {
			if base, ok := pattern.Rebase(stored, cand.g, cand.code); ok {
				pat, st := pattern.CountExtensionFrom(base, m.txns, cand.parent, cand.newEdge, m.deltaFilter(cand.tidFilter), copts)
				isoTests.Add(st.IsoTests)
				budgetedTests.Add(st.BudgetedTests)
				generated.Add(st.Generated)
				reused.Add(1)
				return pat
			}
		}
		pat, st := pattern.CountExtension(m.txns, cand.parent, cand.g, cand.code, cand.newEdge, cand.tidFilter, copts)
		isoTests.Add(st.IsoTests)
		budgetedTests.Add(st.BudgetedTests)
		generated.Add(st.Generated)
		return pat
	})
	stats.IsoTests = isoTests.Load()
	stats.BudgetedTests = budgetedTests.Load()
	stats.Embeddings = generated.Load()
	stats.Reused = reused.Load()
	m.res.BudgetedTests += stats.BudgetedTests

	var next []Pattern
	for _, pat := range counted {
		if pat.Support >= m.opts.MinSupport {
			if m.prior != nil && m.priorAt(k+1, pat.Code) == nil {
				stats.Promoted++
			}
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
