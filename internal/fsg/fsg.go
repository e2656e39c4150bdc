// Package fsg reimplements the FSG-style frequent connected subgraph
// miner of Kuramochi & Karypis used by the paper: given a set of
// labeled graph transactions and a minimum support s, it finds every
// connected subgraph pattern contained in at least s transactions.
//
// The miner is level-wise (Apriori): level k holds all frequent
// patterns with k edges. Candidates for level k+1 are generated by
// one-edge extension of level-k patterns, de-duplicated with exact
// canonical codes (equal code if and only if isomorphic, so dedup is
// a plain map hit with no isomorphism fallback), and pruned by
// downward closure (every connected (k)-edge subpattern must itself
// be frequent). This enumerates the same pattern lattice as FSG's
// core-join candidate generation, so the frequent-pattern output is
// identical; only the intermediate candidate sets differ.
//
// Candidate generation never clones a pattern it may discard, and
// never codes an extension a cheap exact test can reject. A parent
// visits only the frequent triples that share an endpoint label with
// it (the triples are indexed by interned label after level 1), and
// each extension is an iso.Extension descriptor. Downward closure runs
// in two steps. First a key check rejects the extension, before it is
// coded, when deleting one of its edges leaves a connected subpattern
// whose edge-triple multiset key (a sum of per-triple hashes) no
// frequent pattern has; at transportation-scale windows this rejects
// most extensions. Only the kept extensions are coded on an overlay
// of the parent (iso.CodeExtended) and deduplicated; then the exact
// closure test codes each distinct candidate's one-edge-deleted
// subpatterns on the same overlay. Only its survivors are
// materialised. The key check, coding, closure and materialising run
// on the engine pool; the dedup merge walks parents in order, so
// results are identical at every Parallelism (the FSG and gSpan papers
// likewise avoid a clone-and-code pass per extension, by core joins
// and rightmost extension respectively).
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
	"slices"
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
	// Parallelism is the worker count for candidate generation (the
	// key check and coding of each parent's extensions, the closure
	// check of each distinct candidate, materialising the survivors)
	// and for support counting, which fans out one task per
	// candidate. <= 0 selects GOMAXPROCS; 1 runs fully serial.
	// Results are identical for every value.
	Parallelism int
	// Checkpoint, when non-nil, is invoked on the mining goroutine
	// after each completed level that produced frequent patterns,
	// with the level's stats and its patterns — the streaming
	// persistence hook of internal/store: each level is encoded into
	// the store writer as it completes, so the run never holds the
	// whole result in encoded form, and the writer publishes the file
	// once, on Close. The patterns are the miner's own: the callback
	// must not retain or mutate them beyond the call. A checkpoint
	// error aborts the run and is returned by Mine.
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
	Edges int // pattern size at this level
	// Candidates counts the level's candidates after dedup and
	// closure pruning. On the row of a MaxCandidates abort it counts
	// the deduplicated candidates generated before the abort, before
	// closure pruning and key-rejected ones included
	// (MaxCandidates+1); the Section 8 blow-up table sums this column.
	Candidates int
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
	// The frequent triples indexed by interned endpoint label:
	// labelID interns their vertex labels, tripleLabels[i] holds
	// triple i's interned (from, to) labels, byLabel[id] lists in
	// triple order the triples with an endpoint labelled id, and
	// tripleIndex maps a triple to its index.
	labelID      map[string]int32
	tripleLabels [][2]int32
	byLabel      [][]int32
	tripleIndex  map[edgeTriple]int32
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
// first parallel edge as witness. A self-loop edge admits no injective
// embedding of the two-vertex triple pattern, and candidate
// generation never adds a loop edge, so loops support no pattern: OD
// data has none (origin != destination).
func (m *miner) mineSingleEdges() []Pattern {
	type pairOcc struct {
		tr       edgeTriple
		from, to graph.VertexID
	}
	occs := make(map[edgeTriple]*tripleOcc)
	generated := 0
	for ti, t := range m.txns {
		seenPair := make(map[pairOcc]bool)
		for e := range graph.EdgeID(t.NumEdges()) {
			ed := t.Edge(e)
			if ed.From == ed.To {
				continue
			}
			tr := edgeTriple{
				fromLabel: t.Vertex(ed.From).Label,
				edgeLabel: ed.Label,
				toLabel:   t.Vertex(ed.To).Label,
			}
			o := occs[tr]
			if o == nil {
				o = &tripleOcc{embs: iso.EmbeddingList{NV: 2, NE: 1}}
				occs[tr] = o
			}
			if n := len(o.tids); n == 0 || o.tids[n-1] != ti {
				o.tids = append(o.tids, ti)
				o.offs = append(o.offs, int32(o.embs.Len()))
			}
			if pair := (pairOcc{tr: tr, from: ed.From, to: ed.To}); !seenPair[pair] {
				seenPair[pair] = true
				o.embs.IDs = append(o.embs.IDs, int32(ed.From), int32(ed.To), int32(e))
				generated++
			}
		}
	}
	var frequent []Pattern
	triples := sortedTriples(occs)
	for _, tr := range triples {
		o := occs[tr]
		if len(o.tids) < m.opts.MinSupport {
			continue
		}
		g := tripleGraph(tr)
		embs := o.embs
		embs.IDs = slices.Clone(embs.IDs)
		p := Pattern{
			Graph:   g,
			Code:    iso.Code(g),
			Support: len(o.tids),
			TIDs:    pattern.TIDSetFromSlice(o.tids),
			Embs:    embs,
			Offsets: append(o.offs, int32(embs.Len())),
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
	m.indexTriples()
	return frequent
}

// indexTriples builds the label index of the frequent triples.
func (m *miner) indexTriples() {
	m.labelID = make(map[string]int32)
	intern := func(label string) int32 {
		id, ok := m.labelID[label]
		if !ok {
			id = int32(len(m.byLabel))
			m.labelID[label] = id
			m.byLabel = append(m.byLabel, nil)
		}
		return id
	}
	m.tripleIndex = make(map[edgeTriple]int32, len(m.frequentTriples))
	for i, tr := range m.frequentTriples {
		m.tripleIndex[tr] = int32(i)
		from, to := intern(tr.fromLabel), intern(tr.toLabel)
		m.tripleLabels = append(m.tripleLabels, [2]int32{from, to})
		m.byLabel[from] = append(m.byLabel[from], int32(i))
		if to != from {
			m.byLabel[to] = append(m.byLabel[to], int32(i))
		}
	}
}

// tripleOcc accumulates one triple's TIDs and embeddings at level 1;
// offs holds the first row of each TID's list.
type tripleOcc struct {
	tids []int
	embs iso.EmbeddingList
	offs []int32
}

// sortedTriples returns the map's keys in lexicographic order — the
// deterministic F1 output order.
func sortedTriples(m map[edgeTriple]*tripleOcc) []edgeTriple {
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
// extends by ext (coded as an overlay, iso.CodeExtended), and the TID
// filter its support is confined to (the intersection of every
// isomorphic parent's TID list, by downward closure). g and newEdge
// are set only once the candidate survives closure: g is the
// materialised extension with the parent's IDs preserved, so parent
// embeddings extend across newEdge directly.
type candidate struct {
	code      string
	parent    *Pattern
	ext       iso.Extension
	tidFilter pattern.TIDSet
	g         *graph.Graph
	newEdge   graph.EdgeID
}

// codedExt is one coded extension of a parent: the frequent triple it
// adds, whether the key check rejects it (kept in the list only to be
// counted against MaxCandidates), and its canonical code.
type codedExt struct {
	ext      iso.Extension
	triple   int32
	rejected bool
	code     string
}

// tripleKey hashes frequent triple i for multiset keys: the key of a
// pattern is the sum of its edges' triple keys, so it is invariant
// under isomorphism and the key of a one-edge-deleted subpattern is
// one subtraction. Two patterns with different keys are never
// isomorphic; equal keys prove nothing.
func tripleKey(i int32) uint64 {
	// splitmix64 finaliser.
	x := uint64(i) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// edgeKeys returns the triple key of each edge of g, in edge ID order.
// Every edge of a frequent pattern is a frequent triple.
func (m *miner) edgeKeys(g *graph.Graph) []uint64 {
	keys := make([]uint64, g.NumEdges())
	for i := range keys {
		ed := g.Edge(graph.EdgeID(i))
		keys[i] = tripleKey(m.tripleIndex[edgeTriple{g.Vertex(ed.From).Label, ed.Label, g.Vertex(ed.To).Label}])
	}
	return keys
}

// levelKeys returns the edge keys of each pattern of a level and the
// set of the patterns' keys.
func (m *miner) levelKeys(level []Pattern) ([][]uint64, map[uint64]bool) {
	keys := make([][]uint64, len(level))
	freqKeys := make(map[uint64]bool, len(level))
	for i := range level {
		keys[i] = m.edgeKeys(level[i].Graph)
		freqKeys[sumKeys(keys[i])] = true
	}
	return keys, freqKeys
}

// keyCheck is the downward-closure test that runs before an extension
// is coded: an extension is rejected when deleting one of its parent's
// edges leaves a connected subpattern whose triple multiset key no
// frequent pattern of the level has. Such a subpattern is infrequent,
// so the extension cannot be a candidate. The set of one-edge-deleted
// keys is an isomorphism invariant of the extension (deleting the
// extension edge itself leaves the frequent parent), so isomorphic
// extensions of different parents are all rejected or all kept.
type keyCheck struct {
	freqKeys map[uint64]bool
	keys     []uint64 // the parent's edge keys, in edge ID order
	sum      uint64   // the parent's key
	// ends holds the parent's edge endpoints and, in its last slot,
	// the extension's; uf is connectedWithout's scratch.
	ends [][2]graph.VertexID
	uf   []graph.VertexID
}

// newKeyCheck prepares the key check of parent g's extensions, given
// g's edge keys and the level's frequent-pattern keys.
func newKeyCheck(g *graph.Graph, keys []uint64, freqKeys map[uint64]bool) *keyCheck {
	return &keyCheck{
		freqKeys: freqKeys,
		keys:     keys,
		sum:      sumKeys(keys),
		ends:     overlayEnds(g, iso.Extension{}),
		uf:       make([]graph.VertexID, g.NumVertices()+1),
	}
}

// rejects reports whether the extension ext, adding frequent triple
// triple, fails the key check. A key lookup is cheap; connectivity is
// tested only for a deletion whose key is missing.
func (kc *keyCheck) rejects(ext iso.Extension, triple int32) bool {
	kc.ends[len(kc.ends)-1] = [2]graph.VertexID{ext.From, ext.To}
	key := kc.sum + tripleKey(triple)
	for i, k := range kc.keys {
		if !kc.freqKeys[key-k] && connectedWithout(kc.ends, i, kc.uf) {
			return true
		}
	}
	return false
}

// codeChunk is how many parents one engine.Map call codes before
// their extensions are merged: a candidate-budget abort then stops
// within one chunk of the serial walk's stopping point instead of
// coding the whole level first.
const codeChunk = 256

// extendLevel generates, prunes and counts the next level.
func (m *miner) extendLevel(current []Pattern, k int) []Pattern {
	pruned := m.candidates(current, k)
	if m.res.Aborted {
		return nil
	}
	return m.count(pruned, k)
}

// count support-counts level k+1's pruned candidates, appends the
// level's row and returns its frequent patterns.
func (m *miner) count(pruned []*candidate, k int) []Pattern {
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

// candidates returns level k+1's candidates in code order, deduped and
// pruned by downward closure, each materialised. The closure test
// runs in two steps, both on the engine pool. First the key check
// (keyCheck) rejects an extension from its parent's edge keys alone,
// before it is coded; then only the kept extensions are coded
// (iso.CodeExtended), and each distinct kept code passes the exact
// closure test (passesClosure) before it is materialised. The dedup
// merge walks parents and their extensions in order, so the first
// parent, the TID filters and a MaxCandidates abort (which appends the
// level's row and returns nil) are identical at every Parallelism.
//
// A MaxCandidates abort counts distinct codes before closure, rejected
// ones included, so under a candidate budget rejected extensions are
// coded too; they only count toward the budget and never become
// candidates. Without a budget they are never coded.
func (m *miner) candidates(current []Pattern, k int) []*candidate {
	keys, freqKeys := m.levelKeys(current)

	// Candidates dedup by exact canonical code: equal codes certify
	// isomorphism, so a duplicate extension (the same pattern reached
	// from another parent) is a single map hit — no per-bucket
	// isomorphism search.
	budget := m.opts.MaxCandidates > 0
	byCode := make(map[string]*candidate)
	// rejected holds the codes of key-rejected extensions, kept only
	// to count them against MaxCandidates. The key check is an
	// isomorphism invariant, so no code is both rejected and kept.
	rejected := make(map[string]bool)
	numCands := 0
	for lo := 0; lo < len(current); lo += codeChunk {
		hi := min(lo+codeChunk, len(current))
		coded := engine.Map(m.opts.Parallelism, hi-lo, func(i int) []codedExt {
			g := current[lo+i].Graph
			kc := newKeyCheck(g, keys[lo+i], freqKeys)
			exts := m.extensions(g)
			out := exts[:0]
			for _, x := range exts {
				x.rejected = kc.rejects(x.ext, x.triple)
				if x.rejected && !budget {
					continue
				}
				x.code = iso.CodeExtended(g, x.ext, -1)
				out = append(out, x)
			}
			return out
		})
		for i, exts := range coded {
			p := &current[lo+i]
			for _, x := range exts {
				switch dup := byCode[x.code]; {
				case x.rejected:
					if rejected[x.code] {
						continue
					}
					rejected[x.code] = true
				case dup != nil:
					// The same pattern reached from another parent: its
					// support is confined to both parents' TID columns —
					// a sorted-merge intersection (neither input is
					// modified; candidates share their parents' columns
					// until a duplicate narrows them).
					dup.tidFilter = dup.tidFilter.And(p.TIDs)
					continue
				default:
					byCode[x.code] = &candidate{code: x.code, parent: p, ext: x.ext, tidFilter: p.TIDs}
				}
				numCands++
				if budget && numCands > m.opts.MaxCandidates {
					m.res.Aborted = true
					m.res.AbortReason = fmt.Sprintf(
						"candidate set at level %d exceeded %d (FSG exhausts memory here on the paper's hardware)",
						k+1, m.opts.MaxCandidates)
					m.res.Levels = append(m.res.Levels, LevelStats{Edges: k + 1, Candidates: numCands})
					return nil
				}
			}
		}
	}

	// Exact closure, in code order for determinism (codes are a total
	// order over isomorphism classes). Only survivors are cloned.
	freqCodes := make(map[string]bool, len(current))
	for i := range current {
		freqCodes[current[i].Code] = true
	}
	cands := make([]*candidate, 0, len(byCode))
	for _, c := range byCode {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].code < cands[j].code })
	kept := engine.Map(m.opts.Parallelism, len(cands), func(i int) bool {
		c := cands[i]
		if !passesClosure(c, freqCodes) {
			return false
		}
		c.g, c.newEdge = c.ext.Apply(c.parent.Graph)
		return true
	})
	pruned := cands[:0]
	for i, c := range cands {
		if kept[i] {
			pruned = append(pruned, c)
		}
	}
	return pruned
}

// extensions returns every one-edge extension of p: a new edge
// between existing vertices, or a new vertex attached by one edge.
// Edge labels and endpoint vertex labels are restricted to the
// frequent single-edge triples (any extension using an infrequent
// triple cannot be frequent, by downward closure), and p visits only
// the triples with an endpoint label it has, in triple order.
func (m *miner) extensions(p *graph.Graph) []codedExt {
	nv := graph.VertexID(p.NumVertices())
	lab := make([]int32, nv)
	for i := range lab {
		lab[i] = -1
	}
	var visit []int32
	for v := range nv {
		id, ok := m.labelID[p.Vertex(v).Label]
		if !ok {
			id = -1 // no frequent triple touches this label
		}
		lab[v] = id
		if ok && !slices.Contains(lab[:v], id) {
			visit = append(visit, m.byLabel[id]...)
		}
	}
	slices.Sort(visit)
	visit = slices.Compact(visit)

	hasEdge := func(from, to graph.VertexID, label string) bool {
		for _, e := range p.OutEdges(from) {
			if ed := p.Edge(e); ed.To == to && ed.Label == label {
				return true
			}
		}
		return false
	}

	var exts []codedExt
	for _, ti := range visit {
		tr, ends := m.frequentTriples[ti], m.tripleLabels[ti]
		// New edge between existing vertices.
		for u := range nv {
			if lab[u] != ends[0] {
				continue
			}
			for v := range nv {
				if u == v || lab[v] != ends[1] {
					continue
				}
				if hasEdge(u, v, tr.edgeLabel) {
					// Duplicate (from,to,label) edges cannot occur in
					// de-duplicated transactions.
					continue
				}
				exts = append(exts, codedExt{ext: iso.Extension{From: u, To: v, Label: tr.edgeLabel}, triple: ti})
			}
		}
		// New vertex attached to an existing one.
		for u := range nv {
			if lab[u] == ends[0] {
				exts = append(exts, codedExt{ext: iso.Extension{From: u, To: nv, Label: tr.edgeLabel, NewLabel: tr.toLabel}, triple: ti})
			}
			if lab[u] == ends[1] {
				exts = append(exts, codedExt{ext: iso.Extension{From: nv, To: u, Label: tr.edgeLabel, NewLabel: tr.fromLabel}, triple: ti})
			}
		}
	}
	return exts
}

// passesClosure checks that every connected (k)-edge subpattern of
// the candidate (obtained by deleting one edge, dropping an orphaned
// vertex) is frequent. Deleting the extension edge recovers the
// parent, frequent by construction, so only parent edges are deleted.
// Each subpattern is examined on the overlay of parent + extension −
// one edge — no clone, no compaction — and membership is an exact
// canonical-code lookup (iso.CodeExtended with a skipped edge equals
// the code of the materialised subpattern), so the check neither
// misses frequent subpatterns nor passes infrequent ones. Candidates
// reach it only after passing the key check (keyCheck).
func passesClosure(c *candidate, freqCodes map[string]bool) bool {
	g := c.parent.Graph
	ends := overlayEnds(g, c.ext)
	uf := make([]graph.VertexID, g.NumVertices()+1)
	for e := range graph.EdgeID(g.NumEdges()) {
		if !connectedWithout(ends, int(e), uf) {
			// Deleting this edge disconnects the pattern; the
			// disconnected remainder is not a connected subpattern,
			// so closure does not constrain it.
			continue
		}
		if !freqCodes[iso.CodeExtended(g, c.ext, e)] {
			return false
		}
	}
	return true
}

// overlayEnds returns the edge endpoints of the overlay g + ext: g's
// edges in ID order, then the extension's.
func overlayEnds(g *graph.Graph, ext iso.Extension) [][2]graph.VertexID {
	ends := make([][2]graph.VertexID, 0, g.NumEdges()+1)
	for e := range graph.EdgeID(g.NumEdges()) {
		ed := g.Edge(e)
		ends = append(ends, [2]graph.VertexID{ed.From, ed.To})
	}
	return append(ends, [2]graph.VertexID{ext.From, ext.To})
}

func sumKeys(keys []uint64) uint64 {
	var sum uint64
	for _, k := range keys {
		sum += k
	}
	return sum
}

// connectedWithout reports whether the edges ends minus ends[skip]
// (vertices left without an edge dropped) form one non-empty
// connected graph. uf is union-find scratch indexed by vertex ID; -1
// marks a vertex no remaining edge touches.
func connectedWithout(ends [][2]graph.VertexID, skip int, uf []graph.VertexID) bool {
	for i := range uf {
		uf[i] = -1
	}
	find := func(v graph.VertexID) graph.VertexID {
		for uf[v] != v {
			uf[v] = uf[uf[v]]
			v = uf[v]
		}
		return v
	}
	comps := 0
	for i, ft := range ends {
		if i == skip {
			continue
		}
		for _, v := range ft {
			if uf[v] < 0 {
				uf[v] = v
				comps++
			}
		}
		if a, b := find(ft[0]), find(ft[1]); a != b {
			uf[a] = b
			comps--
		}
	}
	return comps == 1
}
