package fsg

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tnkd/internal/dataset"
	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/partition"
)

// referenceCandidates is the clone-per-extension candidate generation
// the overlay coder replaced, kept as the test oracle: every
// extension of every parent is materialised and coded with iso.Code,
// deduped in parent order, and pruned by closure over the clone with
// iso.CodeMasked and a masked connectivity test. It returns the
// pruned candidates in code order, or nil after appending the abort
// row when MaxCandidates is exceeded.
func referenceCandidates(m *miner, current []Pattern, k int) []*candidate {
	freqCodes := make(map[string]bool, len(current))
	for i := range current {
		freqCodes[current[i].Code] = true
	}
	byCode := make(map[string]*candidate)
	numCands := 0
	for i := range current {
		p := &current[i]
		for _, ext := range referenceExtensions(m, p.Graph) {
			code := iso.Code(ext)
			if dup := byCode[code]; dup != nil {
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
	codes := make([]string, 0, len(byCode))
	for c := range byCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	var pruned []*candidate
	for _, c := range codes {
		if cand := byCode[c]; referenceClosure(cand.g, cand.newEdge, freqCodes) {
			pruned = append(pruned, cand)
		}
	}
	return pruned
}

// referenceExtensions clones p once per one-edge extension, walking
// every frequent triple with string label compares.
func referenceExtensions(m *miner, p *graph.Graph) []*graph.Graph {
	var exts []*graph.Graph
	nv := graph.VertexID(p.NumVertices())
	hasEdge := func(from, to graph.VertexID, label string) bool {
		for _, e := range p.OutEdges(from) {
			if ed := p.Edge(e); ed.To == to && ed.Label == label {
				return true
			}
		}
		return false
	}
	for _, tr := range m.frequentTriples {
		for u := range nv {
			if p.Vertex(u).Label != tr.fromLabel {
				continue
			}
			for v := range nv {
				if u == v || p.Vertex(v).Label != tr.toLabel || hasEdge(u, v, tr.edgeLabel) {
					continue
				}
				ext := p.Clone()
				ext.AddEdge(u, v, tr.edgeLabel)
				exts = append(exts, ext)
			}
		}
		for u := range nv {
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

// referenceClosure requires every connected one-edge-deleted
// subpattern of the materialised candidate, other than the parent,
// to be frequent.
func referenceClosure(cand *graph.Graph, newEdge graph.EdgeID, freqCodes map[string]bool) bool {
	for e := range graph.EdgeID(cand.NumEdges()) {
		if e == newEdge || !referenceConnected(cand, e) {
			continue
		}
		if !freqCodes[iso.CodeMasked(cand, e)] {
			return false
		}
	}
	return true
}

// referenceConnected reports whether g minus edge skip, orphans
// dropped, is connected and non-empty, by materialising it.
func referenceConnected(g *graph.Graph, skip graph.EdgeID) bool {
	c := withoutEdge(g, skip)
	return len(c.WeaklyConnectedComponents()) == 1
}

// withoutEdge materialises g minus edge skip with every vertex left
// without an edge dropped, the rest renumbered in ascending ID order.
func withoutEdge(g *graph.Graph, skip graph.EdgeID) *graph.Graph {
	keep := make([]bool, g.NumVertices())
	for e := range graph.EdgeID(g.NumEdges()) {
		if e != skip {
			keep[g.Edge(e).From], keep[g.Edge(e).To] = true, true
		}
	}
	sub := graph.New(g.Name)
	newID := make([]graph.VertexID, g.NumVertices())
	for v := range graph.VertexID(g.NumVertices()) {
		if keep[v] {
			newID[v] = sub.AddVertex(g.Vertex(v).Label)
		}
	}
	for e := range graph.EdgeID(g.NumEdges()) {
		if ed := g.Edge(e); e != skip {
			sub.AddEdge(newID[ed.From], newID[ed.To], ed.Label)
		}
	}
	return sub
}

// temporalFixture is the transaction set of tndtemporal -scale 0.04
// -days 150 (the CI fixture window) with its Figure 4 mining options.
func temporalFixture() ([]*graph.Graph, Options) {
	d := dataset.Generate(dataset.DefaultConfig().Scaled(0.04))
	// The vertex-label cap is the 30th percentile of the unfiltered
	// per-day label counts, plus one (experiments.labelCap).
	counts := partition.DayVertexLabelCounts(d)
	sort.Ints(counts)
	opts := partition.DefaultTemporalOptions()
	opts.MaxVertexLabels = max(counts[len(counts)*30/100]+1, 4)
	opts.MaxDays = 150
	txns := partition.Temporal(d, opts).Transactions
	return txns, Options{MinSupport: MinSupportFraction(len(txns), 0.05), MaxEdges: 8, MaxSteps: 200000}
}

// structuralFixture is one breadth-first partitioning of the
// uniform-label OD graph, as Algorithm 1 mines it.
func structuralFixture() ([]*graph.Graph, Options) {
	d := dataset.Generate(dataset.DefaultConfig().Scaled(0.02))
	g := d.BuildGraph(dataset.GraphOptions{Attr: dataset.TransitHours, Vertices: dataset.UniformLabels})
	txns := partition.SplitGraph(g, partition.SplitOptions{
		K: 40, Strategy: partition.BreadthFirst, Rand: rand.New(rand.NewSource(17)),
	})
	return txns, Options{MinSupport: 8, MaxEdges: 4, MaxSteps: 200000}
}

// selfLoopTxns is a synthetic set over two vertex and two edge labels
// with self-loops, which support no pattern: mining it checks that
// loop-bearing transactions count only their loop-free edges. Each
// transaction keeps the first of any repeated (from, to, label) edges.
func selfLoopTxns(n int, seed int64) []*graph.Graph {
	type edge struct {
		from, to graph.VertexID
		label    string
	}
	rng := rand.New(rand.NewSource(seed))
	txns := make([]*graph.Graph, n)
	for i := range txns {
		g := graph.New(fmt.Sprintf("t%d", i))
		for j := 0; j < 5; j++ {
			g.AddVertex([]string{"a", "b"}[rng.Intn(2)])
		}
		seen := make(map[edge]bool)
		for j := 0; j < 7; j++ {
			e := edge{graph.VertexID(rng.Intn(5)), graph.VertexID(rng.Intn(5)), []string{"x", "y"}[rng.Intn(2)]}
			if !seen[e] {
				seen[e] = true
				g.AddEdge(e.from, e.to, e.label)
			}
		}
		txns[i] = g
	}
	return txns
}

// TestCandidatesMatchCloneReference checks that overlay-coded
// candidate generation yields exactly the clone-per-extension
// reference's candidates at every level: the same codes in the same
// order, each with the same first parent, new edge ID, materialised
// graph and TID filter — and, under a candidate budget, the same
// abort row and reason, also when only the key-rejected extensions
// push the count over the budget. Both run on the same level-k
// patterns, at Parallelism 1 and 4.
func TestCandidatesMatchCloneReference(t *testing.T) {
	temporal, temporalOpts := temporalFixture()
	structural, structuralOpts := structuralFixture()
	loops := selfLoopTxns(30, 5)
	loopOpts := Options{MinSupport: 4, MaxEdges: 4}
	capped := loopOpts
	capped.MaxCandidates = 40
	// These budgets are crossed on level 3, where the key check rejects
	// extensions before the budget's last code in walk order and the
	// kept codes alone stay within budget (checked below): the abort
	// row matches only if rejected codes are counted.
	temporalRejCapped := temporalOpts
	temporalRejCapped.MaxCandidates = 40
	loopRejCapped := loopOpts
	loopRejCapped.MaxCandidates = 300
	for _, fx := range []struct {
		name string
		txns []*graph.Graph
		opts Options
		// rejectedCap marks a budget that only the count of rejected
		// codes crosses.
		rejectedCap bool
	}{
		{"temporal", temporal, temporalOpts, false},
		{"structural", structural, structuralOpts, false},
		{"selfloops", loops, loopOpts, false},
		{"selfloops-capped", loops, capped, false},
		{"temporal-capped-rejected", temporal, temporalRejCapped, true},
		{"selfloops-capped-rejected", loops, loopRejCapped, true},
	} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", fx.name, par), func(t *testing.T) {
				opts := fx.opts
				opts.Parallelism = par
				opts.MaxEmbeddings = DefaultMaxEmbeddings
				got := &miner{txns: fx.txns, opts: opts, res: &Result{}}
				ref := &miner{txns: fx.txns, opts: opts, res: &Result{}}
				current := got.mineSingleEdges()
				ref.mineSingleEdges()
				total := 0
				for k := 1; len(current) > 0 && k < opts.MaxEdges; k++ {
					if fx.rejectedCap {
						if _, kept := classifyExtensions(got, current); len(kept) > opts.MaxCandidates {
							t.Fatalf("level %d: %d kept codes exceed budget %d; the fixture must abort on rejected codes alone",
								k+1, len(kept), opts.MaxCandidates)
						}
					}
					gc := got.candidates(current, k)
					rc := referenceCandidates(ref, current, k)
					if len(gc) != len(rc) {
						t.Fatalf("level %d: %d candidates, reference %d", k+1, len(gc), len(rc))
					}
					for i := range gc {
						g, r := gc[i], rc[i]
						if g.code != r.code || g.parent != r.parent || g.newEdge != r.newEdge ||
							g.g.Dump() != r.g.Dump() || !g.tidFilter.Equal(r.tidFilter) {
							t.Fatalf("level %d candidate %d: got parent %d edge %d tids %v\n%s\nreference parent %d edge %d tids %v\n%s",
								k+1, i, parentIndex(g.parent, current), g.newEdge, g.tidFilter, g.g.Dump(),
								parentIndex(r.parent, current), r.newEdge, r.tidFilter, r.g.Dump())
						}
					}
					if got.res.Aborted != ref.res.Aborted || got.res.AbortReason != ref.res.AbortReason ||
						fmt.Sprint(got.res.Levels) != fmt.Sprint(ref.res.Levels) {
						t.Fatalf("level %d: aborted=%v %q rows %v, reference aborted=%v %q rows %v", k+1,
							got.res.Aborted, got.res.AbortReason, got.res.Levels,
							ref.res.Aborted, ref.res.AbortReason, ref.res.Levels)
					}
					if got.res.Aborted {
						break
					}
					total += len(gc)
					current = got.count(gc, k)
					ref.res.Levels = append(ref.res.Levels, got.res.Levels[len(got.res.Levels)-1])
				}
				if capped := fx.opts.MaxCandidates > 0; capped != got.res.Aborted || (!capped && total == 0) {
					t.Fatalf("fixture exercised %d candidates, aborted=%v", total, got.res.Aborted)
				}
			})
		}
	}
}

// parentIndex returns p's index in level, or -1.
func parentIndex(p *Pattern, level []Pattern) int {
	for i := range level {
		if &level[i] == p {
			return i
		}
	}
	return -1
}

// classifyExtensions materialises every extension of every parent in
// level (iso.Extension.Apply) and codes it with iso.Code, splitting
// the distinct codes by the key check's verdict. rejected maps each
// rejected code to its first materialisation.
func classifyExtensions(m *miner, level []Pattern) (rejected map[string]materialised, kept map[string]bool) {
	rejected, kept = make(map[string]materialised), make(map[string]bool)
	keys, freqKeys := m.levelKeys(level)
	for i := range level {
		g := level[i].Graph
		kc := newKeyCheck(g, keys[i], freqKeys)
		for _, x := range m.extensions(g) {
			child, newEdge := x.ext.Apply(g)
			code := iso.Code(child)
			if !kc.rejects(x.ext, x.triple) {
				kept[code] = true
			} else if _, seen := rejected[code]; !seen {
				rejected[code] = materialised{child, newEdge}
			}
		}
	}
	return rejected, kept
}

// materialised is an extension applied to its parent.
type materialised struct {
	g       *graph.Graph
	newEdge graph.EdgeID
}

// TestKeyRejectedNeverSurvive checks that the key check is exact: on
// every level of the reference fixtures, each extension it rejects,
// materialised and coded, fails the clone-reference closure, and no
// code is both rejected (from one parent) and kept (from another).
func TestKeyRejectedNeverSurvive(t *testing.T) {
	temporal, temporalOpts := temporalFixture()
	structural, structuralOpts := structuralFixture()
	for _, fx := range []struct {
		name string
		txns []*graph.Graph
		opts Options
	}{
		{"temporal", temporal, temporalOpts},
		{"structural", structural, structuralOpts},
		{"selfloops", selfLoopTxns(30, 5), Options{MinSupport: 4, MaxEdges: 4}},
	} {
		t.Run(fx.name, func(t *testing.T) {
			opts := fx.opts
			opts.MaxEmbeddings = DefaultMaxEmbeddings
			m := &miner{txns: fx.txns, opts: opts, res: &Result{}}
			current := m.mineSingleEdges()
			total := 0
			for k := 1; len(current) > 0 && k < opts.MaxEdges; k++ {
				freqCodes := make(map[string]bool, len(current))
				for i := range current {
					freqCodes[current[i].Code] = true
				}
				rejected, kept := classifyExtensions(m, current)
				for code, x := range rejected {
					if kept[code] {
						t.Fatalf("level %d: code both rejected and kept:\n%s", k+1, x.g.Dump())
					}
					if referenceClosure(x.g, x.newEdge, freqCodes) {
						t.Fatalf("level %d: key-rejected extension passes the reference closure:\n%s", k+1, x.g.Dump())
					}
				}
				total += len(rejected)
				current = m.count(m.candidates(current, k), k)
			}
			if total == 0 {
				t.Fatal("the key check rejected nothing; the fixture exercises nothing")
			}
		})
	}
}

// TestExtensionsClosureAllocs bounds what extending one fixed parent
// and closure-checking one of its candidates allocate: the extension
// list, the checks' scratch and codes, with no slice of the parent's
// IDs.
func TestExtensionsClosureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := &miner{frequentTriples: []edgeTriple{{"a", "x", "b"}, {"b", "y", "a"}, {"b", "x", "c"}}}
	m.indexTriples()
	pg := graph.New("p")
	a, b, c := pg.AddVertex("a"), pg.AddVertex("b"), pg.AddVertex("c")
	pg.AddEdge(a, b, "x")
	pg.AddEdge(b, a, "y")
	pg.AddEdge(b, c, "x")
	cand := &candidate{parent: &Pattern{Graph: pg}, ext: iso.Extension{From: b, To: 3, Label: "y", NewLabel: "a"}}
	freqCodes := map[string]bool{}
	for e := range graph.EdgeID(pg.NumEdges()) {
		freqCodes[iso.CodeExtended(pg, cand.ext, e)] = true
	}
	if !passesClosure(cand, freqCodes) {
		t.Fatal("candidate fails closure over its own subpattern codes")
	}
	const want = 15
	allocs := testing.AllocsPerRun(20, func() {
		m.extensions(pg)
		passesClosure(cand, freqCodes)
	})
	if allocs > want {
		t.Fatalf("extensions + passesClosure allocated %.0f times, want <= %d", allocs, want)
	}
}
