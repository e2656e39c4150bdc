package iso

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tnkd/internal/graph"
)

// The search-trace golden pins the matcher's search tree, not just its
// answers: for ~200 seeded (pattern, target, options) cases it records
// the number of search-tree nodes expanded, whether MaxSteps aborted the
// search, and every embedding in emission order, plus the re-anchoring
// result built on the same matcher. Any change to candidate order, edge
// reservation or step accounting shows up as a byte difference. Regenerate (only when the search tree is
// meant to change) with
//
//	go test ./internal/iso -run TestSearchTraceGolden -update-trace
var updateTrace = flag.Bool("update-trace", false, "rewrite testdata/search_trace.golden from the current matcher")

// searchTraceDraws is the number of cases drawn from the seed. Draws
// that would load an exclusion set (a matcher feature since removed)
// or remove edges and vertices from the target (graphs are append-only
// now) are skipped but still drawn, so every kept case keeps its inputs
// and its case number.
const searchTraceDraws = 300

// traceGraph builds a random graph with dense IDs from rng alone.
// Self-loops and parallel edges appear when loops is set (parallel
// edges arise naturally from repeated endpoint draws).
func traceGraph(rng *rand.Rand, nv, ne, vLabels, eLabels int, loops bool) *graph.Graph {
	g := graph.New("t")
	for i := 0; i < nv; i++ {
		g.AddVertex(fmt.Sprintf("v%d", rng.Intn(vLabels)))
	}
	for i := 0; i < ne; i++ {
		a, b := graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv))
		if a == b && !loops {
			continue
		}
		g.AddEdge(a, b, fmt.Sprintf("e%d", rng.Intn(eLabels)))
	}
	return g
}

// traceSubgraph extracts a connected subgraph of g by a seeded walk
// over its edges (in ascending ID order, so the result depends on rng
// only), renumbered densely in order of first touch.
func traceSubgraph(rng *rand.Rand, g *graph.Graph, edges int) *graph.Graph {
	ne := graph.EdgeID(g.NumEdges())
	if ne == 0 {
		return nil
	}
	chosen := []graph.EdgeID{graph.EdgeID(rng.Intn(int(ne)))}
	in := map[graph.EdgeID]bool{chosen[0]: true}
	touched := map[graph.VertexID]bool{}
	ed := g.Edge(chosen[0])
	touched[ed.From], touched[ed.To] = true, true
	for len(chosen) < edges {
		var frontier []graph.EdgeID
		for e := range ne {
			eed := g.Edge(e)
			if !in[e] && (touched[eed.From] || touched[eed.To]) {
				frontier = append(frontier, e)
			}
		}
		if len(frontier) == 0 {
			break
		}
		e := frontier[rng.Intn(len(frontier))]
		chosen = append(chosen, e)
		in[e] = true
		eed := g.Edge(e)
		touched[eed.From], touched[eed.To] = true, true
	}
	sub := graph.New("p")
	remap := map[graph.VertexID]graph.VertexID{}
	vtx := func(v graph.VertexID) graph.VertexID {
		if id, ok := remap[v]; ok {
			return id
		}
		id := sub.AddVertex(g.Vertex(v).Label)
		remap[v] = id
		return id
	}
	for _, e := range chosen {
		eed := g.Edge(e)
		sub.AddEdge(vtx(eed.From), vtx(eed.To), eed.Label)
	}
	return sub
}

// traceOpts are one golden search's options: the public limit and
// budget plus target vertex and edge sets to (when non-nil) restrict
// the match to, loaded into the matcher's scratch sets after begin.
type traceOpts struct {
	Options
	restrictV map[graph.VertexID]bool
	restrictE map[graph.EdgeID]bool
}

// load copies o's sets into m's restriction sets.
func (o traceOpts) load(m *Matcher) {
	if o.restrictV != nil {
		m.hasRestrictV = true
		for id := range o.restrictV {
			m.restrictV.add(int(id))
		}
	}
	if o.restrictE != nil {
		m.hasRestrictE = true
		for id := range o.restrictE {
			m.restrictE.add(int(id))
		}
	}
}

// traceCase is one seeded search of the golden; id is its draw number.
type traceCase struct {
	id              int
	pattern, target *graph.Graph
	opts            traceOpts
}

// traceCases derives the golden's cases from one seed. Patterns are
// either extracted from the target (positive instances) or random
// (mostly negative, sometimes disconnected).
func traceCases() []traceCase {
	rng := rand.New(rand.NewSource(20050405))
	var cases []traceCase
	for id := 0; id < searchTraceDraws; id++ {
		vl := 1 + rng.Intn(3) // 1 = uniform vertex labels
		el := 1 + rng.Intn(3)
		loops := rng.Intn(3) == 0
		nv := 2 + rng.Intn(11)
		ne := rng.Intn(3 * nv)
		target := traceGraph(rng, nv, ne, vl, el, loops)

		var pat *graph.Graph
		if rng.Intn(3) > 0 {
			pat = traceSubgraph(rng, target, 1+rng.Intn(5))
		}
		if pat == nil {
			pat = traceGraph(rng, 1+rng.Intn(4), rng.Intn(6), vl, el, loops)
		}

		// The draws of the former target mutations. The loops below
		// draw once per vertex and edge the mutation would have left.
		mutated := rng.Intn(4) == 0
		nv, ne = target.NumVertices(), target.NumEdges()
		if mutated {
			nv, ne = survivors(rng, target)
		}

		opts := traceOpts{Options: Options{Limit: []int{0, 1, 1, 3}[rng.Intn(4)]}}
		switch rng.Intn(3) {
		case 0:
			opts.MaxSteps = 1 + rng.Intn(12) // tiny: many searches abort
		case 1:
			opts.MaxSteps = 10 + rng.Intn(200)
		default:
			opts.MaxSteps = 2000
		}
		// The draws of the former exclusion sets.
		excluded := false
		if rng.Intn(5) == 0 {
			excluded = true
			for range ne {
				rng.Intn(4)
			}
		}
		if rng.Intn(6) == 0 {
			excluded = true
			for range nv {
				rng.Intn(5)
			}
		}
		if rng.Intn(6) == 0 {
			opts.restrictV = map[graph.VertexID]bool{}
			for v := range nv {
				if rng.Intn(3) > 0 {
					opts.restrictV[graph.VertexID(v)] = true
				}
			}
		}
		if rng.Intn(6) == 0 {
			opts.restrictE = map[graph.EdgeID]bool{}
			for e := range ne {
				if rng.Intn(3) > 0 {
					opts.restrictE[graph.EdgeID(e)] = true
				}
			}
		}
		if !excluded && !mutated {
			cases = append(cases, traceCase{id: id, pattern: pat, target: target, opts: opts})
		}
	}
	return cases
}

// survivors replays the draws of a former target mutation and counts
// the vertices and edges it would have left: one to three draws of an
// edge ID (the edge count itself removing nothing), maybe a vertex
// removed with its edges, then maybe every vertex left without an edge.
func survivors(rng *rand.Rand, target *graph.Graph) (nv, ne int) {
	deadV := make([]bool, target.NumVertices())
	deadE := make([]bool, target.NumEdges())
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		if e := rng.Intn(len(deadE) + 1); e < len(deadE) {
			deadE[e] = true
		}
	}
	if rng.Intn(2) == 0 {
		v := graph.VertexID(rng.Intn(len(deadV)))
		deadV[v] = true
		for _, e := range append(target.OutEdges(v), target.InEdges(v)...) {
			deadE[e] = true
		}
	}
	if rng.Intn(2) == 0 {
		for v := range deadV {
			deadV[v] = true
			for _, e := range append(target.OutEdges(graph.VertexID(v)), target.InEdges(graph.VertexID(v))...) {
				if !deadE[e] {
					deadV[v] = false
				}
			}
		}
	}
	for _, dead := range deadV {
		if !dead {
			nv++
		}
	}
	for _, dead := range deadE {
		if !dead {
			ne++
		}
	}
	return nv, ne
}

// traceRun runs one search of m on target directly (no size
// precheck, so the search itself is traced even when a public entry
// point would short-circuit) under opts and its sets.
func traceRun(m *Matcher, target *graph.Graph, opts traceOpts) EmbeddingList {
	embs := NewEmbeddingList(m.pattern)
	m.begin(target, opts.Options, &embs)
	opts.load(m)
	m.search(0)
	m.finish()
	return embs
}

// traceSearch runs one search on a fresh matcher and reports its step
// count.
func traceSearch(pattern, target *graph.Graph, opts traceOpts) (steps int, aborted bool, embs EmbeddingList) {
	m := NewMatcher(pattern)
	embs = traceRun(m, target, opts)
	return m.steps, m.aborted, embs
}

func setSize[K comparable](m map[K]bool) string {
	if m == nil {
		return "-"
	}
	return fmt.Sprint(len(m))
}

// renderSearchTrace runs every case and renders the golden text.
func renderSearchTrace() []byte {
	var b bytes.Buffer
	for _, c := range traceCases() {
		h := fnv.New32a()
		h.Write([]byte(c.pattern.Dump()))
		h.Write([]byte(c.target.Dump()))
		steps, aborted, embs := traceSearch(c.pattern, c.target, c.opts)
		// excl=-/- keeps the line format of the cases that had
		// exclusion sets.
		fmt.Fprintf(&b, "case %d in=%08x p=%dv/%de t=%dv/%de limit=%d maxsteps=%d excl=-/- restrict=%s/%s steps=%d aborted=%v embs=%d\n",
			c.id, h.Sum32(), c.pattern.NumVertices(), c.pattern.NumEdges(),
			c.target.NumVertices(), c.target.NumEdges(), c.opts.Limit, c.opts.MaxSteps,
			setSize(c.opts.restrictV), setSize(c.opts.restrictE),
			steps, aborted, embs.Len())
		for i := range embs.Len() {
			e := embs.At(i)
			fmt.Fprintf(&b, "  v=%v e=%v\n", e.Verts, e.Edges)
		}
		if embs.Len() > 0 {
			re := NewReanchorer(c.pattern, c.target, c.opts.MaxSteps)
			last := embs.At(embs.Len() - 1)
			got, ok := re.Reanchor(last)
			fmt.Fprintf(&b, "  reanchor ok=%v v=%v e=%v\n", ok, got.Verts, got.Edges)
		}
	}
	return b.Bytes()
}

// TestMatcherReuseMatchesFresh: one Matcher searched against a run of
// different targets (larger and smaller, with and without option
// sets, some searches aborting mid-tree) must behave exactly like a
// fresh Matcher per search — the reset after each call leaves no
// marks behind.
func TestMatcherReuseMatchesFresh(t *testing.T) {
	cases := traceCases()
	for i, c := range cases {
		reused := NewMatcher(c.pattern)
		for j := i; j < i+8 && j < len(cases); j++ {
			target, opts := cases[j].target, cases[j].opts
			want := fmt.Sprint(traceSearch(c.pattern, target, opts))
			embs := traceRun(reused, target, opts)
			if got := fmt.Sprint(reused.steps, reused.aborted, embs); got != want {
				t.Fatalf("pattern of case %d on target of case %d: reused matcher gave %s, fresh %s", i, j, got, want)
			}
		}
	}
}

// TestSearchTraceGolden replays the golden against the matcher byte
// for byte: same nodes expanded, same embeddings in the same order,
// same abort points.
func TestSearchTraceGolden(t *testing.T) {
	path := filepath.Join("testdata", "search_trace.golden")
	got := renderSearchTrace()
	if *updateTrace {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-trace)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("search trace diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("search trace length differs: got %d lines, want %d", len(gl), len(wl))
}
