package partition

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tnkd/internal/dataset"
	"tnkd/internal/graph"
)

// referenceSplit is the clone-and-mutate formulation of Algorithm 2
// that SplitGraph's work-set replaces: remove each consumed edge from
// a working copy of the input and drop the orphaned vertices after
// every extraction. The working copy is refWork, the input plus the
// sets of consumed edges and dropped vertices. It is kept as the
// oracle SplitGraph must match exactly: same partitions, same vertex
// and edge order, same names and the same random draws.
func referenceSplit(g *graph.Graph, opts SplitOptions) []*graph.Graph {
	if opts.K < 1 {
		panic(fmt.Sprintf("partition: SplitGraph with K=%d", opts.K))
	}
	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	work := &refWork{g: g, consumed: map[graph.EdgeID]bool{}, dropped: map[graph.VertexID]bool{}}
	var parts []*graph.Graph
	for txn := 0; txn < opts.K && work.numEdges() > 0; txn++ {
		remaining := opts.K - txn
		budget := work.numEdges() / remaining
		if budget < 1 {
			budget = 1
		}
		part := referenceExtractOne(work, budget, opts.Strategy, rng)
		if part.NumEdges() > 0 {
			parts = append(parts, part)
		}
		work.dropOrphans()
	}
	for work.numEdges() > 0 {
		part := referenceExtractOne(work, work.numEdges(), opts.Strategy, rng)
		if part.NumEdges() == 0 {
			break
		}
		parts = append(parts, part)
		work.dropOrphans()
	}
	for i, p := range parts {
		p.Name = fmt.Sprintf("%s/%s%d", g.Name, opts.Strategy, i)
	}
	return parts
}

// refWork is the reference's working copy of the input graph g: g
// minus the consumed edges and the dropped vertices.
type refWork struct {
	g        *graph.Graph
	consumed map[graph.EdgeID]bool
	dropped  map[graph.VertexID]bool
}

func (w *refWork) numEdges() int { return w.g.NumEdges() - len(w.consumed) }

// live returns the unconsumed edges among ids.
func (w *refWork) live(ids []graph.EdgeID) []graph.EdgeID {
	var res []graph.EdgeID
	for _, e := range ids {
		if !w.consumed[e] {
			res = append(res, e)
		}
	}
	return res
}

// degree counts v's unconsumed edges, a self-loop twice.
func (w *refWork) degree(v graph.VertexID) int {
	return len(w.live(w.g.OutEdges(v))) + len(w.live(w.g.InEdges(v)))
}

// vertices returns the vertices not dropped, ascending.
func (w *refWork) vertices() []graph.VertexID {
	var vs []graph.VertexID
	for v := range graph.VertexID(w.g.NumVertices()) {
		if !w.dropped[v] {
			vs = append(vs, v)
		}
	}
	return vs
}

// dropOrphans drops every vertex left without an unconsumed edge.
func (w *refWork) dropOrphans() {
	for _, v := range w.vertices() {
		if w.degree(v) == 0 {
			w.dropped[v] = true
		}
	}
}

func referenceExtractOne(work *refWork, budget int, strat Strategy, rng *rand.Rand) *graph.Graph {
	part := graph.New("")
	remap := make(map[graph.VertexID]graph.VertexID)
	addVertex := func(v graph.VertexID) graph.VertexID {
		if id, ok := remap[v]; ok {
			return id
		}
		id := part.AddVertex(work.g.Vertex(v).Label)
		remap[v] = id
		return id
	}

	edges := budget
	var q []graph.VertexID
	inQ := make(map[graph.VertexID]bool)
	push := func(v graph.VertexID) {
		if !inQ[v] {
			q = append(q, v)
			inQ[v] = true
		}
	}
	pop := func() graph.VertexID {
		var v graph.VertexID
		if strat == BreadthFirst {
			v = q[0]
			q = q[1:]
		} else {
			v = q[len(q)-1]
			q = q[:len(q)-1]
		}
		return v
	}

	start, ok := referenceRandomVertex(work, rng)
	if !ok {
		return part
	}
	push(start)
	for edges > 0 && len(q) > 0 {
		v := pop()
		pv := addVertex(v)
		for edges > 0 {
			e, ok := referenceFirstIncidentEdge(work, v)
			if !ok {
				break
			}
			ed := work.g.Edge(e)
			other := ed.From
			if ed.From == v {
				other = ed.To
			}
			po := addVertex(other)
			if ed.From == v {
				part.AddEdge(pv, po, ed.Label)
			} else {
				part.AddEdge(po, pv, ed.Label)
			}
			work.consumed[e] = true
			edges--
			push(other)
		}
	}
	return part
}

// referenceFirstIncidentEdge returns the first unconsumed outgoing
// edge of v in OutEdges order, else the first unconsumed incoming edge.
func referenceFirstIncidentEdge(work *refWork, v graph.VertexID) (graph.EdgeID, bool) {
	if out := work.live(work.g.OutEdges(v)); len(out) > 0 {
		return out[0], true
	}
	if in := work.live(work.g.InEdges(v)); len(in) > 0 {
		return in[0], true
	}
	return 0, false
}

func referenceRandomVertex(work *refWork, rng *rand.Rand) (graph.VertexID, bool) {
	vs := work.vertices()
	if len(vs) == 0 {
		return 0, false
	}
	for i := 0; i < 32; i++ {
		v := vs[rng.Intn(len(vs))]
		if work.degree(v) > 0 {
			return v, true
		}
	}
	for _, v := range vs {
		if work.degree(v) > 0 {
			return v, true
		}
	}
	return 0, false
}

// checkSplitMatchesReference runs SplitGraph and referenceSplit from
// the same seed and fails unless every partition's Dump (which carries
// its name, vertex labels and edge order) and the next random draw are
// identical. It also checks the input graph is left untouched.
func checkSplitMatchesReference(t *testing.T, g *graph.Graph, k int, strat Strategy, seed int64) {
	t.Helper()
	before := g.Dump()
	gotRng := rand.New(rand.NewSource(seed))
	wantRng := rand.New(rand.NewSource(seed))
	got := SplitGraph(g, SplitOptions{K: k, Strategy: strat, Rand: gotRng})
	want := referenceSplit(g, SplitOptions{K: k, Strategy: strat, Rand: wantRng})
	if g.Dump() != before {
		t.Fatalf("%s K=%d %v seed %d: input graph was mutated", g.Name, k, strat, seed)
	}
	if len(got) != len(want) {
		t.Fatalf("%s K=%d %v seed %d: %d partitions, reference has %d", g.Name, k, strat, seed, len(got), len(want))
	}
	for i := range got {
		if a, b := got[i].Dump(), want[i].Dump(); a != b {
			t.Fatalf("%s K=%d %v seed %d: partition %d differs:\n%s\nreference:\n%s", g.Name, k, strat, seed, i, a, b)
		}
	}
	if a, b := gotRng.Int63(), wantRng.Int63(); a != b {
		t.Fatalf("%s K=%d %v seed %d: next draw %d, reference %d", g.Name, k, strat, seed, a, b)
	}
}

var (
	odthOnce  sync.Once
	odthGraph *graph.Graph
)

// odth returns the DefaultConfig().Scaled(0.05) OD_TH graph with
// uniform vertex labels, the Section 5 structural setting.
func odth() *graph.Graph {
	odthOnce.Do(func() {
		data := dataset.Generate(dataset.DefaultConfig().Scaled(0.05))
		odthGraph = data.BuildGraph(dataset.GraphOptions{Attr: dataset.TransitHours, Vertices: dataset.UniformLabels})
	})
	return odthGraph
}

// handCases are small graphs for the shapes the work-set must treat
// exactly as the clone did: isolated vertices (only the first draw
// sees them), self-loops (in both a vertex's out and in lists) and
// parallel edges.
func handCases() []*graph.Graph {
	iso := graph.New("isolated")
	for i := 0; i < 12; i++ {
		iso.AddVertex(fmt.Sprintf("L%d", i%3))
	}
	for _, e := range [][2]int{{1, 2}, {2, 5}, {5, 1}, {8, 9}, {9, 8}, {11, 8}} {
		iso.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), "x")
	}

	loops := graph.New("selfloops")
	for i := 0; i < 6; i++ {
		loops.AddVertex("*")
	}
	for _, e := range [][2]int{{0, 0}, {0, 1}, {1, 1}, {1, 1}, {2, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 5}} {
		loops.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), fmt.Sprintf("e%d", e[0]))
	}

	par := graph.New("parallel")
	for i := 0; i < 5; i++ {
		par.AddVertex(fmt.Sprintf("P%d", i%2))
	}
	for i := 0; i < 4; i++ {
		par.AddEdge(0, 1, "a")
		par.AddEdge(1, 0, "b")
		par.AddEdge(1, 2, fmt.Sprintf("c%d", i))
	}
	par.AddEdge(3, 4, "d")
	par.AddEdge(3, 4, "d")
	par.AddEdge(2, 3, "a")

	return []*graph.Graph{iso, loops, par, ring(30)}
}

func TestSplitMatchesReference(t *testing.T) {
	for _, g := range append(handCases(), odth()) {
		for _, strat := range []Strategy{BreadthFirst, DepthFirst} {
			for _, k := range []int{1, 8, 40, g.NumEdges() + 5} {
				for seed := int64(1); seed <= 3; seed++ {
					checkSplitMatchesReference(t, g, k, strat, seed)
				}
			}
		}
	}
}

// fuzzGraph decodes data into a labelled multigraph of at most 16
// vertices, then the split parameters. Byte 0 sets the vertex count,
// byte 1 K, byte 2 the strategy and byte 3 the seed. Every following
// byte triple (from, to, label) with label below 224 adds an edge;
// other triples are skipped.
func fuzzGraph(data []byte) (g *graph.Graph, k int, strat Strategy, seed int64, ok bool) {
	if len(data) < 4 {
		return nil, 0, 0, 0, false
	}
	nv := 1 + int(data[0]%16)
	g = graph.New("fuzz")
	for i := 0; i < nv; i++ {
		g.AddVertex(fmt.Sprintf("V%d", (int(data[0])>>4+i)%3))
	}
	k = 1 + int(data[1]%64)
	strat = Strategy(data[2] & 1)
	seed = int64(data[3])
	for rest := data[4:]; len(rest) >= 3; rest = rest[3:] {
		if a, b, c := int(rest[0]), int(rest[1]), int(rest[2]); c < 224 {
			g.AddEdge(graph.VertexID(a%nv), graph.VertexID(b%nv), fmt.Sprintf("e%d", c%4))
		}
	}
	return g, k, strat, seed, true
}

func FuzzSplitGraph(f *testing.F) {
	f.Add([]byte{5, 3, 0, 7, 0, 1, 0, 1, 2, 1, 2, 0, 2})
	f.Add([]byte{8, 40, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 2, 3, 3, 3, 3, 4, 0})
	f.Add([]byte{15, 2, 1, 9, 1, 2, 0, 1, 2, 0, 2, 1, 3, 0, 0, 230, 4, 4, 250, 5, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, k, strat, seed, ok := fuzzGraph(data)
		if !ok {
			return
		}
		checkSplitMatchesReference(t, g, k, strat, seed)
	})
}

// BenchmarkSplitGraph measures one 40-way Algorithm 2 draw over the
// DefaultConfig().Scaled(0.05) OD_TH graph. Run with -benchmem.
func BenchmarkSplitGraph(b *testing.B) {
	g := odth()
	for _, strat := range []Strategy{BreadthFirst, DepthFirst} {
		b.Run(strat.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(17))
			b.ReportAllocs()
			for b.Loop() {
				SplitGraph(g, SplitOptions{K: 40, Strategy: strat, Rand: rng})
			}
		})
	}
}
