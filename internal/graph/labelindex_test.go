package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

func buildLabeled() (*Graph, VertexID, VertexID, VertexID) {
	g := New("t")
	a := g.AddVertex("A")
	b := g.AddVertex("B")
	c := g.AddVertex("A")
	g.AddEdge(a, b, "x") // e0
	g.AddEdge(a, b, "y") // e1
	g.AddEdge(a, b, "x") // e2 parallel duplicate
	g.AddEdge(b, c, "x") // e3
	return g, a, b, c
}

func TestLabeledLookups(t *testing.T) {
	g, a, b, c := buildLabeled()
	ix := g.Index()
	x, y := ix.EdgeLabelID("x"), ix.EdgeLabelID("y")
	if ends, groups := groupsOf(ix.Out(a, x)); !reflect.DeepEqual(ends, []VertexID{b}) || !reflect.DeepEqual(groups, [][]EdgeID{{0, 2}}) {
		t.Errorf("Out(a, x) = ends %v, groups %v; want [%d], [[0 2]]", ends, groups, b)
	}
	if got := ix.Out(a, y).To(b); !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("Out(a, y).To(b) = %v, want [1]", got)
	}
	if got := ix.Out(a, y).To(c); got != nil {
		t.Errorf("Out(a, y).To(c) = %v, want nil", got)
	}
	if ends, groups := groupsOf(ix.In(b, x)); !reflect.DeepEqual(ends, []VertexID{a}) || !reflect.DeepEqual(groups, [][]EdgeID{{0, 2}}) {
		t.Errorf("In(b, x) = ends %v, groups %v; want [%d], [[0 2]]", ends, groups, a)
	}
	if ix.Out(c, x).Len() != 0 {
		t.Errorf("Out(c, x) is not empty")
	}
	if ix.Out(a, ix.EdgeLabelID("missing")).Len() != 0 {
		t.Errorf("Out(a, missing) is not empty")
	}
	if got := ix.WithLabel(ix.VertexLabelID("A")); !reflect.DeepEqual(got, []VertexID{a, c}) {
		t.Errorf("WithLabel(A) = %v, want [%d %d]", got, a, c)
	}
	if got := ix.WithLabel(ix.VertexLabelID("missing")); got != nil {
		t.Errorf("WithLabel(missing) = %v, want nil", got)
	}
}

// groupsOf unpacks a run: its far endpoints and each one's edges.
func groupsOf(r Run) (ends []VertexID, groups [][]EdgeID) {
	for i := range r.Len() {
		ends = append(ends, r.End(i))
		groups = append(groups, edgeIDs(r.Edges(i)))
	}
	return ends, groups
}

// edgeIDs converts a run's int32 edge IDs (nil stays nil).
func edgeIDs(ids []int32) []EdgeID {
	if ids == nil {
		return nil
	}
	edges := make([]EdgeID, len(ids))
	for i, e := range ids {
		edges[i] = EdgeID(e)
	}
	return edges
}

// flat returns a run's edges group by group.
func flat(r Run) []EdgeID {
	var edges []EdgeID
	_, groups := groupsOf(r)
	for _, group := range groups {
		edges = append(edges, group...)
	}
	return edges
}

// outX returns the x-labelled out-edges of v in g's current
// index, group by group.
func outX(g *Graph, v VertexID) []EdgeID {
	ix := g.Index()
	return flat(ix.Out(v, ix.EdgeLabelID("x")))
}

// withLabel returns the vertices labelled l in g's current index.
func withLabel(g *Graph, l string) []VertexID {
	ix := g.Index()
	return ix.WithLabel(ix.VertexLabelID(l))
}

func TestLabelIndexInvalidatedOnMutation(t *testing.T) {
	g, a, b, _ := buildLabeled()
	if got := len(outX(g, a)); got != 2 {
		t.Fatalf("precondition: %d x-edges, want 2", got)
	}
	id := g.AddEdge(a, b, "x")
	if got := outX(g, a); !reflect.DeepEqual(got, []EdgeID{0, 2, id}) {
		t.Errorf("after AddEdge: Out(a, x) = %v, want [0 2 %d]", got, id)
	}
	d := g.AddVertex("D")
	if got := withLabel(g, "D"); !reflect.DeepEqual(got, []VertexID{d}) {
		t.Errorf("after AddVertex: WithLabel(D) = %v, want [%d]", got, d)
	}
	id = g.AddEdge(a, d, "x")
	if got := outX(g, a); !reflect.DeepEqual(got, []EdgeID{0, 2, id - 1, id}) {
		t.Errorf("after AddEdge to a new vertex: Out(a, x) = %v, want [0 2 %d %d]", got, id-1, id)
	}
}

func TestLabelIndexCloneIsIndependent(t *testing.T) {
	g, a, _, _ := buildLabeled()
	g.Index() // force index build
	c := g.Clone()
	c.AddEdge(a, a, "x")
	if got := len(outX(g, a)); got != 2 {
		t.Errorf("mutating a clone changed the original index: %d x-edges, want 2", got)
	}
	if got := len(outX(c, a)); got != 3 {
		t.Errorf("clone Out(a, x) has %d edges, want 3", got)
	}
}

// TestLabelIndexConcurrentReads exercises the lazy build from many
// goroutines at once; run with -race to verify safety.
func TestLabelIndexConcurrentReads(t *testing.T) {
	g, a, b, _ := buildLabeled()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				ix := g.Index()
				if out := flat(ix.Out(a, ix.EdgeLabelID("x"))); len(out) != 2 {
					t.Errorf("Out(a, x) saw %d edges, want 2", len(out))
					return
				}
				if in := flat(ix.In(b, ix.EdgeLabelID("y"))); len(in) != 1 {
					t.Errorf("In(b, y) saw %d edges, want 1", len(in))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// refGroups is the brute-force reference of one grouped run: the
// edges of v in one direction carrying label, in ascending ID order,
// split by far endpoint in order of each endpoint's lowest edge ID.
func refGroups(g *Graph, v VertexID, label string, out bool) (ends []VertexID, groups [][]EdgeID) {
	at := map[VertexID]int{}
	for e := range EdgeID(g.NumEdges()) {
		ed := g.Edge(e)
		owner, far := ed.From, ed.To
		if !out {
			owner, far = ed.To, ed.From
		}
		if owner != v || ed.Label != label {
			continue
		}
		i, ok := at[far]
		if !ok {
			i = len(ends)
			at[far] = i
			ends = append(ends, far)
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], e)
	}
	return ends, groups
}

// TestIndexMatchesAdjacency checks the grouped index against a
// brute-force reference on random multigraphs with parallel edges,
// self-loops, isolated vertices and up to 40 edge labels: every run's
// endpoints come in first-occurrence order, each group's edges ascend,
// the groups hold exactly the (v, l) edges, To finds each group and
// nothing else, and absent labels and NoLabel give empty runs. Degrees and per-label vertex
// lists are checked too.
func TestIndexMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		g := New("t")
		nv := 1 + rng.Intn(12)
		nl := 1 + rng.Intn(40)
		for i := 0; i < nv; i++ {
			g.AddVertex(fmt.Sprintf("v%d", rng.Intn(3)))
		}
		for i, ne := 0, rng.Intn(80); i < ne; i++ {
			from, to := VertexID(rng.Intn(nv)), VertexID(rng.Intn(nv))
			if rng.Intn(8) == 0 {
				to = from
			}
			g.AddEdge(from, to, fmt.Sprintf("e%d", rng.Intn(nl)))
			if rng.Intn(4) == 0 { // a parallel duplicate, maybe relabelled
				g.AddEdge(from, to, fmt.Sprintf("e%d", rng.Intn(nl)))
			}
		}
		ix := g.Index()
		for v := range VertexID(g.NumVertices()) {
			if ix.OutDegree(v) != g.OutDegree(v) || ix.InDegree(v) != g.InDegree(v) {
				t.Fatalf("trial %d: degrees of v%d differ", trial, v)
			}
			if ix.VertexLabel(v) != ix.VertexLabelID(g.Vertex(v).Label) {
				t.Fatalf("trial %d: label ID of v%d differs", trial, v)
			}
			for l := 0; l <= nl; l++ { // e<nl> never occurs
				label := fmt.Sprintf("e%d", l)
				for _, out := range []bool{true, false} {
					run := ix.In(v, ix.EdgeLabelID(label))
					if out {
						run = ix.Out(v, ix.EdgeLabelID(label))
					}
					wantEnds, wantGroups := refGroups(g, v, label, out)
					if ends, groups := groupsOf(run); !reflect.DeepEqual(ends, wantEnds) || !reflect.DeepEqual(groups, wantGroups) {
						t.Fatalf("trial %d: v%d %s out=%v: ends %v groups %v, want %v %v",
							trial, v, label, out, ends, groups, wantEnds, wantGroups)
					}
					for w := range VertexID(g.NumVertices()) {
						var want []EdgeID
						for i, end := range wantEnds {
							if end == w {
								want = wantGroups[i]
							}
						}
						if got := edgeIDs(run.To(w)); !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d: v%d %s out=%v: To(%d) = %v, want %v", trial, v, label, out, w, got, want)
						}
					}
				}
			}
			for _, l := range []int32{NoLabel, int32(nl + 1), int32(nl + 1000)} {
				if ix.Out(v, l).Len() != 0 || ix.In(v, l).Len() != 0 {
					t.Fatalf("trial %d: v%d has a run for absent label ID %d", trial, v, l)
				}
			}
		}
		for _, l := range append(g.VertexLabels(), "missing") {
			var want []VertexID
			for v := range VertexID(g.NumVertices()) {
				if g.Vertex(v).Label == l {
					want = append(want, v)
				}
			}
			if got := ix.WithLabel(ix.VertexLabelID(l)); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: WithLabel(%s) = %v, want %v", trial, l, got, want)
			}
		}
	}
}

// indexBytes returns the bytes allocated building the index of a graph
// with nv vertices and ne edges, each edge carrying its own label (the
// exact-label ablation's shape, where a vertex x label table would be
// quadratic).
func indexBytes(nv, ne int) uint64 {
	rng := rand.New(rand.NewSource(int64(ne)))
	g := New("t")
	for i := 0; i < nv; i++ {
		g.AddVertex("*")
	}
	for i := 0; i < ne; i++ {
		g.AddEdge(VertexID(rng.Intn(nv)), VertexID(rng.Intn(nv)), fmt.Sprintf("e%d", i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.Index()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestIndexMemoryLinear guards the index's O(V+E) memory: with as many
// edge labels as edges, its build allocates a bounded number of bytes
// per vertex and edge at every size.
func TestIndexMemoryLinear(t *testing.T) {
	const maxPerItem = 400
	for _, ne := range []int{2000, 8000} {
		nv := ne / 2
		got := indexBytes(nv, ne)
		per := float64(got) / float64(nv+ne)
		t.Logf("V=%d E=%d: %d bytes, %.0f per vertex+edge", nv, ne, got, per)
		if per > maxPerItem {
			t.Errorf("V=%d E=%d with %d labels: index allocated %d bytes, %.0f per vertex+edge (limit %d)",
				nv, ne, ne, got, per, maxPerItem)
		}
	}
}
