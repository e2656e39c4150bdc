package graph

import (
	"fmt"
	"math/rand"
	"reflect"
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
	if got, heads := ix.Out(a, x); !reflect.DeepEqual(got, []EdgeID{0, 2}) || !reflect.DeepEqual(heads, []VertexID{b, b}) {
		t.Errorf("Out(a, x) = %v to %v, want [0 2] to [%d %d]", got, heads, b, b)
	}
	if got, _ := ix.Out(a, y); !reflect.DeepEqual(got, []EdgeID{1}) {
		t.Errorf("Out(a, y) = %v, want [1]", got)
	}
	if got, tails := ix.In(b, x); !reflect.DeepEqual(got, []EdgeID{0, 2}) || !reflect.DeepEqual(tails, []VertexID{a, a}) {
		t.Errorf("In(b, x) = %v from %v, want [0 2] from [%d %d]", got, tails, a, a)
	}
	if got, _ := ix.Out(c, x); got != nil {
		t.Errorf("Out(c, x) = %v, want nil", got)
	}
	if got, _ := ix.Out(a, ix.EdgeLabelID("missing")); got != nil {
		t.Errorf("Out(a, missing) = %v, want nil", got)
	}
	if got := ix.WithLabel(ix.VertexLabelID("A")); !reflect.DeepEqual(got, []VertexID{a, c}) {
		t.Errorf("WithLabel(A) = %v, want [%d %d]", got, a, c)
	}
	if got := ix.WithLabel(ix.VertexLabelID("missing")); got != nil {
		t.Errorf("WithLabel(missing) = %v, want nil", got)
	}
}

// outX returns the live x-labelled out-edges of v in g's current
// index.
func outX(g *Graph, v VertexID) []EdgeID {
	ix := g.Index()
	edges, _ := ix.Out(v, ix.EdgeLabelID("x"))
	return edges
}

// withLabel returns the live vertices labelled l in g's current index.
func withLabel(g *Graph, l string) []VertexID {
	ix := g.Index()
	return ix.WithLabel(ix.VertexLabelID(l))
}

func TestLabelIndexInvalidatedOnMutation(t *testing.T) {
	g, a, b, _ := buildLabeled()
	if got := len(outX(g, a)); got != 2 {
		t.Fatalf("precondition: %d x-edges, want 2", got)
	}
	g.RemoveEdge(0)
	if got := outX(g, a); !reflect.DeepEqual(got, []EdgeID{2}) {
		t.Errorf("after RemoveEdge: Out(a, x) = %v, want [2]", got)
	}
	id := g.AddEdge(a, b, "x")
	if got := outX(g, a); !reflect.DeepEqual(got, []EdgeID{2, id}) {
		t.Errorf("after AddEdge: Out(a, x) = %v, want [2 %d]", got, id)
	}
	d := g.AddVertex("D")
	if got := withLabel(g, "D"); !reflect.DeepEqual(got, []VertexID{d}) {
		t.Errorf("after AddVertex: WithLabel(D) = %v, want [%d]", got, d)
	}
	g.RemoveVertex(b)
	if got := outX(g, a); got != nil {
		t.Errorf("after RemoveVertex(b): Out(a, x) = %v, want nil", got)
	}
	if got := withLabel(g, "B"); got != nil {
		t.Errorf("after RemoveVertex(b): WithLabel(B) = %v, want nil", got)
	}
	g.RemoveOrphans()
	if got := withLabel(g, "D"); got != nil {
		t.Errorf("after RemoveOrphans: WithLabel(D) = %v, want nil", got)
	}
}

func TestLabelIndexCloneIsIndependent(t *testing.T) {
	g, a, _, _ := buildLabeled()
	g.Index() // force index build
	c := g.Clone()
	c.RemoveEdge(0)
	if got := len(outX(g, a)); got != 2 {
		t.Errorf("mutating a clone changed the original index: %d x-edges, want 2", got)
	}
	if got := len(outX(c, a)); got != 1 {
		t.Errorf("clone Out(a, x) has %d edges, want 1", got)
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
				if out, _ := ix.Out(a, ix.EdgeLabelID("x")); len(out) != 2 {
					t.Errorf("Out(a, x) saw %d edges, want 2", len(out))
					return
				}
				if in, _ := ix.In(b, ix.EdgeLabelID("y")); len(in) != 1 {
					t.Errorf("In(b, y) saw %d edges, want 1", len(in))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIndexMatchesAdjacency checks the CSR index against the plain
// adjacency lists on random multigraphs with self-loops, tombstoned
// edges and vertices: every labeled run, its far endpoints, the live
// degrees and the per-label vertex lists.
func TestIndexMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		g := New("t")
		nv := 1 + rng.Intn(9)
		for i := 0; i < nv; i++ {
			g.AddVertex(fmt.Sprintf("v%d", rng.Intn(3)))
		}
		for i, ne := 0, rng.Intn(25); i < ne; i++ {
			g.AddEdge(VertexID(rng.Intn(nv)), VertexID(rng.Intn(nv)), fmt.Sprintf("e%d", rng.Intn(3)))
		}
		for i, n := 0, rng.Intn(4); i < n && g.EdgeCap() > 0; i++ {
			g.RemoveEdge(EdgeID(rng.Intn(g.EdgeCap())))
		}
		if rng.Intn(3) == 0 {
			g.RemoveVertex(VertexID(rng.Intn(nv)))
		}
		ix := g.Index()
		labels := append(g.EdgeLabels(), "missing")
		for _, v := range g.Vertices() {
			if ix.OutDegree(v) != g.OutDegree(v) || ix.InDegree(v) != g.InDegree(v) {
				t.Fatalf("trial %d: degrees of v%d differ", trial, v)
			}
			if ix.VertexLabel(v) != ix.VertexLabelID(g.Vertex(v).Label) {
				t.Fatalf("trial %d: label ID of v%d differs", trial, v)
			}
			for _, l := range labels {
				var wantOut, wantIn []EdgeID
				for _, e := range g.OutEdges(v) {
					if g.Edge(e).Label == l {
						wantOut = append(wantOut, e)
					}
				}
				for _, e := range g.InEdges(v) {
					if g.Edge(e).Label == l {
						wantIn = append(wantIn, e)
					}
				}
				out, heads := ix.Out(v, ix.EdgeLabelID(l))
				in, tails := ix.In(v, ix.EdgeLabelID(l))
				if !reflect.DeepEqual(out, wantOut) || !reflect.DeepEqual(in, wantIn) {
					t.Fatalf("trial %d: v%d label %s: out %v in %v, want %v %v", trial, v, l, out, in, wantOut, wantIn)
				}
				for i, e := range out {
					if heads[i] != g.Edge(e).To {
						t.Fatalf("trial %d: head of e%d is %d, want %d", trial, e, heads[i], g.Edge(e).To)
					}
				}
				for i, e := range in {
					if tails[i] != g.Edge(e).From {
						t.Fatalf("trial %d: tail of e%d is %d, want %d", trial, e, tails[i], g.Edge(e).From)
					}
				}
			}
		}
		for _, l := range append(g.VertexLabels(), "missing") {
			var want []VertexID
			for _, v := range g.Vertices() {
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
