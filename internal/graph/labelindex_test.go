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
	if got := g.OutEdgesLabeled(a, "x"); !reflect.DeepEqual(got, []EdgeID{0, 2}) {
		t.Errorf("OutEdgesLabeled(a, x) = %v, want [0 2]", got)
	}
	if got := g.OutEdgesLabeled(a, "y"); !reflect.DeepEqual(got, []EdgeID{1}) {
		t.Errorf("OutEdgesLabeled(a, y) = %v, want [1]", got)
	}
	if got := g.InEdgesLabeled(b, "x"); !reflect.DeepEqual(got, []EdgeID{0, 2}) {
		t.Errorf("InEdgesLabeled(b, x) = %v, want [0 2]", got)
	}
	if got := g.OutEdgesLabeled(c, "x"); got != nil {
		t.Errorf("OutEdgesLabeled(c, x) = %v, want nil", got)
	}
	if got := g.VerticesWithLabel("A"); !reflect.DeepEqual(got, []VertexID{a, c}) {
		t.Errorf("VerticesWithLabel(A) = %v, want [%d %d]", got, a, c)
	}
	if got := g.VerticesWithLabel("missing"); got != nil {
		t.Errorf("VerticesWithLabel(missing) = %v, want nil", got)
	}
}

func TestLabelIndexInvalidatedOnMutation(t *testing.T) {
	g, a, b, _ := buildLabeled()
	if got := len(g.OutEdgesLabeled(a, "x")); got != 2 {
		t.Fatalf("precondition: %d x-edges, want 2", got)
	}
	g.RemoveEdge(0)
	if got := g.OutEdgesLabeled(a, "x"); !reflect.DeepEqual(got, []EdgeID{2}) {
		t.Errorf("after RemoveEdge: OutEdgesLabeled(a, x) = %v, want [2]", got)
	}
	id := g.AddEdge(a, b, "x")
	if got := g.OutEdgesLabeled(a, "x"); !reflect.DeepEqual(got, []EdgeID{2, id}) {
		t.Errorf("after AddEdge: OutEdgesLabeled(a, x) = %v, want [2 %d]", got, id)
	}
	d := g.AddVertex("D")
	if got := g.VerticesWithLabel("D"); !reflect.DeepEqual(got, []VertexID{d}) {
		t.Errorf("after AddVertex: VerticesWithLabel(D) = %v, want [%d]", got, d)
	}
	g.RemoveVertex(b)
	if got := g.OutEdgesLabeled(a, "x"); got != nil {
		t.Errorf("after RemoveVertex(b): OutEdgesLabeled(a, x) = %v, want nil", got)
	}
	if got := g.VerticesWithLabel("B"); got != nil {
		t.Errorf("after RemoveVertex(b): VerticesWithLabel(B) = %v, want nil", got)
	}
	g.RemoveOrphans()
	if got := g.VerticesWithLabel("D"); got != nil {
		t.Errorf("after RemoveOrphans: VerticesWithLabel(D) = %v, want nil", got)
	}
}

func TestLabelIndexCloneIsIndependent(t *testing.T) {
	g, a, _, _ := buildLabeled()
	g.OutEdgesLabeled(a, "x") // force index build
	c := g.Clone()
	c.RemoveEdge(0)
	if got := len(g.OutEdgesLabeled(a, "x")); got != 2 {
		t.Errorf("mutating a clone changed the original index: %d x-edges, want 2", got)
	}
	if got := len(c.OutEdgesLabeled(a, "x")); got != 1 {
		t.Errorf("clone OutEdgesLabeled(a, x) has %d edges, want 1", got)
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
				if n := len(g.OutEdgesLabeled(a, "x")); n != 2 {
					t.Errorf("OutEdgesLabeled saw %d edges, want 2", n)
					return
				}
				if n := len(g.InEdgesLabeled(b, "y")); n != 1 {
					t.Errorf("InEdgesLabeled saw %d edges, want 1", n)
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
