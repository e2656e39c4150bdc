package pattern

import (
	"math/rand"
	"sync"
	"testing"

	"tnkd/internal/dataset"
	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/partition"
)

var (
	fallbackOnce  sync.Once
	fallbackTxns  []*graph.Graph
	fallbackPats  []*graph.Graph
	fallbackEdges = []int{3, 4, 5}
)

// fallbackFixture returns breadth-first partitions of the
// ScaledConfig(0.05) OD_TH graph (uniform vertex labels, the Section 5
// structural setting) and 3–5-edge connected patterns grown from them
// — the shape of the seeded-tier fallback searches of support
// counting.
func fallbackFixture() ([]*graph.Graph, []*graph.Graph) {
	fallbackOnce.Do(func() {
		data := dataset.Generate(dataset.DefaultConfig().Scaled(0.05))
		g := data.BuildGraph(dataset.GraphOptions{Attr: dataset.TransitHours, Vertices: dataset.UniformLabels})
		fallbackTxns = partition.SplitGraph(g, partition.SplitOptions{
			K: 40, Strategy: partition.BreadthFirst, Rand: rand.New(rand.NewSource(17)),
		})
		rng := rand.New(rand.NewSource(5))
		for len(fallbackPats) < 12 {
			src := fallbackTxns[rng.Intn(len(fallbackTxns))]
			if p := growPattern(rng, src, fallbackEdges[len(fallbackPats)%len(fallbackEdges)]); p != nil {
				fallbackPats = append(fallbackPats, p)
			}
		}
	})
	return fallbackTxns, fallbackPats
}

// growPattern grows a connected pattern of exactly n edges from a
// random edge of g, adding random incident edges, with dense IDs.
func growPattern(rng *rand.Rand, g *graph.Graph, n int) *graph.Graph {
	ne := graph.EdgeID(g.NumEdges())
	in := map[graph.EdgeID]bool{}
	touched := map[graph.VertexID]bool{}
	var chosen []graph.EdgeID
	add := func(e graph.EdgeID) {
		in[e] = true
		chosen = append(chosen, e)
		ed := g.Edge(e)
		touched[ed.From], touched[ed.To] = true, true
	}
	add(graph.EdgeID(rng.Intn(int(ne))))
	for len(chosen) < n {
		var frontier []graph.EdgeID
		for e := range ne {
			if ed := g.Edge(e); !in[e] && (touched[ed.From] || touched[ed.To]) {
				frontier = append(frontier, e)
			}
		}
		if len(frontier) == 0 {
			return nil
		}
		add(frontier[rng.Intn(len(frontier))])
	}
	p := graph.New("pat")
	remap := map[graph.VertexID]graph.VertexID{}
	vtx := func(v graph.VertexID) graph.VertexID {
		if id, ok := remap[v]; ok {
			return id
		}
		remap[v] = p.AddVertex(g.Vertex(v).Label)
		return remap[v]
	}
	for _, e := range chosen {
		ed := g.Edge(e)
		p.AddEdge(vtx(ed.From), vtx(ed.To), ed.Label)
	}
	return p
}

// BenchmarkFallbackSearch measures the seeded-tier fallback of
// CountExtension in isolation: one op is one Limit 1, MaxSteps 50000
// search of a compiled pattern against one partition, cycling through
// every (pattern, partition) pair with each pattern's Matcher reused
// across partitions as CountExtension reuses it, and matches appended
// to a reused list as CountExtension appends them to its pooled one.
// Run with -benchmem: in steady state a search allocates nothing.
func BenchmarkFallbackSearch(b *testing.B) {
	txns, pats := fallbackFixture()
	matchers := make([]*iso.Matcher, len(pats))
	lists := make([]iso.EmbeddingList, len(pats))
	for i, p := range pats {
		matchers[i] = iso.NewMatcher(p)
		lists[i] = iso.NewEmbeddingList(p)
	}
	opts := iso.Options{Limit: 1, MaxSteps: 50000}
	// Warm every transaction's label index, every matcher's scratch
	// and every list, so the loop measures the steady state.
	for i, m := range matchers {
		for _, t := range txns {
			m.Embeddings(t, opts, &lists[i])
		}
	}
	pairs := len(pats) * len(txns)
	found := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % pairs
		embs := &lists[k/len(txns)]
		embs.Truncate(0)
		if matchers[k/len(txns)].Embeddings(txns[k%len(txns)], opts, embs); embs.Len() > 0 {
			found++
		}
	}
	b.ReportMetric(float64(found)/float64(b.N), "found/op")
}
