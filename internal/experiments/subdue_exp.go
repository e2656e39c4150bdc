package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tnkd/internal/dataset"
	"tnkd/internal/graph"
	"tnkd/internal/subdue"
)

// truncatedSubgraph reproduces the paper's experimental setup for
// SUBDUE: "sub-graphs of various sizes ... derived from the original
// graph by selecting the required number of vertices and then
// including all of the edges incident on vertices present in the
// graph". Vertices are selected as a traversal ball around a busy
// vertex so the subgraph is dense and connected, like the paper's
// 100-vertex / 561-edge slice.
func truncatedSubgraph(g *graph.Graph, numVertices int) *graph.Graph {
	if numVertices >= g.NumVertices() {
		return g.Clone()
	}
	// Start from the highest-degree vertex.
	var start graph.VertexID
	bestDeg := -1
	for v := range graph.VertexID(g.NumVertices()) {
		if d := g.Degree(v); d > bestDeg {
			start, bestDeg = v, d
		}
	}
	visited := map[graph.VertexID]bool{start: true}
	queue := []graph.VertexID{start}
	var picked []graph.VertexID
	for len(queue) > 0 && len(picked) < numVertices {
		v := queue[0]
		queue = queue[1:]
		picked = append(picked, v)
		for _, u := range g.Neighbors(v) {
			if !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
	}
	return g.InducedSubgraph(fmt.Sprintf("%s[%dv]", g.Name, len(picked)), picked)
}

// Figure1Result reproduces Figure 1 / Section 5.1: SUBDUE with the
// MDL principle on the uniformly-labeled OD_GW subgraph. The paper's
// finding: MDL surfaces small, very frequent patterns (including the
// deadheading chain), because larger patterns are relatively
// infrequent.
type Figure1Result struct {
	GraphVertices int
	GraphEdges    int
	Best          []subdue.Substructure
	Considered    int
	Elapsed       time.Duration
	// DeadheadFound reports whether a chain pattern (the Figure 1
	// deadheading shape: traffic A->B->C with no return edge) is
	// among the best substructures.
	DeadheadFound bool
}

// RunFigure1 executes the MDL experiment (paper parameters: best 3,
// beam 4, 100-vertex truncated graph).
func RunFigure1(p Params) *Figure1Result {
	full := p.Data.BuildGraph(dataset.GraphOptions{
		Attr: dataset.GrossWeight, Vertices: dataset.UniformLabels,
	})
	sub := truncatedSubgraph(full, 100)
	start := time.Now()
	res := subdue.Discover(sub, subdue.Options{
		Principle:    subdue.MDL,
		BeamWidth:    4,
		MaxBest:      3,
		Limit:        30, // bounded expansion; the unbounded default is the paper's 3.25 h run
		MaxInstances: 200,
		MaxSteps:     50000,
		MinInstances: 2,
		Parallelism:  p.Parallelism,
	})
	out := &Figure1Result{
		GraphVertices: sub.NumVertices(),
		GraphEdges:    sub.NumEdges(),
		Best:          res.Best,
		Considered:    res.Considered,
		Elapsed:       time.Since(start),
	}
	for _, s := range res.Best {
		if isChain(s.Graph) && s.Graph.NumEdges() >= 2 {
			out.DeadheadFound = true
		}
	}
	return out
}

// isChain reports whether g is a simple directed path v1->v2->...->vk.
func isChain(g *graph.Graph) bool {
	if g.NumEdges() != g.NumVertices()-1 {
		return false
	}
	starts, ends := 0, 0
	for v := range graph.VertexID(g.NumVertices()) {
		in, out := g.InDegree(v), g.OutDegree(v)
		switch {
		case in == 0 && out == 1:
			starts++
		case in == 1 && out == 0:
			ends++
		case in == 1 && out == 1:
		default:
			return false
		}
	}
	return starts == 1 && ends == 1
}

// isHub reports whether g is a hub-and-spoke: one centre with
// out-edges to every other vertex.
func isHub(g *graph.Graph) bool {
	if g.NumVertices() < 3 || g.NumEdges() != g.NumVertices()-1 {
		return false
	}
	hubs := 0
	for v := range graph.VertexID(g.NumVertices()) {
		in, out := g.InDegree(v), g.OutDegree(v)
		switch {
		case in == 0 && out == g.NumVertices()-1:
			hubs++
		case in == 1 && out == 0:
		default:
			return false
		}
	}
	return hubs == 1
}

// String renders the Figure 1 report.
func (r *Figure1Result) String() string {
	var b strings.Builder
	b.WriteString("=== Figure 1 / Section 5.1: SUBDUE (MDL) on OD_GW ===\n")
	fmt.Fprintf(&b, "graph: %d vertices, %d edges; %d substructures expanded in %v\n",
		r.GraphVertices, r.GraphEdges, r.Considered, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "deadhead chain among best: %v\n", r.DeadheadFound)
	for i, s := range r.Best {
		fmt.Fprintf(&b, "--- best %d ---\n%s", i+1, subdue.Render(s))
	}
	return b.String()
}

// Section51SizeResult reproduces the Size-principle run of Section
// 5.1: larger, more complex patterns than MDL surfaces, at higher
// cost.
type Section51SizeResult struct {
	GraphVertices  int
	GraphEdges     int
	Best           []subdue.Substructure
	Elapsed        time.Duration
	MaxPatternSize int // vertices of the largest best substructure
	MDLMaxSize     int // same graph under MDL, for the contrast
}

// RunSection51Size executes the Size-principle contrast experiment
// (paper parameters: best 5, beam 5, OD_TD 100-vertex graph).
func RunSection51Size(p Params) *Section51SizeResult {
	full := p.Data.BuildGraph(dataset.GraphOptions{
		Attr: dataset.TotalDistance, Vertices: dataset.UniformLabels,
	})
	sub := truncatedSubgraph(full, 100)
	start := time.Now()
	sizeRes := subdue.Discover(sub, subdue.Options{
		Principle:    subdue.Size,
		BeamWidth:    5,
		MaxBest:      5,
		Limit:        30,
		MaxInstances: 200,
		MaxSteps:     50000,
		MinInstances: 2,
		Parallelism:  p.Parallelism,
	})
	elapsed := time.Since(start)
	mdlRes := subdue.Discover(sub, subdue.Options{
		Principle:    subdue.MDL,
		BeamWidth:    5,
		MaxBest:      5,
		Limit:        30,
		MaxInstances: 200,
		MaxSteps:     50000,
		MinInstances: 2,
		Parallelism:  p.Parallelism,
	})
	out := &Section51SizeResult{
		GraphVertices: sub.NumVertices(),
		GraphEdges:    sub.NumEdges(),
		Best:          sizeRes.Best,
		Elapsed:       elapsed,
	}
	for _, s := range sizeRes.Best {
		if s.Graph.NumVertices() > out.MaxPatternSize {
			out.MaxPatternSize = s.Graph.NumVertices()
		}
	}
	for _, s := range mdlRes.Best {
		if s.Graph.NumVertices() > out.MDLMaxSize {
			out.MDLMaxSize = s.Graph.NumVertices()
		}
	}
	return out
}

// String renders the Size-principle report.
func (r *Section51SizeResult) String() string {
	var b strings.Builder
	b.WriteString("=== Section 5.1: SUBDUE Size principle on OD_TD ===\n")
	fmt.Fprintf(&b, "graph: %d vertices, %d edges; elapsed %v\n",
		r.GraphVertices, r.GraphEdges, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "largest pattern: %d vertices (Size) vs %d vertices (MDL)\n",
		r.MaxPatternSize, r.MDLMaxSize)
	for i, s := range r.Best {
		fmt.Fprintf(&b, "--- best %d ---\n%s", i+1, subdue.Render(s))
	}
	return b.String()
}

// ScalingPoint is one row of the SUBDUE runtime-scaling series.
type ScalingPoint struct {
	Vertices   int
	Edges      int
	Elapsed    time.Duration
	Considered int
}

// Section51ScalingResult reproduces the paper's runtime narrative:
// SUBDUE's cost grows superlinearly with graph size (3.25 h at 100
// vertices, 12 days at 4,037 vertices on 2004 hardware).
type Section51ScalingResult struct {
	Points []ScalingPoint
}

// RunSection51Scaling measures discovery time across subgraph sizes.
func RunSection51Scaling(p Params, sizes []int) *Section51ScalingResult {
	if len(sizes) == 0 {
		sizes = []int{25, 50, 75, 100}
	}
	full := p.Data.BuildGraph(dataset.GraphOptions{
		Attr: dataset.GrossWeight, Vertices: dataset.UniformLabels,
	})
	res := &Section51ScalingResult{}
	for _, n := range sizes {
		sub := truncatedSubgraph(full, n)
		start := time.Now()
		r := subdue.Discover(sub, subdue.Options{
			Principle:    subdue.MDL,
			BeamWidth:    4,
			MaxBest:      3,
			Limit:        20,
			MaxInstances: 150,
			MaxSteps:     50000,
			MinInstances: 2,
			Parallelism:  p.Parallelism,
		})
		res.Points = append(res.Points, ScalingPoint{
			Vertices:   sub.NumVertices(),
			Edges:      sub.NumEdges(),
			Elapsed:    time.Since(start),
			Considered: r.Considered,
		})
	}
	sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].Vertices < res.Points[j].Vertices })
	return res
}

// String renders the scaling series.
func (r *Section51ScalingResult) String() string {
	var b strings.Builder
	b.WriteString("=== Section 5.1: SUBDUE runtime scaling (MDL, beam 4) ===\n")
	b.WriteString("vertices  edges  expanded  elapsed\n")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%8d  %5d  %8d  %v\n", pt.Vertices, pt.Edges, pt.Considered, pt.Elapsed.Round(time.Millisecond))
	}
	return b.String()
}
