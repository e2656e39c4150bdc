// Deadhead analysis: run SUBDUE on the gross-weight OD graph to
// surface asymmetric flow patterns — lanes with significant traffic
// one way and little or none coming back, which force carriers to
// move empty trucks ("deadheading"). This is the Figure 1 scenario:
// the paper's transportation experts read such patterns as pricing
// opportunities outside classic route optimization.
package main

import (
	"fmt"
	"io"
	"os"

	"tnkd"
	"tnkd/internal/graph"
	"tnkd/internal/subdue"
)

func main() { run(os.Stdout) }

// run writes the example's report to w.
func run(w io.Writer) {
	data := tnkd.GenerateDataset(tnkd.ScaledConfig(0.025))
	g := tnkd.BuildGraph(data, tnkd.GraphOptions{
		Attr:     tnkd.GrossWeight,
		Vertices: tnkd.UniformLabels,
	})
	fmt.Fprintln(w, "graph:", g)

	// Discover substructures with the MDL principle, as in the
	// paper's Figure 1 run (beam 4, best 3). The expansion limit is
	// bounded: SUBDUE's unbounded default is exactly the multi-hour
	// run the paper reports on 100-vertex graphs.
	opts := tnkd.DefaultSubdueOptions()
	opts.Limit = 20
	opts.MaxInstances = 150
	opts.MaxSteps = 50000
	res := tnkd.Subdue(g, opts)

	fmt.Fprintf(w, "substructures expanded: %d\n\n", res.Considered)
	for i, s := range res.Best {
		fmt.Fprintf(w, "--- best %d ---\n%s", i+1, subdue.Render(s))
		if chainLen := chainLength(s.Graph); chainLen >= 2 {
			fmt.Fprintf(w, "  ^ a %d-hop one-way chain: candidate deadhead corridor —\n", chainLen)
			fmt.Fprintln(w, "    heavy flow down the chain with no return edge; consider")
			fmt.Fprintln(w, "    discounted backhaul pricing on the reverse lanes.")
		}
		fmt.Fprintln(w)
	}
}

// chainLength returns k when g is a directed path with k edges, else 0.
func chainLength(g *graph.Graph) int {
	starts, ends, mids := 0, 0, 0
	for v := range graph.VertexID(g.NumVertices()) {
		in, out := g.InDegree(v), g.OutDegree(v)
		switch {
		case in == 0 && out == 1:
			starts++
		case in == 1 && out == 0:
			ends++
		case in == 1 && out == 1:
			mids++
		default:
			return 0
		}
	}
	if starts == 1 && ends == 1 && g.NumEdges() == g.NumVertices()-1 {
		return g.NumEdges()
	}
	return 0
}
