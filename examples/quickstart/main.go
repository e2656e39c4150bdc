// Quickstart: generate a small synthetic OD dataset, build the
// transit-hours OD graph, partition it breadth-first and mine the
// frequent structural patterns (the Section 5 pipeline end to end).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"tnkd"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's report to w.
func run(w io.Writer) error {
	// 1. Data: a 2.5%-scale synthetic six-month OD dataset.
	data := tnkd.GenerateDataset(tnkd.ScaledConfig(0.025))
	fmt.Fprintln(w, "dataset:", data.Summarize())

	// 2. Graph: one vertex per location, one edge per shipment, edge
	// labels = binned transit hours, all vertices labeled alike so
	// only structure matters.
	g := tnkd.BuildGraph(data, tnkd.GraphOptions{
		Attr:     tnkd.TransitHours,
		Vertices: tnkd.UniformLabels,
	})
	fmt.Fprintln(w, "graph:", g)

	// 3. Mine: Algorithm 1 — partition the single graph into
	// transactions, run frequent-subgraph discovery, repeat with
	// fresh partitionings and union the results.
	opts := tnkd.DefaultStructuralOptions()
	opts.Partitions = 20
	opts.Support = 6
	opts.Repetitions = 2
	opts.MaxEdges = 4
	res, err := tnkd.MineStructural(g, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "frequent structural patterns: %d\n", len(res.Patterns))
	for i, p := range res.Patterns {
		if i == 5 {
			fmt.Fprintln(w, "  ...")
			break
		}
		fmt.Fprintf(w, "pattern %d: %d edges, support %d (found in %d/%d runs)\n",
			i+1, p.Graph.NumEdges(), p.Support, p.Runs, opts.Repetitions)
	}
	if best := res.MaxPattern(); best != nil {
		fmt.Fprintln(w, "largest pattern:")
		fmt.Fprint(w, best.Graph.Dump())
	}
	return nil
}
