// Repeated routes: the Section 6 pipeline. Partition the OD data by
// day (an OD pair is active between its pickup and delivery dates),
// label vertices with their locations, and mine patterns that repeat
// across days — recurring lanes and hub fan-outs a carrier can
// schedule dedicated capacity for.
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
	data := tnkd.GenerateDataset(tnkd.ScaledConfig(0.025))

	opts := tnkd.DefaultTemporalMineOptions()
	opts.Partition.MaxVertexLabels = 40 // scale the paper's <200-label filter
	opts.MaxEdges = 4
	res, err := tnkd.MineTemporal(data, opts)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "temporally partitioned transactions (Table 2/3 style):")
	fmt.Fprint(w, res.Stats)

	fmt.Fprintf(w, "\nfrequent repeated routes at support %d (%d patterns):\n\n",
		res.Support, len(res.Mining.Patterns))
	shown := 0
	for _, p := range res.Mining.Patterns {
		if p.Graph.NumEdges() < 2 {
			continue // single recurring lanes are common; show shapes
		}
		fmt.Fprintf(w, "pattern repeated on %d days:\n%s\n", p.Support, p.Graph.Dump())
		shown++
		if shown == 5 {
			break
		}
	}
	if shown == 0 {
		fmt.Fprintln(w, "(only single-lane repeats at this scale; raise -scale for richer shapes)")
		for i, p := range res.Mining.Patterns {
			if i == 3 {
				break
			}
			fmt.Fprintf(w, "lane repeated on %d days:\n%s\n", p.Support, p.Graph.Dump())
		}
	}
	return nil
}
