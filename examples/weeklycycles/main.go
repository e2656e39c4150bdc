// Weekly cycles: the Section 9 "challenge problem" the paper leaves
// open, implemented here — find routes that repeat over a time window
// even though "the entire path is not connected at any given time
// instant": a truck runs leg 1 on Monday, leg 2 on Tuesday, and the
// whole tour repeats week after week. Then check which lanes have a
// detectable weekly cadence.
package main

import (
	"fmt"
	"io"
	"os"

	"tnkd"
	"tnkd/internal/dynamic"
)

func main() { run(os.Stdout) }

// run writes the example's report to w.
func run(w io.Writer) {
	data := tnkd.GenerateDataset(tnkd.ScaledConfig(0.025))
	g := dynamic.FromDataset(data, tnkd.GrossWeight, nil)
	fmt.Fprintf(w, "dynamic graph: %d timed edges over %d days\n\n", len(g.Edges), g.Days)

	// Multi-leg tours: consecutive legs at most two days apart, whole
	// tour inside a week, repeated at least four separate times.
	tours := dynamic.FindRepeatedPaths(g, dynamic.TimePathQuery{
		MinLegs: 2,
		MaxLegs: 3,
		MaxGap:  2,
		Window:  7,
		Support: 4,
	})
	fmt.Fprintf(w, "repeated multi-leg tours: %d\n", len(tours))
	for i, tour := range tours {
		if i == 5 {
			fmt.Fprintln(w, "  ...")
			break
		}
		first := tour.Occurrences[0]
		fmt.Fprintf(w, "  %s — %d runs, first on day %d\n",
			tour, len(tour.Occurrences), first.Starts[0])
	}

	// Dedicated-lane candidates: pickups with a near-weekly cadence.
	fmt.Fprintln(w, "\nweekly dedicated-lane candidates:")
	lanes := dynamic.DetectPeriodicity(g, 8, 0.7)
	shown := 0
	for _, lane := range lanes {
		if lane.Period < 6 || lane.Period > 15 {
			continue // only near-weekly cadences
		}
		fmt.Fprintf(w, "  %s\n", lane)
		shown++
		if shown == 6 {
			break
		}
	}
	if shown == 0 {
		fmt.Fprintln(w, "  (none at this scale; raise -scale)")
	}
}
