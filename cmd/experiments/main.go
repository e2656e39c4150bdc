// Command experiments regenerates every table and figure of the
// paper's evaluation in one run and prints a consolidated report (the
// source of EXPERIMENTS.md's measured column).
//
// Usage:
//
//	experiments [-scale 0.05] [-parallelism N] [-store prefix]
//
// -store persists the three headline mining runs to store files
// <prefix>_figure2.tnd, <prefix>_figure3.tnd and <prefix>_figure4.tnd
// for cmd/tndserve.
//
// Scale 1 reproduces the full-size experiments; expect graph-mining
// sections to take correspondingly longer.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tnkd/internal/experiments"
	"tnkd/internal/store"
)

func main() {
	scale := flag.Float64("scale", 0.05, "synthetic dataset scale in (0, 1]")
	parallelism := flag.Int("parallelism", 0, "mining worker count (0 = all CPUs, 1 = serial)")
	storePrefix := flag.String("store", "", "persist the figure 2/3/4 mines to <prefix>_figure{2,3,4}.tnd store files (serve with tndserve)")
	flag.Parse()

	start := time.Now()
	p := experiments.NewParams(*scale)
	p.Parallelism = *parallelism
	// withStore copies the shared params with the per-figure store
	// path (empty prefix = no persistence anywhere).
	withStore := func(figure string) experiments.Params {
		q := p
		if *storePrefix != "" {
			q.StorePath = fmt.Sprintf("%s_%s.tnd", *storePrefix, figure)
		}
		return q
	}
	if *storePrefix != "" {
		// Fail a mistyped prefix now, not an hour into the suite.
		for _, figure := range []string{"figure2", "figure3", "figure4"} {
			if err := store.CheckWritable(withStore(figure).StorePath); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("# Knowledge Discovery from Transportation Network Data — reproduction report\n")
	fmt.Printf("# scale=%.3f transactions=%d\n\n", *scale, p.Data.Len())

	sections := []struct {
		name string
		run  func() fmt.Stringer
	}{
		{"Table 1", func() fmt.Stringer { return experiments.RunTable1(p) }},
		{"Figure 1", func() fmt.Stringer { return experiments.RunFigure1(p) }},
		{"Section 5.1 (Size)", func() fmt.Stringer { return experiments.RunSection51Size(p) }},
		{"Section 5.1 (scaling)", func() fmt.Stringer { return experiments.RunSection51Scaling(p, nil) }},
		{"Figure 2", func() fmt.Stringer { return experiments.RunFigure2(withStore("figure2")) }},
		{"Figure 3", func() fmt.Stringer { return experiments.RunFigure3(withStore("figure3")) }},
		{"Section 5.2.2 sweep", func() fmt.Stringer { return experiments.RunSection522Sweep(p) }},
		{"Footnote 2 recall", func() fmt.Stringer { return experiments.RunFootnote2(p) }},
		{"Table 2", func() fmt.Stringer { return experiments.RunTable2(p) }},
		{"Table 3", func() fmt.Stringer { return experiments.RunTable3(p) }},
		{"Figure 4", func() fmt.Stringer { return experiments.RunFigure4(withStore("figure4")) }},
		{"Section 8 blow-up", func() fmt.Stringer { return experiments.RunSection8(p, 0) }},
		{"Section 7.1", func() fmt.Stringer { return experiments.RunSection71(p) }},
		{"Section 7.2", func() fmt.Stringer { return experiments.RunSection72(p) }},
		{"Figures 5 & 6", func() fmt.Stringer { return experiments.RunFigure56(p) }},
		{"Section 9 extensions", func() fmt.Stringer { return experiments.RunSection9(p) }},
	}
	for _, s := range sections {
		t0 := time.Now()
		out := s.run()
		fmt.Print(out)
		fmt.Printf("[%s completed in %v]\n\n", s.name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("# total: %v\n", time.Since(start).Round(time.Millisecond))
}
