// Command tndtemporal runs the Section 6 temporal experiments:
// per-day partitioning statistics (Tables 2 and 3) and frequent
// repeated-route mining (Figure 4), plus the Section 8 candidate
// blow-up study.
//
// Usage:
//
//	tndtemporal [-scale 0.05] [-mine] [-blowup] [-parallelism N] [-days N] [-store out.tnd]
//
// -store persists the Figure 4 mine (patterns, TID lists, embeddings
// and the per-day transactions) to an internal/store file that
// cmd/tndserve can answer queries from.
//
// -days limits the run to the earliest N calendar days. A -days K
// store is generation 0: tndingest -seed adopts it and builds every
// successor generation (and every sliding window) from batches, e.g.
// the per-day batches tndingest -make-batches cuts from days K+1..N.
//
// -progress streams one line to stderr per mined level as the level
// completes (candidates, frequent, embeddings, elapsed), so a long
// mine is never silent; stdout stays byte-identical with or without
// the flag.
package main

import (
	"flag"
	"fmt"
	"log"

	"tnkd/internal/experiments"
	"tnkd/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tndtemporal: ")
	scale := flag.Float64("scale", 0.05, "synthetic dataset scale")
	mine := flag.Bool("mine", true, "run frequent-pattern mining (Figure 4)")
	blowup := flag.Bool("blowup", false, "run the Section 8 candidate blow-up study")
	parallelism := flag.Int("parallelism", 0, "mining worker count (0 = all CPUs, 1 = serial)")
	days := flag.Int("days", 0, "limit the run to the earliest N calendar days (0 = all); a -days K run's transactions are an exact prefix of the -days K+1 run's")
	storePath := flag.String("store", "", "persist the Figure 4 mine (patterns + embeddings + per-day transactions) to this store file (serve with tndserve)")
	progress := flag.Bool("progress", false, "stream one line per mined level to stderr while mining (stdout stays byte-identical)")
	flag.Parse()
	// The store path pre-flights at flag time, so a mistyped path
	// fails in milliseconds instead of after the dataset is built and
	// partitioned.
	if *storePath != "" {
		if err := store.CheckWritable(*storePath); err != nil {
			log.Fatal(err)
		}
	}

	p := experiments.NewParams(*scale)
	p.Parallelism = *parallelism
	p.Days = *days
	p.StorePath = *storePath
	if *progress {
		p.Progress = experiments.LogProgress
	}
	fmt.Print(experiments.RunTable2(p))
	fmt.Println()
	fmt.Print(experiments.RunTable3(p))
	if *mine {
		fmt.Println()
		fmt.Print(experiments.RunFigure4(p))
	}
	if *blowup {
		fmt.Println()
		fmt.Print(experiments.RunSection8(p, 0))
	}
}
