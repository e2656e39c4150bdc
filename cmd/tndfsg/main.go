// Command tndfsg runs the Section 5.2 structural experiments:
// Algorithm 1 (partition the single OD graph breadth- or depth-first,
// mine frequent subgraphs across partitions) plus the partition-size
// sweep and the planted-pattern recall study.
//
// Usage:
//
//	tndfsg [-scale 0.05] [-strategy bf|df] [-sweep] [-recall] [-parallelism N] [-store out.tnd]
//
// -store persists the headline structural mine (patterns, TID lists,
// embeddings and the partitioned transactions) to an internal/store
// file that cmd/tndserve can answer queries from.
//
// -progress streams one line to stderr per mined level as each
// repetition's mine completes it (candidates, frequent, embeddings,
// elapsed), so a long run is never silent; stdout stays
// byte-identical with or without the flag.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"tnkd/internal/experiments"
	"tnkd/internal/fsg"
	"tnkd/internal/store"
)

// progressLine renders one completed mining level for -progress,
// writing to stderr so the stdout tables CI diffs are untouched.
func progressLine(stage string, ev fsg.LevelProgress) {
	line := fmt.Sprintf("%s: level %d: candidates=%d frequent=%d embeddings=%d iso_tests=%d budgeted=%d patterns=%d elapsed=%s",
		stage, ev.Edges, ev.Candidates, ev.Frequent, ev.Embeddings, ev.IsoTests, ev.BudgetedTests, ev.Patterns,
		ev.Elapsed.Round(time.Millisecond))
	log.Print(line)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tndfsg: ")
	scale := flag.Float64("scale", 0.05, "synthetic dataset scale")
	strategy := flag.String("strategy", "bf", "partitioning strategy: bf or df")
	sweep := flag.Bool("sweep", false, "run the partition-size sweep (Section 5.2.2)")
	recall := flag.Bool("recall", false, "run the planted-pattern recall study (footnote 2)")
	parallelism := flag.Int("parallelism", 0, "mining worker count (0 = all CPUs, 1 = serial)")
	storePath := flag.String("store", "", "persist the mined patterns + embeddings to this store file (serve with tndserve)")
	progress := flag.Bool("progress", false, "stream one line per mined level to stderr while mining (stdout stays byte-identical)")
	flag.Parse()
	// The store path pre-flights at flag time, so a mistyped path
	// fails in milliseconds instead of after partitioning and mining.
	if *storePath != "" {
		if err := store.CheckWritable(*storePath); err != nil {
			log.Fatal(err)
		}
	}

	p := experiments.NewParams(*scale)
	p.Parallelism = *parallelism
	p.StorePath = *storePath
	if *progress {
		p.Progress = progressLine
	}
	switch strings.ToLower(*strategy) {
	case "bf":
		fmt.Print(experiments.RunFigure2(p))
	case "df":
		fmt.Print(experiments.RunFigure3(p))
	default:
		log.Fatalf("unknown strategy %q (want bf or df)", *strategy)
	}
	if *sweep {
		fmt.Print(experiments.RunSection522Sweep(p))
	}
	if *recall {
		fmt.Print(experiments.RunFootnote2(p))
	}
}
