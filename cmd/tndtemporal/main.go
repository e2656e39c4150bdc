// Command tndtemporal runs the Section 6 temporal experiments:
// per-day partitioning statistics (Tables 2 and 3) and frequent
// repeated-route mining (Figure 4), plus the Section 8 candidate
// blow-up study.
//
// Usage:
//
//	tndtemporal [-scale 0.05] [-mine] [-blowup] [-parallelism N] [-maxembeddings N] [-days N] [-window N] [-store out.tnd] [-delta-from prev.tnd]
//
// -store persists the Figure 4 mine (patterns, TID lists, embeddings
// and the per-day transactions) to an internal/store file that
// cmd/tndserve can answer queries from.
//
// -delta-from names the previous generation prev.tnd; the run still
// mines its days afresh, and the store written by -store records
// prev.tnd as its parent with the next generation number. prev.tnd's
// transactions must be an exact slice of this run's days. -days
// limits the run to the earliest N calendar days, which is how a
// generation sequence is simulated from a fixed dataset: mine -days K
// -store a.tnd, then -days K+1 -delta-from a.tnd -store b.tnd.
//
// -window N mines only the most recent N calendar days (a sliding
// window; support is computed over the window's transactions).
// Combined with -delta-from, the run is a window *slide*: its store
// also records how many of the parent's transactions fell off the
// front. The window only moves forward: widening it, or dropping
// -window against a windowed store, is refused.
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
	"time"

	"tnkd/internal/experiments"
	"tnkd/internal/fsg"
	"tnkd/internal/store"
)

// progressLine renders one completed mining level for -progress. It
// writes through the stderr logger, so stdout (the experiment tables
// CI diffs) is untouched.
func progressLine(stage string, ev fsg.LevelProgress) {
	line := fmt.Sprintf("%s: level %d: candidates=%d frequent=%d embeddings=%d iso_tests=%d budgeted=%d patterns=%d elapsed=%s",
		stage, ev.Edges, ev.Candidates, ev.Frequent, ev.Embeddings, ev.IsoTests, ev.BudgetedTests, ev.Patterns,
		ev.Elapsed.Round(time.Millisecond))
	log.Print(line)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tndtemporal: ")
	scale := flag.Float64("scale", 0.05, "synthetic dataset scale")
	mine := flag.Bool("mine", true, "run frequent-pattern mining (Figure 4)")
	blowup := flag.Bool("blowup", false, "run the Section 8 candidate blow-up study")
	parallelism := flag.Int("parallelism", 0, "mining worker count (0 = all CPUs, 1 = serial)")
	maxEmbeddings := flag.Int("maxembeddings", 0, "per-level FSG embedding budget (0 = default, -1 = unlimited); over budget the incremental support counter falls back to full isomorphism")
	days := flag.Int("days", 0, "limit the run to the earliest N calendar days (0 = all); a -days K run's transactions are an exact prefix of the -days K+1 run's")
	window := flag.Int("window", 0, "mine only the most recent N calendar days (0 = all); with -delta-from, the window may only move forward from the parent's")
	storePath := flag.String("store", "", "persist the Figure 4 mine (patterns + embeddings + per-day transactions) to this store file (serve with tndserve)")
	deltaFrom := flag.String("delta-from", "", "record this previously mined store as the parent generation (its days must be a slice of this run's; patterns are mined afresh)")
	progress := flag.Bool("progress", false, "stream one line per mined level to stderr while mining (stdout stays byte-identical)")
	flag.Parse()
	// Both store paths pre-flight at flag time, so a mistyped path
	// fails in milliseconds instead of after the dataset is built and
	// partitioned.
	if *storePath != "" {
		if err := store.CheckWritable(*storePath); err != nil {
			log.Fatal(err)
		}
	}
	if *deltaFrom != "" {
		if err := checkDeltaSource(*deltaFrom); err != nil {
			log.Fatal(err)
		}
	}

	p := experiments.NewParams(*scale)
	p.Parallelism = *parallelism
	p.MaxEmbeddings = *maxEmbeddings
	p.Days = *days
	p.Window = *window
	p.StorePath = *storePath
	p.DeltaFrom = *deltaFrom
	if *progress {
		p.Progress = progressLine
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

// checkDeltaSource validates a -delta-from store at flag time: it
// must open as a store (header + footer only — milliseconds) and
// pass the shared delta-source checks for a transaction-set store.
// Everything else (prefix match against the freshly partitioned
// days) is verified before mining starts.
func checkDeltaSource(path string) error {
	r, err := store.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	return r.ValidateDeltaSource()
}
