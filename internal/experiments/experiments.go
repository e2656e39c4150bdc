// Package experiments contains one runner per table and figure of
// the paper's evaluation. Each runner returns a typed result that
// renders the same rows/series the paper reports, so the benchmark
// harness (bench_test.go) and the cmd/experiments binary regenerate
// every artifact from one place.
//
// Runners accept Params with a Scale knob: Scale=1 reproduces the
// full-size experiment; smaller scales shrink the synthetic dataset
// and thresholds proportionally so the suite stays fast in tests
// while preserving the qualitative shape of every result.
package experiments

import (
	"fmt"
	"log"
	"math"
	"time"

	"tnkd/internal/dataset"
	"tnkd/internal/fsg"
)

// stageProgress adapts Params.Progress to a single named mining
// stage's fsg-level callback (nil in, nil out).
func (p Params) stageProgress(stage string) func(fsg.LevelProgress) {
	if p.Progress == nil {
		return nil
	}
	return func(ev fsg.LevelProgress) { p.Progress(stage, ev) }
}

// repProgress adapts Params.Progress to a structural run's
// per-repetition callback, tagging each event "<stage> rep <n>".
func (p Params) repProgress(stage string) func(int, fsg.LevelProgress) {
	if p.Progress == nil {
		return nil
	}
	return func(rep int, ev fsg.LevelProgress) {
		p.Progress(fmt.Sprintf("%s rep %d", stage, rep), ev)
	}
}

// Params carries the shared inputs of all experiment runners.
type Params struct {
	// Data is the OD dataset (synthetic stand-in for the paper's
	// proprietary six-month extract).
	Data *dataset.Dataset
	// Scale is the fraction of full size Data was generated at;
	// thresholds (supports, partition counts) scale with it.
	Scale float64
	// Seed drives any per-experiment randomness.
	Seed int64
	// Parallelism is the engine worker count handed to every miner
	// (<= 0 selects GOMAXPROCS, 1 is fully serial). Mining results
	// are identical for every value; only wall-clock time changes.
	Parallelism int
	// StorePath, when non-empty, persists the headline mining run of
	// the figure runners (RunFigure2's BF structural mine,
	// RunFigure3's DF structural mine, RunFigure4's temporal mine) to
	// an internal/store file at exactly this path, for cmd/tndserve
	// to serve. Sweep, recall and blow-up runners never write stores.
	StorePath string
	// Days, when > 0, limits the temporal runners to the earliest
	// Days calendar days (partition.TemporalOptions.MaxDays) — the
	// arrival-simulation knob: a -days k run is the seed of an ingest
	// chain and a -days N run its one-shot reference. The Table 3
	// vertex-label cap is still computed over the full dataset, so a
	// day-limited run's transactions stay an exact prefix of the next
	// day's.
	Days int
	// Progress, when non-nil, receives one event per completed
	// Apriori level of the headline figure miners (RunFigure2/3's
	// structural repetitions, RunFigure4's temporal mine), tagged
	// with the mining stage ("figure4", "figure2 rep 0", ...).
	// Events fire while the mine runs — the `-progress` streaming of
	// cmd/tndfsg and cmd/tndtemporal. Structural repetitions mine
	// concurrently, so the callback must be safe for concurrent use.
	Progress func(stage string, ev fsg.LevelProgress)
}

// LogProgress is the Progress callback of the -progress flags: one
// line per completed level through the standard logger (stderr), so
// stdout stays byte-identical with or without it.
func LogProgress(stage string, ev fsg.LevelProgress) {
	log.Printf("%s: level %d: candidates=%d frequent=%d embeddings=%d iso_tests=%d budgeted=%d patterns=%d elapsed=%s",
		stage, ev.Edges, ev.Candidates, ev.Frequent, ev.Embeddings, ev.IsoTests, ev.BudgetedTests, ev.Patterns,
		ev.Elapsed.Round(time.Millisecond))
}

// NewParams generates a dataset at the given scale and returns ready
// parameters. Scale 1 is the full 98,292-transaction reproduction.
func NewParams(scale float64) Params {
	cfg := dataset.DefaultConfig()
	if scale < 1 {
		cfg = cfg.Scaled(scale)
	}
	return Params{Data: dataset.Generate(cfg), Scale: scale, Seed: cfg.Seed}
}

// QuickScale is the scale used by unit tests and benchmarks: large
// enough to preserve every qualitative result, small enough to run
// each experiment in well under a second of setup.
const QuickScale = 0.04

// scaled shrinks an absolute full-scale threshold, keeping a floor.
func (p Params) scaled(full int, floor int) int {
	v := int(math.Round(float64(full) * p.Scale))
	if v < floor {
		v = floor
	}
	return v
}
