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
	"math"

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
	// MaxEmbeddings is the per-level embedding budget handed to every
	// FSG run (0 = the fsg default, negative = unlimited); see
	// fsg.Options.MaxEmbeddings. While no isomorphism search aborts
	// on its step budget (true of the stock configs), mining results
	// are identical for every value — only the incremental/seeded/
	// full-matching split of the support counter changes.
	MaxEmbeddings int
	// StorePath, when non-empty, persists the headline mining run of
	// the figure runners (RunFigure2's BF structural mine,
	// RunFigure3's DF structural mine, RunFigure4's temporal mine) to
	// an internal/store file at exactly this path, for cmd/tndserve
	// to serve. Sweep, recall and blow-up runners never write stores.
	StorePath string
	// DeltaFrom, when non-empty, names the persisted temporal store
	// RunFigure4 succeeds: it mines its window afresh and records the
	// store as its parent generation (core
	// TemporalMineOptions.DeltaFrom). Results are identical to the
	// corresponding full mine. The structural runners ignore it.
	DeltaFrom string
	// Days, when > 0, limits the temporal runners to the earliest
	// Days calendar days (partition.TemporalOptions.MaxDays) — the
	// arrival-simulation knob the delta end-to-end checks use to mine
	// days 1..k, then days 1..k+1 as the next generation. The Table 3 vertex-label cap
	// is still computed over the full dataset, so a day-limited run's
	// transactions stay an exact prefix of the next day's.
	Days int
	// Window, when > 0, restricts RunFigure4 to the most recent
	// Window days of the (possibly Days-limited) partition — the
	// sliding-window regime (core TemporalMineOptions.Window).
	// Combined with DeltaFrom the run is a window slide: the new
	// store is a fresh mine of the window whose lineage names the
	// stored run and counts the transactions that fell off its front.
	Window int
	// Progress, when non-nil, receives one event per completed
	// Apriori level of the headline figure miners (RunFigure2/3's
	// structural repetitions, RunFigure4's temporal mine), tagged
	// with the mining stage ("figure4", "figure2 rep 0", ...).
	// Events fire while the mine runs — the `-progress` streaming of
	// cmd/tndfsg and cmd/tndtemporal. Structural repetitions mine
	// concurrently, so the callback must be safe for concurrent use.
	Progress func(stage string, ev fsg.LevelProgress)
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
