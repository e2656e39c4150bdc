// Package core wires the substrates into the paper's three mining
// pipelines — its primary contribution:
//
//  1. Structural similarity mining (Section 5): partition the single
//     OD graph with breadth-/depth-first SplitGraph and mine frequent
//     subgraphs across partitions, repeated with different random
//     partitionings (Algorithm 1).
//  2. Temporally repeated routes (Section 6): partition by active
//     day with unique location labels and mine frequent subgraphs
//     across days.
//  3. Conventional mining (Section 7): flatten transactions into
//     nominal/numeric tables and run association rules,
//     classification and clustering.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"tnkd/internal/bin"
	"tnkd/internal/dataset"
	"tnkd/internal/engine"
	"tnkd/internal/fsg"
	"tnkd/internal/graph"
	"tnkd/internal/partition"
	"tnkd/internal/pattern"
	"tnkd/internal/store"
)

// StructuralOptions configures Algorithm 1.
type StructuralOptions struct {
	// Strategy is the SplitGraph traversal order.
	Strategy partition.Strategy
	// Partitions is Algorithm 1's k (the paper sweeps 400, 800,
	// 1200, 1600).
	Partitions int
	// Repetitions is Algorithm 1's m: the number of independent
	// random partitionings whose results are unioned.
	Repetitions int
	// Support is the absolute per-partitioning support threshold
	// (the paper used 240 for breadth-first, 120 for depth-first).
	Support int
	// MaxEdges caps pattern size (0 = unlimited).
	MaxEdges int
	// MaxSteps bounds individual isomorphism tests.
	MaxSteps int
	// Seed drives the random partitionings.
	Seed int64
	// Parallelism is the worker count: the m repetitions mine
	// concurrently, and each repetition's support counting fans out
	// on the same setting. <= 0 selects GOMAXPROCS; 1 runs fully
	// serial. Results are identical for every value.
	Parallelism int
	// StorePath, when non-empty, persists the run to an
	// internal/store file: the transaction set is the concatenation
	// of every repetition's partitioning, and each repetition's
	// frequent patterns are stored with their TIDs offset into that
	// concatenated space — one record per (pattern, repetition), so
	// the store is the exact per-partitioning ground truth the union
	// was computed from. cmd/tndserve serves the file.
	StorePath string
	// Progress, when non-nil, receives one event per completed
	// Apriori level of every repetition's FSG run, tagged with the
	// repetition index. Repetitions mine concurrently, so events from
	// different repetitions interleave and the callback must be safe
	// for concurrent use.
	Progress func(rep int, ev fsg.LevelProgress)
}

// DefaultStructuralOptions mirrors the paper's breadth-first run.
func DefaultStructuralOptions() StructuralOptions {
	return StructuralOptions{
		Strategy:    partition.BreadthFirst,
		Partitions:  800,
		Repetitions: 3,
		Support:     240,
		MaxEdges:    6,
		MaxSteps:    200000,
	}
}

// StructuralPattern is a frequent pattern found by Algorithm 1,
// unioned across repetitions.
type StructuralPattern struct {
	Graph *graph.Graph
	Code  string
	// Support is the maximum per-partitioning support observed.
	Support int
	// Runs is the number of repetitions in which the pattern was
	// frequent.
	Runs int
}

// StructuralResult is the outcome of Algorithm 1.
type StructuralResult struct {
	Patterns []StructuralPattern
	// PerRun records each repetition's raw FSG result.
	PerRun []*fsg.Result
	// PartitionCounts records the number of partitions produced per
	// repetition (can exceed k when the graph disconnects).
	PartitionCounts []int
}

// MaxPattern returns the largest pattern (edges, then support).
func (r *StructuralResult) MaxPattern() *StructuralPattern {
	var best *StructuralPattern
	for i := range r.Patterns {
		p := &r.Patterns[i]
		if best == nil || p.Graph.NumEdges() > best.Graph.NumEdges() ||
			(p.Graph.NumEdges() == best.Graph.NumEdges() && p.Support > best.Support) {
			best = p
		}
	}
	return best
}

// MineStructural implements Algorithm 1: repeatedly partition the
// single graph and mine each partitioning as a transaction set,
// unioning the discovered frequent subgraphs. If a subgraph is
// frequent under one partitioning it is frequent in the entire graph;
// repetition reduces false drops from patterns split by partition
// boundaries.
func MineStructural(g *graph.Graph, opts StructuralOptions) (*StructuralResult, error) {
	if opts.Partitions < 1 {
		return nil, fmt.Errorf("core: Partitions %d < 1", opts.Partitions)
	}
	if opts.Repetitions < 1 {
		return nil, fmt.Errorf("core: Repetitions %d < 1", opts.Repetitions)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &StructuralResult{}

	// Draw all m partitionings serially first — they consume the
	// shared RNG stream, and drawing them in repetition order keeps
	// the partitionings (and therefore the mining output) identical
	// to a fully serial run. The expensive part, one FSG run per
	// partitioning, then fans out across the engine pool.
	partitionings := make([][]*graph.Graph, opts.Repetitions)
	for rep := range partitionings {
		partitionings[rep] = partition.SplitGraph(g, partition.SplitOptions{
			K:        opts.Partitions,
			Strategy: opts.Strategy,
			Rand:     rng,
		})
		res.PartitionCounts = append(res.PartitionCounts, len(partitionings[rep]))
	}
	runs, err := mineRepetitionSet(partitionings, opts)
	if err != nil {
		return nil, err
	}
	res.PerRun = runs
	u := newStructuralUnion()
	for _, runRes := range runs {
		u.addRun(runRes)
	}
	res.Patterns = u.sorted()
	if opts.StorePath != "" {
		if err := writeStructuralStore(opts.StorePath, g.Name, partitionings, runs, opts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// mineRepetitionSet mines one FSG run per partitioning on the engine
// pool, splitting the worker budget between the two fan-out levels so
// the total stays at the requested Parallelism: with p workers and m
// partitionings, min(p, m) repetitions run at once and each FSG run
// gets the remaining p/min(p,m) workers for support counting.
func mineRepetitionSet(partitionings [][]*graph.Graph, opts StructuralOptions) ([]*fsg.Result, error) {
	p := engine.Parallelism(opts.Parallelism)
	outer := p
	if outer > len(partitionings) {
		outer = len(partitionings)
	}
	inner := p / outer
	if inner < 1 {
		inner = 1
	}
	return engine.MapCtx(context.Background(), outer, len(partitionings),
		func(_ context.Context, rep int) (*fsg.Result, error) {
			fo := fsg.Options{
				MinSupport:  opts.Support,
				MaxEdges:    opts.MaxEdges,
				MaxSteps:    opts.MaxSteps,
				Parallelism: inner,
			}
			if opts.Progress != nil {
				fo.Progress = func(ev fsg.LevelProgress) { opts.Progress(rep, ev) }
			}
			runRes, err := fsg.Mine(partitionings[rep], fo)
			if err != nil {
				return nil, fmt.Errorf("core: repetition %d: %w", rep, err)
			}
			return runRes, nil
		})
}

// structuralUnion accumulates the cross-repetition union, keyed by
// the miner's exact canonical code: equal codes certify isomorphism,
// so membership is a plain map hit.
type structuralUnion struct {
	byCode map[string]*StructuralPattern
	union  []*StructuralPattern
}

func newStructuralUnion() *structuralUnion {
	return &structuralUnion{byCode: make(map[string]*StructuralPattern)}
}

// addRun folds one repetition's frequent patterns into the union.
func (u *structuralUnion) addRun(run *fsg.Result) {
	for i := range run.Patterns {
		p := &run.Patterns[i]
		if existing := u.byCode[p.Code]; existing != nil {
			existing.Runs++
			if p.Support > existing.Support {
				existing.Support = p.Support
			}
			continue
		}
		sp := &StructuralPattern{Graph: p.Graph, Code: p.Code, Support: p.Support, Runs: 1}
		u.byCode[p.Code] = sp
		u.union = append(u.union, sp)
	}
}

// sorted renders the union in the deterministic output order: code
// order first (a total order over isomorphism classes, independent of
// which repetition found a pattern first), then by size and support.
func (u *structuralUnion) sorted() []StructuralPattern {
	sort.SliceStable(u.union, func(i, j int) bool { return u.union[i].Code < u.union[j].Code })
	out := make([]StructuralPattern, 0, len(u.union))
	for _, sp := range u.union {
		out = append(out, *sp)
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := &out[i], &out[j]
		if pi.Graph.NumEdges() != pj.Graph.NumEdges() {
			return pi.Graph.NumEdges() > pj.Graph.NumEdges()
		}
		return pi.Support > pj.Support
	})
	return out
}

// writeStructuralStore persists an Algorithm 1 run: the transaction
// set is every repetition's partitioning concatenated, and each
// repetition's frequent patterns are written with their TIDs offset
// by the repetition's position in that concatenation. The store holds
// one record per (pattern, repetition) — the exact per-partitioning
// ground truth, embeddings included — so a query layer can aggregate
// (max support across repetitions, as the union does) or inspect each
// repetition on its own.
func writeStructuralStore(path, name string, partitionings [][]*graph.Graph, runs []*fsg.Result, opts StructuralOptions) error {
	var txns []*graph.Graph
	offsets := make([]int, len(partitionings))
	for rep, parts := range partitionings {
		offsets[rep] = len(txns)
		txns = append(txns, parts...)
	}
	byEdges := make(map[int][]pattern.Pattern)
	for rep, run := range runs {
		for i := range run.Patterns {
			p := run.Patterns[i] // copy; TIDs replaced, embeddings shared read-only
			p.TIDs = p.TIDs.Offset(offsets[rep])
			if p.Partial.Len() > 0 {
				p.Partial = p.Partial.Offset(offsets[rep])
			}
			byEdges[p.Graph.NumEdges()] = append(byEdges[p.Graph.NumEdges()], p)
		}
	}
	meta := store.Meta{
		Name:        name,
		Kind:        "structural",
		MinSupport:  opts.Support,
		Repetitions: opts.Repetitions,
		Partitions:  opts.Partitions,
		Seed:        opts.Seed,
		Strategy:    opts.Strategy.String(),
		Note: fmt.Sprintf("Algorithm 1: %d repetitions × %d partitions (%s), transactions concatenated per repetition, one record per (pattern, repetition)",
			opts.Repetitions, opts.Partitions, opts.Strategy),
	}
	w, err := store.Create(path, meta)
	if err != nil {
		return err
	}
	if err := w.WriteTransactions(txns); err != nil {
		w.Abort()
		return err
	}
	if err := w.WriteLevels(byEdges); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// TemporalMineOptions configures the Section 6 pipeline.
type TemporalMineOptions struct {
	// Partition configures the per-day partition. Its Parallelism is
	// the worker count of both the partition build and the cross-day
	// support counting.
	Partition partition.TemporalOptions
	// SupportFraction is FSG's relative support (paper: 0.05).
	SupportFraction float64
	MaxEdges        int
	MaxSteps        int
	// StorePath, when non-empty, persists the run to an
	// internal/store file: the per-day transactions are written up
	// front and each Apriori level streams into the writer as it
	// completes (fsg.Options.Checkpoint). The file appears at
	// StorePath only when the mine succeeds; a run that fails or dies
	// leaves whatever was there before. cmd/tndserve serves the file.
	StorePath string
	// Progress is handed to the miner (fsg.Options.Progress): one
	// event per completed Apriori level, emitted while the mine runs.
	Progress func(fsg.LevelProgress)
}

// DefaultTemporalMineOptions mirrors the paper's successful run:
// gross-weight labels, component splitting, duplicate removal,
// single-edge filtering, vertex-label cap 200, 5% support.
func DefaultTemporalMineOptions() TemporalMineOptions {
	p := partition.DefaultTemporalOptions()
	p.MaxVertexLabels = 200
	return TemporalMineOptions{
		Partition:       p,
		SupportFraction: 0.05,
		MaxEdges:        8,
		MaxSteps:        200000,
	}
}

// TemporalMineResult is the Section 6 outcome.
type TemporalMineResult struct {
	Partition *partition.TemporalResult
	Stats     graph.TransactionStats
	Support   int // absolute support used
	Mining    *fsg.Result
}

// MineTemporal partitions by day and mines the repeated routes.
func MineTemporal(d *dataset.Dataset, opts TemporalMineOptions) (*TemporalMineResult, error) {
	if opts.SupportFraction <= 0 || opts.SupportFraction > 1 {
		return nil, fmt.Errorf("core: SupportFraction %f out of (0, 1]", opts.SupportFraction)
	}
	part := partition.Temporal(d, opts.Partition)
	stats := part.Stats()
	support := fsg.MinSupportFraction(len(part.Transactions), opts.SupportFraction)
	fsgOpts := fsg.Options{
		MinSupport:  support,
		MaxEdges:    opts.MaxEdges,
		MaxSteps:    opts.MaxSteps,
		Parallelism: opts.Partition.Parallelism,
		Progress:    opts.Progress,
	}

	var w *store.Writer
	if opts.StorePath != "" {
		meta := store.Meta{
			Name:       "OD/daily",
			Kind:       "temporal",
			MinSupport: support,
			Note:       fmt.Sprintf("Section 6 per-day transactions (%d days)", len(part.DayStarts)),
		}
		var err error
		w, err = store.Create(opts.StorePath, meta)
		if err != nil {
			return nil, err
		}
		if err := w.WriteTransactions(part.Transactions); err != nil {
			w.Abort()
			return nil, err
		}
		fsgOpts.Checkpoint = func(lv fsg.LevelStats, pats []fsg.Pattern) error {
			return w.WriteLevel(lv.Edges, pats)
		}
	}
	mined, err := fsg.Mine(part.Transactions, fsgOpts)
	if err != nil {
		if w != nil {
			w.Abort()
		}
		return nil, err
	}
	if w != nil {
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	return &TemporalMineResult{
		Partition: part,
		Stats:     stats,
		Support:   support,
		Mining:    mined,
	}, nil
}

// RelationalSchema is the attribute order produced by Discretize:
// the Table 1 attributes minus the two date columns the paper
// excluded (Weka mapped DATE to REAL, making results uninterpretable)
// and the transaction ID.
var RelationalSchema = []string{
	"ORIGIN_LATITUDE", "ORIGIN_LONGITUDE",
	"DEST_LATITUDE", "DEST_LONGITUDE",
	"TOTAL_DISTANCE", "GROSS_WEIGHT", "MOVE_TRANSIT_HOURS", "TRANS_MODE",
}

// DiscretizeConfig sets the per-attribute binners used to nominalise
// the numeric attributes.
type DiscretizeConfig struct {
	LatBins, LonBins int
	DistBins, WtBins int
	HourBins         int

	observedLat  bin.Binner
	observedLon  bin.Binner
	observedDist bin.Binner
	observedWt   bin.Binner
	observedHrs  bin.Binner
}

// DefaultDiscretizeConfig mirrors Weka's unsupervised discretiser in
// equal-frequency mode with 10 bins per numeric attribute (7 for
// gross weight, the paper's bin count). Equal-frequency is essential
// here because weight and distance have heavy-tailed ranges — under
// equal-width binning the project-cargo outliers would collapse
// virtually all loads into one bin and erase the weight→mode signal
// the paper reports.
func DefaultDiscretizeConfig() DiscretizeConfig {
	return DiscretizeConfig{LatBins: 7, LonBins: 10, DistBins: 10, WtBins: 7, HourBins: 10}
}

// Discretize nominalises the dataset over RelationalSchema using
// equal-frequency bins computed from the observed values.
func Discretize(d *dataset.Dataset, cfg DiscretizeConfig) (attrs []string, rows [][]string) {
	cfg.fit(d)
	attrs = RelationalSchema
	lat, lon := bin.Labels(cfg.observedLat), bin.Labels(cfg.observedLon)
	dist, wt, hrs := bin.Labels(cfg.observedDist), bin.Labels(cfg.observedWt), bin.Labels(cfg.observedHrs)
	rows = make([][]string, 0, len(d.Transactions))
	for _, t := range d.Transactions {
		rows = append(rows, []string{
			lat[cfg.observedLat.Bin(t.Origin.Lat)],
			lon[cfg.observedLon.Bin(t.Origin.Lon)],
			lat[cfg.observedLat.Bin(t.Dest.Lat)],
			lon[cfg.observedLon.Bin(t.Dest.Lon)],
			dist[cfg.observedDist.Bin(t.Distance)],
			wt[cfg.observedWt.Bin(t.GrossWeight)],
			hrs[cfg.observedHrs.Bin(t.TransitHours)],
			string(t.Mode),
		})
	}
	return attrs, rows
}

func (cfg *DiscretizeConfig) fit(d *dataset.Dataset) {
	var lats, lons, dists, wts, hrs []float64
	for _, t := range d.Transactions {
		lats = append(lats, t.Origin.Lat, t.Dest.Lat)
		lons = append(lons, t.Origin.Lon, t.Dest.Lon)
		dists = append(dists, t.Distance)
		wts = append(wts, t.GrossWeight)
		hrs = append(hrs, t.TransitHours)
	}
	// Coordinates use equal-width bins (latitude/longitude are
	// bounded, and the paper's published rule intervals are
	// equal-width: the longitude interval (-84.76, -75.43] is one
	// tenth of the continental span); heavy-tailed attributes use
	// equal-frequency bins so project-cargo outliers don't collapse
	// all regular loads into a single label.
	cfg.observedLat = equalWidthOver(lats, cfg.LatBins)
	cfg.observedLon = equalWidthOver(lons, cfg.LonBins)
	cfg.observedDist = equalFreqOver(dists, cfg.DistBins)
	cfg.observedWt = equalFreqOver(wts, cfg.WtBins)
	cfg.observedHrs = equalFreqOver(hrs, cfg.HourBins)
}

func equalWidthOver(values []float64, n int) bin.Binner {
	if n < 1 {
		n = 10
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	return bin.NewEqualWidth(lo, hi, n)
}

func equalFreqOver(values []float64, n int) bin.Binner {
	if n < 1 {
		n = 10
	}
	return bin.EqualFrequency(values, n)
}

// NumericSchema is the attribute order of NumericMatrix (the
// undiscretised training set the paper fed to EM).
var NumericSchema = []string{
	"ORIGIN_LATITUDE", "ORIGIN_LONGITUDE",
	"DEST_LATITUDE", "DEST_LONGITUDE",
	"TOTAL_DISTANCE", "GROSS_WEIGHT", "MOVE_TRANSIT_HOURS",
}

// NumericMatrix extracts the numeric attributes for clustering.
func NumericMatrix(d *dataset.Dataset) (attrs []string, rows [][]float64) {
	attrs = NumericSchema
	rows = make([][]float64, 0, len(d.Transactions))
	for _, t := range d.Transactions {
		rows = append(rows, []float64{
			t.Origin.Lat, t.Origin.Lon,
			t.Dest.Lat, t.Dest.Lon,
			t.Distance, t.GrossWeight, t.TransitHours,
		})
	}
	return attrs, rows
}
