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
	"path/filepath"
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
	// MaxCandidates bounds FSG's per-level candidate sets.
	MaxCandidates int
	// MaxEmbeddings bounds the per-level embedding lists of FSG's
	// incremental support counter (0 = the fsg default, negative =
	// unlimited); see fsg.Options.MaxEmbeddings.
	MaxEmbeddings int
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
	// DeltaFrom, when non-empty, folds this run into the named
	// persisted run instead of mining from scratch: the store's
	// repetitions are rehydrated as-is and Repetitions more are drawn
	// from the same RNG stream (the store records the partitioning
	// provenance — Partitions, Seed, Strategy and Support must match
	// it) and mined fresh, so the result — and the store written to
	// StorePath — is identical to a full run at the combined
	// repetition count. Repetitions means *added* repetitions here,
	// and PerRun/PartitionCounts cover only them.
	DeltaFrom string
	// Progress, when non-nil, receives one event per completed
	// Apriori level of every repetition's FSG run, tagged with the
	// repetition index (a delta run indexes only the added
	// repetitions). Repetitions mine concurrently, so events from
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
	// PerRun records each repetition's raw FSG result. A delta run
	// (DeltaFrom) holds only the added repetitions — the parent
	// store's contribution is already folded into Patterns.
	PerRun []*fsg.Result
	// PartitionCounts records the number of partitions produced per
	// repetition (can exceed k when the graph disconnects); added
	// repetitions only in a delta run.
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
	if opts.DeltaFrom != "" {
		return mineStructuralDelta(g, opts)
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
		if err := writeStructuralStore(opts.StorePath, g.Name, nil, partitionings, runs, opts, opts.Repetitions, 0); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// mineStructuralDelta folds added repetitions into a persisted
// Algorithm 1 run: the parent store's records are rehydrated as-is,
// opts.Repetitions further partitionings are drawn from the same RNG
// stream the parent consumed its prefix of, and only those are mined.
// The union (and the store written to StorePath, provenance aside) is
// identical to a full MineStructural at the combined repetition
// count, because repetitions are independent — the per-repetition
// records need no re-counting, only the fresh ones need mining.
func mineStructuralDelta(g *graph.Graph, opts StructuralOptions) (*StructuralResult, error) {
	if err := distinctPaths(opts.DeltaFrom, opts.StorePath); err != nil {
		return nil, err
	}
	r, err := store.Open(opts.DeltaFrom)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if err := r.ValidateDeltaSource(true); err != nil {
		return nil, err
	}
	m := r.Meta()
	if m.Partitions != opts.Partitions || m.Seed != opts.Seed ||
		m.Strategy != opts.Strategy.String() || m.MinSupport != opts.Support {
		return nil, fmt.Errorf("core: delta source %s was mined with partitions=%d seed=%d strategy=%s support=%d; this run asks for partitions=%d seed=%d strategy=%s support=%d — parameters must match for the repetition stream to continue",
			opts.DeltaFrom, m.Partitions, m.Seed, m.Strategy, m.MinSupport,
			opts.Partitions, opts.Seed, opts.Strategy, opts.Support)
	}
	oldReps := m.Repetitions
	total := oldReps + opts.Repetitions
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &StructuralResult{}
	partitionings := make([][]*graph.Graph, total)
	for rep := range partitionings {
		partitionings[rep] = partition.SplitGraph(g, partition.SplitOptions{
			K:        opts.Partitions,
			Strategy: opts.Strategy,
			Rand:     rng,
		})
		if rep >= oldReps {
			res.PartitionCounts = append(res.PartitionCounts, len(partitionings[rep]))
		}
	}
	// The redrawn prefix must byte-match the stored transaction set,
	// or the caller handed a different graph (or a tampered store)
	// and the rehydrated TID lists would be meaningless.
	var oldTxns []*graph.Graph
	for _, parts := range partitionings[:oldReps] {
		oldTxns = append(oldTxns, parts...)
	}
	if len(oldTxns) != r.NumTransactions() {
		return nil, fmt.Errorf("core: delta source %s holds %d transactions but the redrawn %d-repetition prefix has %d — different input graph?",
			opts.DeltaFrom, r.NumTransactions(), oldReps, len(oldTxns))
	}
	if err := r.VerifyPrefix(oldTxns); err != nil {
		return nil, fmt.Errorf("core: delta source mismatch (different input graph?): %w", err)
	}
	runs, err := mineRepetitionSet(partitionings[oldReps:], opts)
	if err != nil {
		return nil, err
	}
	res.PerRun = runs
	// Fold the stored per-(pattern, repetition) records into the
	// union first — max support and run counts aggregate the same
	// whether a record was mined now or rehydrated — then the fresh
	// repetitions in order, exactly as the full run would.
	u := newStructuralUnion()
	for i := 0; i < r.NumPatterns(); i++ {
		p, err := r.PatternLite(i)
		if err != nil {
			return nil, err
		}
		u.add(p.Graph, p.Code, p.Support)
	}
	for _, runRes := range runs {
		u.addRun(runRes)
	}
	res.Patterns = u.sorted()
	if opts.StorePath != "" {
		if err := writeStructuralStore(opts.StorePath, g.Name, r, partitionings[oldReps:], runs, opts, total, m.Generation+1); err != nil {
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
				MinSupport:    opts.Support,
				MaxEdges:      opts.MaxEdges,
				MaxSteps:      opts.MaxSteps,
				MaxCandidates: opts.MaxCandidates,
				MaxEmbeddings: opts.MaxEmbeddings,
				Parallelism:   inner,
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

// add folds one per-repetition pattern occurrence into the union.
func (u *structuralUnion) add(g *graph.Graph, code string, support int) {
	if existing := u.byCode[code]; existing != nil {
		existing.Runs++
		if support > existing.Support {
			existing.Support = support
		}
		return
	}
	sp := &StructuralPattern{Graph: g, Code: code, Support: support, Runs: 1}
	u.byCode[code] = sp
	u.union = append(u.union, sp)
}

func (u *structuralUnion) addRun(run *fsg.Result) {
	for i := range run.Patterns {
		p := &run.Patterns[i]
		u.add(p.Graph, p.Code, p.Support)
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

// distinctPaths rejects a delta run whose source and destination are
// the same file: Create truncates the destination, which would rip
// the mapped source out from under the reader mid-rehydration.
func distinctPaths(deltaFrom, storePath string) error {
	if storePath == "" {
		return nil
	}
	a, errA := filepath.Abs(deltaFrom)
	b, errB := filepath.Abs(storePath)
	if errA != nil || errB != nil {
		a, b = filepath.Clean(deltaFrom), filepath.Clean(storePath)
	}
	if a == b {
		return fmt.Errorf("core: -delta-from and -store name the same file %s — the delta must write a new store", storePath)
	}
	return nil
}

// writeStructuralStore persists an Algorithm 1 run: the transaction
// set is every repetition's partitioning concatenated, and each
// repetition's frequent patterns are written with their TIDs offset
// by the repetition's position in that concatenation. The store holds
// one record per (pattern, repetition) — the exact per-partitioning
// ground truth, embeddings included — so a query layer can aggregate
// (max support across repetitions, as the union does) or inspect each
// repetition on its own. A delta run passes the parent reader as
// prev: its transactions and records are rehydrated in front of the
// added repetitions, so the written store equals the full-run store
// at the combined repetition count.
func writeStructuralStore(path, name string, prev *store.Reader, partitionings [][]*graph.Graph, runs []*fsg.Result, opts StructuralOptions, totalReps, generation int) error {
	var txns []*graph.Graph
	if prev != nil {
		prevTxns, err := prev.Transactions()
		if err != nil {
			return err
		}
		txns = append(txns, prevTxns...)
	}
	offsets := make([]int, len(partitionings))
	for rep, parts := range partitionings {
		offsets[rep] = len(txns)
		txns = append(txns, parts...)
	}
	byEdges := make(map[int][]pattern.Pattern)
	if prev != nil {
		// Rehydrated records come first within each level — they are
		// the earlier repetitions, and WriteLevels appends in order.
		for _, lv := range prev.Levels() {
			pats, err := prev.LevelPatterns(lv.Edges)
			if err != nil {
				return err
			}
			byEdges[lv.Edges] = append(byEdges[lv.Edges], pats...)
		}
	}
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
		Repetitions: totalReps,
		Partitions:  opts.Partitions,
		Seed:        opts.Seed,
		Strategy:    opts.Strategy.String(),
		Generation:  generation,
		Note: fmt.Sprintf("Algorithm 1: %d repetitions × %d partitions (%s), transactions concatenated per repetition, one record per (pattern, repetition)",
			totalReps, opts.Partitions, opts.Strategy),
	}
	if prev != nil {
		meta.Parent = opts.DeltaFrom
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
	Partition partition.TemporalOptions
	// SupportFraction is FSG's relative support (paper: 0.05).
	SupportFraction float64
	MaxEdges        int
	MaxSteps        int
	MaxCandidates   int
	// MaxEmbeddings bounds the per-level embedding lists of FSG's
	// incremental support counter (0 = the fsg default, negative =
	// unlimited).
	MaxEmbeddings int
	// Parallelism is the worker count for both the per-day partition
	// build and the cross-day support counting. <= 0 selects
	// GOMAXPROCS; 1 runs fully serial. Results are identical for
	// every value. A non-zero Partition.Parallelism takes precedence
	// for the partitioning stage.
	Parallelism int
	// StorePath, when non-empty, persists the run to an
	// internal/store file: the per-day transactions are written up
	// front and each Apriori level streams to disk as it completes
	// (fsg.Options.Checkpoint), so completed levels survive even if
	// the run dies mid-mine (store.Recover / `tndstats -store x
	// -recover` salvage them). cmd/tndserve serves the file.
	StorePath string
	// DeltaFrom, when non-empty, names the parent generation this run
	// succeeds. It is lineage only: the window is always mined afresh.
	// The parent's transactions must be an exact slice of this run's
	// partition (verified byte-for-byte) and the window may only move
	// forward, so the new store records a true successor — Parent,
	// Generation = the parent's + 1, and Retired, the parent's
	// transactions that fell off the window's front.
	DeltaFrom string
	// Window, when > 0, mines only the most recent Window days of the
	// partition (1-based days winStart..winEnd, recorded in the store
	// as Meta.WindowStart/WindowEnd): the sliding-window regime of the
	// temporal pipeline. The absolute support threshold is computed
	// over the window's transactions only. Combined with DeltaFrom the
	// run is a window *slide*: a store of the slid window whose
	// lineage names the parent. The window only moves forward: a slide
	// that would need days the parent already retired (a widened
	// window, or Window=0 against a windowed parent) fails; mine it
	// without DeltaFrom instead. 0 mines every day.
	Window int
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
	// WindowStart/WindowEnd are the 1-based day bounds actually mined:
	// 1..len(Partition.DayStarts) for a full run, the trailing
	// Options.Window days for a windowed one.
	WindowStart, WindowEnd int
	// Mined is the number of transactions inside the window — the
	// population Support was computed over (every partition
	// transaction for a full run).
	Mined int
}

// MineTemporal partitions by day and mines the repeated routes.
func MineTemporal(d *dataset.Dataset, opts TemporalMineOptions) (*TemporalMineResult, error) {
	if opts.SupportFraction <= 0 || opts.SupportFraction > 1 {
		return nil, fmt.Errorf("core: SupportFraction %f out of (0, 1]", opts.SupportFraction)
	}
	if opts.Partition.Parallelism == 0 {
		opts.Partition.Parallelism = opts.Parallelism
	}
	part := partition.Temporal(d, opts.Partition)
	stats := part.Stats()
	nDays := len(part.DayStarts)
	winStart, winEnd := 1, nDays
	if opts.Window > 0 && nDays > opts.Window {
		winStart = nDays - opts.Window + 1
	}
	lo, _ := part.WindowRange(winStart, winEnd)
	windowTxns := part.Transactions[lo:]
	support := fsg.MinSupportFraction(len(windowTxns), opts.SupportFraction)
	fsgOpts := fsg.Options{
		MinSupport:    support,
		MaxEdges:      opts.MaxEdges,
		MaxSteps:      opts.MaxSteps,
		MaxCandidates: opts.MaxCandidates,
		MaxEmbeddings: opts.MaxEmbeddings,
		Parallelism:   opts.Parallelism,
		Progress:      opts.Progress,
	}

	// Lineage: check the parent is a true predecessor of this window
	// and count the parent transactions that slid out of it.
	retireCount := 0
	generation := 0
	if opts.DeltaFrom != "" {
		if err := distinctPaths(opts.DeltaFrom, opts.StorePath); err != nil {
			return nil, err
		}
		r, err := store.Open(opts.DeltaFrom)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		if err := r.ValidateDeltaSource(false); err != nil {
			return nil, err
		}
		m := r.Meta()
		// The parent covers days priorStart..(wherever its transaction
		// count ends); its slice of this partition must match
		// byte-for-byte. Pre-window stores read back WindowStart 0 and
		// anchor at day 1.
		priorStart := m.WindowStart
		if priorStart == 0 {
			priorStart = 1
		}
		if priorStart > nDays {
			return nil, fmt.Errorf("core: delta source starts at day %d but the partition has only %d days (different dataset, scale or partition options?)", priorStart, nDays)
		}
		priorLo, _ := part.WindowRange(priorStart, nDays)
		if err := r.VerifyPrefix(part.Transactions[priorLo:]); err != nil {
			return nil, fmt.Errorf("core: delta source mismatch (different dataset, scale or partition options?): %w", err)
		}
		if lo < priorLo {
			return nil, fmt.Errorf("core: window start day %d precedes the delta source's day %d — retired days cannot re-enter the window; re-mine without -delta-from", winStart, priorStart)
		}
		// A window that starts past the parent's end retires
		// everything the parent held.
		retireCount = min(lo-priorLo, r.NumTransactions())
		generation = m.Generation + 1
	}

	var w *store.Writer
	if opts.StorePath != "" {
		meta := store.Meta{
			Name:       "OD/daily",
			Kind:       "temporal",
			MinSupport: support,
			Parent:     opts.DeltaFrom,
			Generation: generation,
			Note:       fmt.Sprintf("Section 6 per-day transactions (%d days)", nDays),
		}
		if opts.Window > 0 && nDays > 0 {
			meta.WindowStart, meta.WindowEnd, meta.Retired = winStart, winEnd, retireCount
			meta.Note = fmt.Sprintf("Section 6 per-day transactions (window days %d..%d of %d)", winStart, winEnd, nDays)
		}
		var err error
		w, err = store.Create(opts.StorePath, meta)
		if err != nil {
			return nil, err
		}
		if err := w.WriteTransactions(windowTxns); err != nil {
			w.Abort()
			return nil, err
		}
		fsgOpts.Checkpoint = func(lv fsg.LevelStats, pats []fsg.Pattern) error {
			return w.WriteLevel(lv.Edges, pats)
		}
	}
	mined, err := fsg.Mine(windowTxns, fsgOpts)
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
		Partition:   part,
		Stats:       stats,
		Support:     support,
		Mining:      mined,
		WindowStart: winStart,
		WindowEnd:   winEnd,
		Mined:       len(windowTxns),
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
	rows = make([][]string, 0, len(d.Transactions))
	for _, t := range d.Transactions {
		rows = append(rows, []string{
			bin.LabelOf(cfg.observedLat, t.Origin.Lat),
			bin.LabelOf(cfg.observedLon, t.Origin.Lon),
			bin.LabelOf(cfg.observedLat, t.Dest.Lat),
			bin.LabelOf(cfg.observedLon, t.Dest.Lon),
			bin.LabelOf(cfg.observedDist, t.Distance),
			bin.LabelOf(cfg.observedWt, t.GrossWeight),
			bin.LabelOf(cfg.observedHrs, t.TransitHours),
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
