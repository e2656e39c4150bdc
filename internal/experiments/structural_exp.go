package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"tnkd/internal/core"
	"tnkd/internal/dataset"
	"tnkd/internal/fsg"
	"tnkd/internal/graph"
	"tnkd/internal/partition"
	"tnkd/internal/synth"
)

// Figure2Result reproduces Figure 2 / Section 5.2.2: breadth-first
// partitioning of OD_TH surfaces hub-and-spoke patterns (the paper's
// example was frequent in 243 instances at support 240).
type Figure2Result struct {
	Support     int
	Partitions  int
	NumPatterns int
	// HubPattern is the largest hub-and-spoke pattern found.
	HubPattern *core.StructuralPattern
	// MaxEdges is the size of the largest pattern of any shape.
	MaxEdges int
}

// RunFigure2 executes the breadth-first structural experiment. Full
// scale uses the paper's parameters (support 240, 800 partitions).
func RunFigure2(p Params) *Figure2Result {
	g := p.Data.BuildGraph(dataset.GraphOptions{
		Attr: dataset.TransitHours, Vertices: dataset.UniformLabels,
	})
	support := p.scaled(240, 3)
	partitions := p.scaled(800, 8)
	res, err := core.MineStructural(g, core.StructuralOptions{
		Strategy:      partition.BreadthFirst,
		Partitions:    partitions,
		Repetitions:   2,
		Support:       support,
		MaxEdges:      5,
		MaxSteps:      50000,
		MaxEmbeddings: p.MaxEmbeddings,
		Seed:          p.Seed,
		Parallelism:   p.Parallelism,
		StorePath:     p.StorePath,
		Progress:      p.repProgress("figure2"),
	})
	if err != nil {
		panic(err) // options are internally consistent
	}
	out := &Figure2Result{Support: support, Partitions: partitions, NumPatterns: len(res.Patterns)}
	for i := range res.Patterns {
		pat := &res.Patterns[i]
		if pat.Graph.NumEdges() > out.MaxEdges {
			out.MaxEdges = pat.Graph.NumEdges()
		}
		if isHub(pat.Graph) {
			if out.HubPattern == nil || pat.Graph.NumEdges() > out.HubPattern.Graph.NumEdges() {
				out.HubPattern = pat
			}
		}
	}
	return out
}

// String renders the Figure 2 report.
func (r *Figure2Result) String() string {
	var b strings.Builder
	b.WriteString("=== Figure 2 / Section 5.2.2: FSG over BF partitioning (OD_TH) ===\n")
	fmt.Fprintf(&b, "partitions=%d support=%d frequent patterns=%d max pattern edges=%d\n",
		r.Partitions, r.Support, r.NumPatterns, r.MaxEdges)
	if r.HubPattern != nil {
		fmt.Fprintf(&b, "hub-and-spoke pattern (support %d, %d runs):\n%s",
			r.HubPattern.Support, r.HubPattern.Runs, r.HubPattern.Graph.Dump())
	} else {
		b.WriteString("no hub-and-spoke pattern found\n")
	}
	return b.String()
}

// Figure3Result reproduces Figure 3 / Section 5.2.2: depth-first
// partitioning of OD_TD surfaces long-chain patterns (the paper's
// example was frequent in 63 instances at support 120; the chain
// shape was found only by depth-first partitioning).
type Figure3Result struct {
	Support      int
	Partitions   int
	NumPatterns  int
	ChainPattern *core.StructuralPattern
	// ChainEdgesBF is the longest chain found under BF with the same
	// parameters — the paper's point is DF preserves chains better.
	ChainEdgesDF int
	ChainEdgesBF int
}

// RunFigure3 executes the depth-first structural experiment and the
// BF contrast.
func RunFigure3(p Params) *Figure3Result {
	g := p.Data.BuildGraph(dataset.GraphOptions{
		Attr: dataset.TotalDistance, Vertices: dataset.UniformLabels,
	})
	support := p.scaled(120, 2)
	partitions := p.scaled(800, 8)
	run := func(strat partition.Strategy, storePath string) *core.StructuralResult {
		res, err := core.MineStructural(g, core.StructuralOptions{
			Strategy:      strat,
			Partitions:    partitions,
			Repetitions:   2,
			Support:       support,
			MaxEdges:      5,
			MaxSteps:      50000,
			MaxEmbeddings: p.MaxEmbeddings,
			Seed:          p.Seed,
			Parallelism:   p.Parallelism,
			StorePath:     storePath,
			Progress:      p.repProgress("figure3 " + strat.String()),
		})
		if err != nil {
			panic(err)
		}
		return res
	}
	// Only the headline DF run persists; the BF contrast is a foil
	// mined with the same repetition count, so the figure measures
	// strategy alone.
	df := run(partition.DepthFirst, p.StorePath)
	bf := run(partition.BreadthFirst, "")
	out := &Figure3Result{Support: support, Partitions: partitions, NumPatterns: len(df.Patterns)}
	longestChain := func(res *core.StructuralResult) (*core.StructuralPattern, int) {
		var best *core.StructuralPattern
		maxEdges := 0
		for i := range res.Patterns {
			pat := &res.Patterns[i]
			if isChain(pat.Graph) && pat.Graph.NumEdges() > maxEdges {
				best, maxEdges = pat, pat.Graph.NumEdges()
			}
		}
		return best, maxEdges
	}
	out.ChainPattern, out.ChainEdgesDF = longestChain(df)
	_, out.ChainEdgesBF = longestChain(bf)
	return out
}

// String renders the Figure 3 report.
func (r *Figure3Result) String() string {
	var b strings.Builder
	b.WriteString("=== Figure 3 / Section 5.2.2: FSG over DF partitioning (OD_TD) ===\n")
	fmt.Fprintf(&b, "partitions=%d support=%d frequent patterns=%d\n",
		r.Partitions, r.Support, r.NumPatterns)
	fmt.Fprintf(&b, "longest chain: DF=%d edges, BF=%d edges\n", r.ChainEdgesDF, r.ChainEdgesBF)
	if r.ChainPattern != nil {
		fmt.Fprintf(&b, "chain pattern (support %d):\n%s", r.ChainPattern.Support, r.ChainPattern.Graph.Dump())
	}
	return b.String()
}

// SweepRow is one row of the Section 5.2.2 partition-size sweep.
type SweepRow struct {
	Strategy   partition.Strategy
	Partitions int
	Support    int
	Patterns   int
}

// Section522SweepResult reproduces the partition-size sweep: the
// paper tried partition counts 400/800/1200/1600 with support 240
// (BF) and 120 (DF), finding on average 667 BF patterns and 200 DF
// patterns, with fewer partitions (larger transactions) giving more
// frequent itemsets.
type Section522SweepResult struct {
	Rows  []SweepRow
	AvgBF float64
	AvgDF float64
	// FewerPartitionsMorePatterns reports the paper's observation
	// that the smallest partition count produced the most patterns.
	FewerPartitionsMorePatterns bool
}

// RunSection522Sweep executes the sweep.
func RunSection522Sweep(p Params) *Section522SweepResult {
	g := p.Data.BuildGraph(dataset.GraphOptions{
		Attr: dataset.TransitHours, Vertices: dataset.UniformLabels,
	})
	sizes := []int{p.scaled(400, 4), p.scaled(800, 8), p.scaled(1200, 12), p.scaled(1600, 16)}
	out := &Section522SweepResult{}
	sumBF, sumDF := 0, 0
	for _, strat := range []partition.Strategy{partition.BreadthFirst, partition.DepthFirst} {
		support := p.scaled(240, 3)
		if strat == partition.DepthFirst {
			support = p.scaled(120, 2)
		}
		for _, k := range sizes {
			res, err := core.MineStructural(g, core.StructuralOptions{
				Strategy:      strat,
				Partitions:    k,
				Repetitions:   1,
				Support:       support,
				MaxEdges:      3,
				MaxSteps:      50000,
				MaxEmbeddings: p.MaxEmbeddings,
				Seed:          p.Seed + int64(k),
				Parallelism:   p.Parallelism,
			})
			if err != nil {
				panic(err)
			}
			out.Rows = append(out.Rows, SweepRow{
				Strategy: strat, Partitions: k, Support: support, Patterns: len(res.Patterns),
			})
			if strat == partition.BreadthFirst {
				sumBF += len(res.Patterns)
			} else {
				sumDF += len(res.Patterns)
			}
		}
	}
	out.AvgBF = float64(sumBF) / float64(len(sizes))
	out.AvgDF = float64(sumDF) / float64(len(sizes))
	// Compare smallest vs largest partition count under BF.
	var smallest, largest int
	for _, row := range out.Rows {
		if row.Strategy != partition.BreadthFirst {
			continue
		}
		if row.Partitions == sizes[0] {
			smallest = row.Patterns
		}
		if row.Partitions == sizes[len(sizes)-1] {
			largest = row.Patterns
		}
	}
	out.FewerPartitionsMorePatterns = smallest >= largest
	return out
}

// String renders the sweep table.
func (r *Section522SweepResult) String() string {
	var b strings.Builder
	b.WriteString("=== Section 5.2.2: partition-size sweep ===\n")
	b.WriteString("strategy  partitions  support  patterns\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8s  %10d  %7d  %8d\n", row.Strategy, row.Partitions, row.Support, row.Patterns)
	}
	fmt.Fprintf(&b, "average patterns: BF=%.0f DF=%.0f (paper: 667 BF, 200 DF)\n", r.AvgBF, r.AvgDF)
	fmt.Fprintf(&b, "fewer partitions => more patterns: %v (paper observed the same)\n",
		r.FewerPartitionsMorePatterns)
	return b.String()
}

// RecallRow is one row of the footnote-2 recall study.
type RecallRow struct {
	Strategy   partition.Strategy
	GraphEdges int
	Recall     float64
}

// Footnote2Result reproduces the recall study of Section 5.2.1
// footnote 2: on simulated data with known planted patterns,
// partitioned mining recovers >= 50% of the patterns under both
// traversal orders, with better recall on smaller graphs.
type Footnote2Result struct {
	Rows []RecallRow
	// MinRecall is the worst observed recall.
	MinRecall float64
	// SmallBeatsLarge reports whether the smaller graph's mean recall
	// is at least the larger graph's.
	SmallBeatsLarge bool
}

// RunFootnote2 executes the recall study at two graph sizes.
func RunFootnote2(p Params) *Footnote2Result {
	patterns := synth.DefaultPatterns()
	out := &Footnote2Result{MinRecall: 1}
	type sizeSpec struct {
		copies, noise, parts int
	}
	small := sizeSpec{copies: 30, noise: 40, parts: 6}
	large := sizeSpec{copies: 120, noise: 400, parts: 24}
	meanBySize := make(map[int]float64)
	for _, spec := range []sizeSpec{small, large} {
		planted := synth.Plant(synth.PlantConfig{
			Seed:             p.Seed,
			Patterns:         patterns,
			CopiesPerPattern: spec.copies,
			NoiseEdges:       spec.noise,
			JoinEdges:        spec.copies / 2,
			NoiseLabels:      []string{"w9"},
		})
		for _, strat := range []partition.Strategy{partition.BreadthFirst, partition.DepthFirst} {
			rng := rand.New(rand.NewSource(p.Seed + int64(spec.copies)))
			parts := partition.SplitGraph(planted.Graph, partition.SplitOptions{
				K: spec.parts, Strategy: strat, Rand: rng,
			})
			support := spec.copies / 3
			if support < 2 {
				support = 2
			}
			mined, err := fsg.Mine(parts, fsg.Options{
				MinSupport: support, MaxEdges: 4, MaxSteps: 100000,
				MaxEmbeddings: p.MaxEmbeddings,
				Parallelism:   p.Parallelism,
			})
			if err != nil {
				panic(err)
			}
			var graphs []*graph.Graph
			for i := range mined.Patterns {
				graphs = append(graphs, mined.Patterns[i].Graph)
			}
			recall := planted.Recall(graphs)
			out.Rows = append(out.Rows, RecallRow{
				Strategy: strat, GraphEdges: planted.Graph.NumEdges(), Recall: recall,
			})
			if recall < out.MinRecall {
				out.MinRecall = recall
			}
			meanBySize[spec.copies] += recall / 2
		}
	}
	out.SmallBeatsLarge = meanBySize[small.copies] >= meanBySize[large.copies]
	return out
}

// String renders the recall table.
func (r *Footnote2Result) String() string {
	var b strings.Builder
	b.WriteString("=== Section 5.2.1 footnote 2: partition recall on planted patterns ===\n")
	b.WriteString("strategy  graph-edges  recall\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8s  %11d  %6.0f%%\n", row.Strategy, row.GraphEdges, row.Recall*100)
	}
	fmt.Fprintf(&b, "minimum recall %.0f%% (paper: 50%% and above); smaller graphs >= larger: %v\n",
		r.MinRecall*100, r.SmallBeatsLarge)
	return b.String()
}
