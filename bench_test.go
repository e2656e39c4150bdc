package tnkd

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus ablation benches for the design
// choices called out in DESIGN.md. Each benchmark regenerates its
// artifact through internal/experiments and reports the headline
// quantity as a custom metric, so `go test -bench=. -benchmem`
// reproduces the entire evaluation. Run cmd/experiments for the
// human-readable report.

import (
	"sync"
	"testing"

	"tnkd/internal/dataset"
	"tnkd/internal/experiments"
	"tnkd/internal/fsg"
	"tnkd/internal/partition"
	"tnkd/internal/subdue"
)

var (
	benchOnce   sync.Once
	benchParams experiments.Params
)

// params generates the shared quick-scale dataset once.
func params(b *testing.B) experiments.Params {
	b.Helper()
	benchOnce.Do(func() { benchParams = experiments.NewParams(experiments.QuickScale) })
	return benchParams
}

// BenchmarkTable1DatasetSummary regenerates the Section 3 / Table 1
// data description.
func BenchmarkTable1DatasetSummary(b *testing.B) {
	p := params(b)
	var res *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable1(p)
	}
	b.ReportMetric(float64(res.Summary.DistinctODPairs), "od-pairs")
	b.ReportMetric(float64(res.Summary.OutDegMax), "max-out-degree")
}

// BenchmarkFigure1SubdueMDL regenerates Figure 1: SUBDUE with the MDL
// principle on the truncated OD_GW graph.
func BenchmarkFigure1SubdueMDL(b *testing.B) {
	p := params(b)
	var res *experiments.Figure1Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFigure1(p)
	}
	if len(res.Best) > 0 {
		b.ReportMetric(float64(res.Best[0].Instances), "top-instances")
		b.ReportMetric(float64(res.Best[0].Graph.NumEdges()), "top-edges")
	}
}

// BenchmarkSection51SubdueSize regenerates the Size-principle
// contrast of Section 5.1.
func BenchmarkSection51SubdueSize(b *testing.B) {
	p := params(b)
	var res *experiments.Section51SizeResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunSection51Size(p)
	}
	b.ReportMetric(float64(res.MaxPatternSize), "size-max-vertices")
	b.ReportMetric(float64(res.MDLMaxSize), "mdl-max-vertices")
}

// BenchmarkSection51SubdueScaling regenerates the runtime-scaling
// narrative of Section 5.1 (superlinear growth with graph size).
func BenchmarkSection51SubdueScaling(b *testing.B) {
	p := params(b)
	var res *experiments.Section51ScalingResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunSection51Scaling(p, []int{25, 50, 75})
	}
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(float64(last.Elapsed.Microseconds()), "largest-us")
}

// BenchmarkFigure2FSGBreadthFirst regenerates Figure 2: hub-and-spoke
// patterns under breadth-first partitioning of OD_TH.
func BenchmarkFigure2FSGBreadthFirst(b *testing.B) {
	p := params(b)
	var res *experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFigure2(p)
	}
	b.ReportMetric(float64(res.NumPatterns), "patterns")
	if res.HubPattern != nil {
		b.ReportMetric(float64(res.HubPattern.Support), "hub-support")
	}
}

// BenchmarkFigure3FSGDepthFirst regenerates Figure 3: chain patterns
// under depth-first partitioning of OD_TD.
func BenchmarkFigure3FSGDepthFirst(b *testing.B) {
	p := params(b)
	var res *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFigure3(p)
	}
	b.ReportMetric(float64(res.ChainEdgesDF), "df-chain-edges")
	b.ReportMetric(float64(res.ChainEdgesBF), "bf-chain-edges")
}

// BenchmarkSection522PartitionSweep regenerates the partition-size
// sweep (average pattern counts per strategy).
func BenchmarkSection522PartitionSweep(b *testing.B) {
	p := params(b)
	var res *experiments.Section522SweepResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunSection522Sweep(p)
	}
	b.ReportMetric(res.AvgBF, "avg-bf-patterns")
	b.ReportMetric(res.AvgDF, "avg-df-patterns")
}

// BenchmarkFootnote2PartitionRecall regenerates the planted-pattern
// recall study (footnote 2: >= 50% recall).
func BenchmarkFootnote2PartitionRecall(b *testing.B) {
	p := params(b)
	var res *experiments.Footnote2Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFootnote2(p)
	}
	b.ReportMetric(res.MinRecall*100, "min-recall-pct")
}

// BenchmarkTable2TemporalPartition regenerates Table 2.
func BenchmarkTable2TemporalPartition(b *testing.B) {
	p := params(b)
	var res *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable2(p)
	}
	b.ReportMetric(float64(res.Stats.NumTransactions), "transactions")
	b.ReportMetric(res.Stats.AvgEdges, "avg-edges")
}

// BenchmarkTable3FilteredTemporal regenerates Table 3.
func BenchmarkTable3FilteredTemporal(b *testing.B) {
	p := params(b)
	var res *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable3(p)
	}
	b.ReportMetric(float64(res.Stats.NumTransactions), "transactions")
	b.ReportMetric(res.Stats.AvgVertices, "avg-vertices")
}

// BenchmarkFigure4TemporalPatterns regenerates Figure 4 / Section
// 6.1: temporally frequent patterns at 5% support.
func BenchmarkFigure4TemporalPatterns(b *testing.B) {
	p := params(b)
	var res *experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFigure4(p)
	}
	b.ReportMetric(float64(res.NumPatterns), "patterns")
	b.ReportMetric(float64(res.LargestEdges), "largest-edges")
}

// BenchmarkSection8FSGCandidateBlowup regenerates the Section 8
// candidate-explosion study.
func BenchmarkSection8FSGCandidateBlowup(b *testing.B) {
	p := params(b)
	var res *experiments.Section8Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunSection8(p, 5000)
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(float64(last.Candidates), "candidates-at-max-labels")
}

// BenchmarkSection71Apriori regenerates the association experiments.
func BenchmarkSection71Apriori(b *testing.B) {
	p := params(b)
	var res *experiments.Section71Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunSection71(p)
	}
	b.ReportMetric(res.GeoRule.Confidence, "geo-confidence")
}

// BenchmarkSection72DecisionTree regenerates the classification
// experiments (~96% accuracy, GROSS_WEIGHT root).
func BenchmarkSection72DecisionTree(b *testing.B) {
	p := params(b)
	var res *experiments.Section72Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunSection72(p)
	}
	b.ReportMetric(res.ModeAccuracy*100, "accuracy-pct")
}

// BenchmarkFigure5EMClusters regenerates the Figure 5 cluster table.
func BenchmarkFigure5EMClusters(b *testing.B) {
	p := params(b)
	var res *experiments.Figure56Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFigure56(p)
	}
	b.ReportMetric(float64(res.OutlierSize), "outlier-size")
}

// BenchmarkFigure6ClusterMeans regenerates the Figure 6 series
// (per-cluster mean distance/hours; short- vs long-haul split).
func BenchmarkFigure6ClusterMeans(b *testing.B) {
	p := params(b)
	var res *experiments.Figure56Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFigure56(p)
	}
	b.ReportMetric(float64(res.ShortHaul), "short-haul-clusters")
	b.ReportMetric(float64(res.LongHaul), "long-haul-clusters")
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationBinningVsExact contrasts binned edge labels with
// exact labels: exact labels collapse the frequent-pattern count (the
// paper's motivation for binning).
func BenchmarkAblationBinningVsExact(b *testing.B) {
	p := params(b)
	run := func(exact bool) int {
		g := p.Data.BuildGraph(dataset.GraphOptions{
			Attr: dataset.GrossWeight, Vertices: dataset.UniformLabels, ExactLabels: exact,
		})
		parts := SplitGraph(g, SplitOptions{K: 24, Strategy: partition.BreadthFirst})
		res, err := fsg.Mine(parts, fsg.Options{MinSupport: 5, MaxEdges: 2, MaxSteps: 50000})
		if err != nil {
			b.Fatal(err)
		}
		return len(res.Patterns)
	}
	var binned, exact int
	for i := 0; i < b.N; i++ {
		binned = run(false)
		exact = run(true)
	}
	b.ReportMetric(float64(binned), "binned-patterns")
	b.ReportMetric(float64(exact), "exact-patterns")
}

// BenchmarkAblationOverlapCounting contrasts SUBDUE's non-overlapping
// instance counting with total (overlapping) embedding counts.
func BenchmarkAblationOverlapCounting(b *testing.B) {
	p := params(b)
	g := p.Data.BuildGraph(dataset.GraphOptions{Attr: dataset.GrossWeight, Vertices: dataset.UniformLabels})
	var res *subdue.Result
	for i := 0; i < b.N; i++ {
		res = subdue.Discover(g, subdue.Options{
			Principle: subdue.MDL, BeamWidth: 4, MaxBest: 3,
			Limit: 12, MaxInstances: 100, MaxSteps: 20000, MinInstances: 2,
		})
	}
	if len(res.Best) > 0 {
		b.ReportMetric(float64(res.Best[0].Instances), "nonoverlap-instances")
	}
}

// BenchmarkAblationVertexLabeling contrasts uniform vs unique vertex
// labels on the same mining task: unique labels fragment structural
// support (Section 5 vs Section 6 labeling).
func BenchmarkAblationVertexLabeling(b *testing.B) {
	p := params(b)
	run := func(v dataset.VertexLabeling) int {
		g := p.Data.BuildGraph(dataset.GraphOptions{Attr: dataset.GrossWeight, Vertices: v})
		parts := SplitGraph(g, SplitOptions{K: 24, Strategy: partition.BreadthFirst})
		res, err := fsg.Mine(parts, fsg.Options{MinSupport: 8, MaxEdges: 2, MaxSteps: 50000})
		if err != nil {
			b.Fatal(err)
		}
		return len(res.Patterns)
	}
	var uniform, unique int
	for i := 0; i < b.N; i++ {
		uniform = run(dataset.UniformLabels)
		unique = run(dataset.UniqueLabels)
	}
	b.ReportMetric(float64(uniform), "uniform-patterns")
	b.ReportMetric(float64(unique), "unique-patterns")
}

// BenchmarkAblationPartitionStrategy compares BF, DF and the effect
// of repetition count on pattern yield at fixed support.
func BenchmarkAblationPartitionStrategy(b *testing.B) {
	p := params(b)
	g := p.Data.BuildGraph(dataset.GraphOptions{Attr: dataset.TransitHours, Vertices: dataset.UniformLabels})
	run := func(strat partition.Strategy, reps int) int {
		res, err := MineStructural(g, StructuralOptions{
			Strategy: strat, Partitions: 24, Repetitions: reps,
			Support: 6, MaxEdges: 3, MaxSteps: 50000, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		return len(res.Patterns)
	}
	var bf1, bf3, df1 int
	for i := 0; i < b.N; i++ {
		bf1 = run(partition.BreadthFirst, 1)
		bf3 = run(partition.BreadthFirst, 3)
		df1 = run(partition.DepthFirst, 1)
	}
	b.ReportMetric(float64(bf1), "bf-1rep")
	b.ReportMetric(float64(bf3), "bf-3rep")
	b.ReportMetric(float64(df1), "df-1rep")
}

// --- Engine benches: serial vs parallel mining pipelines ---

var (
	pipeOnce sync.Once
	pipeData *dataset.Dataset
)

// pipelineData generates the ScaledConfig(0.05) dataset the engine
// benchmarks mine, once.
func pipelineData(b *testing.B) *dataset.Dataset {
	b.Helper()
	pipeOnce.Do(func() { pipeData = dataset.Generate(dataset.DefaultConfig().Scaled(0.05)) })
	return pipeData
}

// benchmarkStructuralPipeline runs Algorithm 1 (BF partitioning +
// FSG across partitions, 3 repetitions) at ScaledConfig(0.05) with
// the given engine worker count.
func benchmarkStructuralPipeline(b *testing.B, parallelism int) {
	data := pipelineData(b)
	g := data.BuildGraph(dataset.GraphOptions{
		Attr: dataset.TransitHours, Vertices: dataset.UniformLabels,
	})
	b.ResetTimer()
	var res *StructuralResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = MineStructural(g, StructuralOptions{
			Strategy:    partition.BreadthFirst,
			Partitions:  40,
			Repetitions: 3,
			Support:     12,
			MaxEdges:    5,
			MaxSteps:    200000,
			Seed:        17,
			Parallelism: parallelism,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Patterns)), "patterns")
}

// BenchmarkStructuralPipelineSerial is the single-worker baseline.
func BenchmarkStructuralPipelineSerial(b *testing.B) { benchmarkStructuralPipeline(b, 1) }

// BenchmarkStructuralPipelineParallel uses all CPUs; compare ns/op
// against the serial baseline for the engine speedup.
func BenchmarkStructuralPipelineParallel(b *testing.B) { benchmarkStructuralPipeline(b, 0) }

// benchmarkTemporalPipeline runs the Section 6 pipeline (per-day
// partitioning + FSG over day batches) at ScaledConfig(0.05).
func benchmarkTemporalPipeline(b *testing.B, parallelism int) {
	data := pipelineData(b)
	b.ResetTimer()
	var res *TemporalMineResult
	for i := 0; i < b.N; i++ {
		opts := DefaultTemporalMineOptions()
		opts.Partition.Parallelism = parallelism
		var err error
		res, err = MineTemporal(data, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Mining.Patterns)), "patterns")
	b.ReportMetric(float64(len(res.Partition.Transactions)), "transactions")
}

// BenchmarkTemporalPipelineSerial is the single-worker baseline.
func BenchmarkTemporalPipelineSerial(b *testing.B) { benchmarkTemporalPipeline(b, 1) }

// BenchmarkTemporalPipelineParallel uses all CPUs.
func BenchmarkTemporalPipelineParallel(b *testing.B) { benchmarkTemporalPipeline(b, 0) }

// BenchmarkSection9DynamicExtensions regenerates the future-work
// extension report: repeated connection paths, weekly cadences and
// spatially filtered lane rules.
func BenchmarkSection9DynamicExtensions(b *testing.B) {
	p := params(b)
	var res *experiments.Section9Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunSection9(p)
	}
	b.ReportMetric(float64(res.RepeatedPaths), "repeated-paths")
	b.ReportMetric(float64(res.WeeklyLanes), "weekly-lanes")
	b.ReportMetric(float64(res.FilteredRules), "filtered-rules")
}
