// Package tnkd (Transportation Network Knowledge Discovery) is the
// public API of a from-scratch Go reproduction of
//
//	Jiang, Vaidya, Balaporia, Clifton, Banich.
//	"Knowledge Discovery from Transportation Network Data", ICDE 2005.
//
// The paper studies mining a six-month origin–destination freight
// dataset modeled as one large labeled directed multigraph. This
// package exposes the full pipeline:
//
//   - Dataset: the Table 1 transaction schema, a CSV codec and a
//     calibrated synthetic generator standing in for the proprietary
//     data (see DESIGN.md for the substitution argument).
//   - Graph construction: the OD_GW / OD_TH / OD_TD labeled graphs
//     with uniform (structural) or unique (temporal) vertex labels.
//   - SUBDUE: single-graph substructure discovery with the MDL and
//     Size principles (Section 5.1).
//   - Structural mining: Algorithm 1 — breadth-/depth-first graph
//     partitioning plus FSG-style frequent-subgraph mining across
//     partitions (Section 5.2).
//   - Temporal mining: per-day partitioning plus frequent-subgraph
//     mining of repeated routes (Section 6).
//   - Conventional mining: Apriori association rules, C4.5-style
//     classification and EM clustering over the flattened data
//     (Section 7).
//
// Every graph miner executes on a shared worker-pool engine
// (internal/engine): FSG support counting, SUBDUE beam evaluation,
// Algorithm 1's repeated partitionings and the per-day temporal
// batches all fan out across CPUs, controlled by the Parallelism
// field of the corresponding Options struct (0 = all CPUs, 1 =
// serial). Mining results are bit-identical at every worker count.
//
// Both miners share a pattern-with-embeddings store
// (internal/pattern): frequent patterns carry per-transaction
// embedding lists, so FSG counts a candidate's support by extending
// its parent's embeddings across the one new edge instead of
// re-running a full subgraph-isomorphism search per transaction, and
// SUBDUE's instance growth rides the same representation. Embedding
// memory is metered by the MaxEmbeddings option of FSGOptions (0 =
// default budget, negative = unlimited): over-budget patterns keep
// warm-start seeds and fall back to classic searches, reproducing the
// paper's memory/speed trade-off as a controlled dial. The pipelines
// above fsg (StructuralOptions, TemporalMineOptions) always run at
// the default budget.
//
// # Quick start
//
//	data := tnkd.GenerateDataset(tnkd.ScaledConfig(0.05))
//	g := tnkd.BuildGraph(data, tnkd.GraphOptions{
//		Attr:     tnkd.TransitHours,
//		Vertices: tnkd.UniformLabels,
//	})
//	res, err := tnkd.MineStructural(g, tnkd.DefaultStructuralOptions())
//
// Every experiment (table and figure) in the paper's evaluation can
// be regenerated with the runners in Experiments (see EXPERIMENTS.md
// and cmd/experiments).
package tnkd

import (
	"io"

	"tnkd/internal/bin"
	"tnkd/internal/core"
	"tnkd/internal/dataset"
	"tnkd/internal/dynamic"
	"tnkd/internal/fsg"
	"tnkd/internal/graph"
	"tnkd/internal/interest"
	"tnkd/internal/partition"
	"tnkd/internal/subdue"
)

// Re-exported dataset types.
type (
	// Dataset is an in-memory OD transaction table.
	Dataset = dataset.Dataset
	// Transaction is one shipment row (Table 1 schema).
	Transaction = dataset.Transaction
	// LatLon is a 0.1-degree-rounded coordinate pair.
	LatLon = dataset.LatLon
	// GenConfig controls the synthetic data generator.
	GenConfig = dataset.GenConfig
	// GraphOptions controls OD-graph construction.
	GraphOptions = dataset.GraphOptions
	// EdgeAttr selects the edge-labeling attribute.
	EdgeAttr = dataset.EdgeAttr
	// Summary carries the Section 3 dataset statistics.
	Summary = dataset.Summary
)

// Re-exported graph and miner types.
type (
	// Graph is a labeled directed multigraph.
	Graph = graph.Graph
	// StructuralOptions configures Algorithm 1.
	StructuralOptions = core.StructuralOptions
	// StructuralResult is Algorithm 1's output.
	StructuralResult = core.StructuralResult
	// TemporalMineOptions configures the Section 6 pipeline.
	TemporalMineOptions = core.TemporalMineOptions
	// TemporalMineResult is the Section 6 output.
	TemporalMineResult = core.TemporalMineResult
	// SubdueOptions configures substructure discovery.
	SubdueOptions = subdue.Options
	// SubdueResult is a SUBDUE discovery outcome.
	SubdueResult = subdue.Result
	// FSGOptions configures frequent-subgraph mining directly.
	FSGOptions = fsg.Options
	// FSGResult is a frequent-subgraph mining outcome.
	FSGResult = fsg.Result
	// SplitOptions configures Algorithm 2 partitioning.
	SplitOptions = partition.SplitOptions
)

// Edge-labeling attributes (Section 3's three graph variants).
const (
	GrossWeight   = dataset.GrossWeight
	TransitHours  = dataset.TransitHours
	TotalDistance = dataset.TotalDistance
)

// Vertex labeling schemes.
const (
	// UniformLabels makes all vertices identical, for structural
	// self-similarity mining (Section 5).
	UniformLabels = dataset.UniformLabels
	// UniqueLabels ties vertices to locations, for temporally
	// repeated routes (Section 6).
	UniqueLabels = dataset.UniqueLabels
)

// Partitioning strategies (Algorithm 2).
const (
	BreadthFirst = partition.BreadthFirst
	DepthFirst   = partition.DepthFirst
)

// SUBDUE evaluation principles (Section 5.1).
const (
	MDL  = subdue.MDL
	Size = subdue.Size
)

// DefaultConfig returns the full-scale generator configuration that
// reproduces the published dataset statistics (98,292 transactions,
// 4,038 locations, 20,900 OD pairs, ...).
func DefaultConfig() GenConfig { return dataset.DefaultConfig() }

// ScaledConfig returns the generator configuration scaled to a
// fraction of full size; useful for fast experiments.
func ScaledConfig(f float64) GenConfig { return dataset.DefaultConfig().Scaled(f) }

// GenerateDataset produces a deterministic synthetic OD dataset.
func GenerateDataset(cfg GenConfig) *Dataset { return dataset.Generate(cfg) }

// ReadCSV loads a dataset written by (*Dataset).WriteCSV.
func ReadCSV(r io.Reader) (*Dataset, error) { return dataset.ReadCSV(r) }

// BuildGraph converts a dataset into one of the labeled OD graphs.
func BuildGraph(d *Dataset, opts GraphOptions) *Graph { return d.BuildGraph(opts) }

// SplitGraph partitions a single graph into edge-disjoint sub-graph
// transactions (Algorithm 2).
func SplitGraph(g *Graph, opts SplitOptions) []*Graph { return partition.SplitGraph(g, opts) }

// MineStructural runs Algorithm 1: repeated partition-and-mine over a
// single graph (Section 5.2).
func MineStructural(g *Graph, opts StructuralOptions) (*StructuralResult, error) {
	return core.MineStructural(g, opts)
}

// DefaultStructuralOptions mirrors the paper's breadth-first run.
func DefaultStructuralOptions() StructuralOptions { return core.DefaultStructuralOptions() }

// MineTemporal runs the Section 6 pipeline: per-day partitioning and
// frequent-subgraph mining of repeated routes.
func MineTemporal(d *Dataset, opts TemporalMineOptions) (*TemporalMineResult, error) {
	return core.MineTemporal(d, opts)
}

// DefaultTemporalMineOptions mirrors the paper's successful temporal
// run (weight labels, component split, 5% support, label cap 200).
func DefaultTemporalMineOptions() TemporalMineOptions { return core.DefaultTemporalMineOptions() }

// Subdue runs substructure discovery over a single graph
// (Section 5.1).
func Subdue(g *Graph, opts SubdueOptions) *SubdueResult { return subdue.Discover(g, opts) }

// DefaultSubdueOptions mirrors the paper's MDL run (beam 4, best 3).
func DefaultSubdueOptions() SubdueOptions { return subdue.DefaultOptions() }

// MineFrequentSubgraphs runs the FSG-style miner directly over an
// explicit transaction set.
func MineFrequentSubgraphs(txns []*Graph, opts FSGOptions) (*FSGResult, error) {
	return fsg.Mine(txns, opts)
}

// Extension API: the Section 9 future-work challenges implemented by
// this repository (dynamic-graph mining, periodicity, interestingness
// metrics).
type (
	// DynamicGraph is a graph whose edges exist over day intervals.
	DynamicGraph = dynamic.Graph
	// TimePathQuery constrains repeated-connection-path search.
	TimePathQuery = dynamic.TimePathQuery
	// RepeatedPath is a route repeated across time windows.
	RepeatedPath = dynamic.RepeatedPath
	// Periodicity is the detected cadence of a lane.
	Periodicity = dynamic.Periodicity
	// LaneRuleQuery configures day-level lane co-occurrence mining.
	LaneRuleQuery = dynamic.LaneRuleQuery
	// LaneRule is a spatially filtered co-occurrence rule.
	LaneRule = dynamic.LaneRule
	// PatternScore is the interestingness evaluation of one mined
	// pattern.
	PatternScore = interest.Score
	// Binner discretises continuous attributes into labeled ranges.
	Binner = bin.Binner
)

// BuildDynamicGraph converts a dataset into a dynamic graph whose
// timed edges span each load's pickup–delivery window. A nil binner
// selects the attribute's paper-default binning.
func BuildDynamicGraph(d *Dataset, attr EdgeAttr, binner Binner) *DynamicGraph {
	return dynamic.FromDataset(d, attr, binner)
}

// FindRepeatedPaths mines multi-leg routes repeated over bounded time
// windows (the paper's dynamic-graph challenge).
func FindRepeatedPaths(g *DynamicGraph, q TimePathQuery) []RepeatedPath {
	return dynamic.FindRepeatedPaths(g, q)
}

// DetectPeriodicity finds lanes with a dominant repetition cadence.
func DetectPeriodicity(g *DynamicGraph, minOccur int, minRegularity float64) []Periodicity {
	return dynamic.DetectPeriodicity(g, minOccur, minRegularity)
}

// MineLaneRules finds day-level lane co-occurrence rules with the
// paper's spatio-temporal-closeness filter.
func MineLaneRules(g *DynamicGraph, q LaneRuleQuery) []LaneRule {
	return dynamic.LaneRules(g, q)
}

// RankPatterns scores mined frequent subgraphs against an
// independent-edge null model (lift/leverage), the paper's missing
// "interestingness metric for graph mining".
func RankPatterns(res *FSGResult, txns []*Graph) []PatternScore {
	return interest.Rank(res, txns, interest.Options{})
}
