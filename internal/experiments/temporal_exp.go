package experiments

import (
	"fmt"
	"sort"
	"strings"

	"tnkd/internal/core"
	"tnkd/internal/fsg"
	"tnkd/internal/graph"
	"tnkd/internal/partition"
	"tnkd/internal/synth"
)

// Table2Result reproduces Table 2: statistics of the temporally
// partitioned graph transactions (one per day, split into connected
// components, duplicates removed, single-edge transactions dropped).
type Table2Result struct {
	Stats                 graph.TransactionStats
	DuplicateEdgesDropped int
	SingleEdgeDropped     int
}

// RunTable2 executes the temporal partitioning without the Table 3
// vertex-label filter.
func RunTable2(p Params) *Table2Result {
	opts := partition.DefaultTemporalOptions()
	opts.SplitComponents = false // Table 2 counts whole daily graphs
	opts.MaxDays = p.Days
	opts.Parallelism = p.Parallelism
	res := partition.Temporal(p.Data, opts)
	return &Table2Result{
		Stats:                 res.Stats(),
		DuplicateEdgesDropped: res.DuplicateEdgesDropped,
		SingleEdgeDropped:     res.SingleEdgeDropped,
	}
}

// String renders Table 2.
func (r *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("=== Table 2: Summary of Temporally Partitioned Graph Data ===\n")
	b.WriteString(r.Stats.String())
	fmt.Fprintf(&b, "(duplicate edges removed: %d; single-edge transactions dropped: %d)\n",
		r.DuplicateEdgesDropped, r.SingleEdgeDropped)
	return b.String()
}

// Table3Result reproduces Table 3: the data actually used for
// frequent-pattern discovery after limiting to dates with fewer than
// 200 distinct vertex labels.
type Table3Result struct {
	Stats    graph.TransactionStats
	Filtered int // transactions removed by the vertex-label cap
}

// labelCap returns the Table 3 vertex-label cap. At full scale it is
// the paper's literal 200; at smaller scales it is chosen so that
// roughly the smallest sixty transactions survive — matching the
// shape of the paper's filtered set (53 transactions, at most 9
// vertices each), which is what made FSG tractable and the 5% support
// threshold land at 3 transactions. The cap is one more than the 30th
// percentile of the per-day distinct-vertex-label counts, which
// partition.DayVertexLabelCounts reads off the day bucketing without
// building a graph.
func labelCap(p Params) int {
	if p.Scale >= 0.99 {
		return 200
	}
	// Deliberately not day-limited (p.Days): the cap must be the same
	// number for every prefix of the day sequence, or a day-k run's
	// transactions would stop being a prefix of the day-k+1 run's, and
	// a tndingest chain fed -make-batches days onto a -days k seed
	// would no longer converge to the one-shot -days N mine.
	counts := partition.DayVertexLabelCounts(p.Data)
	if len(counts) == 0 {
		return 8
	}
	sort.Ints(counts)
	cap := counts[len(counts)*30/100] + 1
	if cap < 4 {
		cap = 4
	}
	return cap
}

// RunTable3 executes the filtered temporal partitioning.
func RunTable3(p Params) *Table3Result {
	opts := partition.DefaultTemporalOptions()
	opts.MaxVertexLabels = labelCap(p)
	opts.MaxDays = p.Days
	opts.Parallelism = p.Parallelism
	res := partition.Temporal(p.Data, opts)
	return &Table3Result{Stats: res.Stats(), Filtered: res.FilteredByVertexLabels}
}

// String renders Table 3.
func (r *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("=== Table 3: Summary of Data Used in Frequent Pattern Discovery ===\n")
	b.WriteString(r.Stats.String())
	fmt.Fprintf(&b, "(transactions filtered by the vertex-label cap: %d)\n", r.Filtered)
	return b.String()
}

// Figure4Result reproduces Section 6.1 / Figure 4: FSG at 5% support
// over the filtered temporal transactions found 22 frequent patterns,
// mostly small, the largest a three-edge hub-and-spoke with weight
// ranges as edge labels.
type Figure4Result struct {
	Transactions int
	Support      int
	NumPatterns  int
	// Largest is the largest frequent pattern.
	Largest *graph.Graph
	// LargestEdges is its edge count (paper: 3).
	LargestEdges int
	// LargestIsHub reports whether it is a hub-and-spoke (paper: yes).
	LargestIsHub bool
	// MostlySmall reports whether >= half the patterns have <= 2
	// edges ("most were small patterns").
	MostlySmall bool
}

// Figure4Partition returns exactly the temporal partition RunFigure4
// mines (same label cap, same day window), exposed so the ingest
// arrival-stream generator (tndingest -make-batches) can slice the
// Figure 4 transaction sequence into per-day batches whose fold chain
// reproduces a one-shot -days N run byte-for-byte. DayStarts marks
// where each day's transactions begin.
func Figure4Partition(p Params) *partition.TemporalResult {
	opts := core.DefaultTemporalMineOptions().Partition
	opts.MaxVertexLabels = labelCap(p)
	opts.MaxDays = p.Days
	opts.Parallelism = p.Parallelism
	return partition.Temporal(p.Data, opts)
}

// RunFigure4 executes the temporal mining experiment.
func RunFigure4(p Params) *Figure4Result {
	opts := core.DefaultTemporalMineOptions()
	opts.Partition.MaxVertexLabels = labelCap(p)
	opts.Partition.MaxDays = p.Days
	opts.Partition.Parallelism = p.Parallelism
	opts.StorePath = p.StorePath
	opts.Progress = p.stageProgress("figure4")
	res, err := core.MineTemporal(p.Data, opts)
	if err != nil {
		panic(err)
	}
	out := &Figure4Result{
		Transactions: len(res.Partition.Transactions),
		Support:      res.Support,
		NumPatterns:  len(res.Mining.Patterns),
	}
	small := 0
	for i := range res.Mining.Patterns {
		pat := &res.Mining.Patterns[i]
		if pat.Graph.NumEdges() <= 2 {
			small++
		}
		if out.Largest == nil || pat.Graph.NumEdges() > out.LargestEdges {
			out.Largest = pat.Graph
			out.LargestEdges = pat.Graph.NumEdges()
		}
	}
	if out.Largest != nil {
		out.LargestIsHub = isHub(out.Largest)
	}
	out.MostlySmall = out.NumPatterns == 0 || small*2 >= out.NumPatterns
	return out
}

// String renders the Figure 4 report.
func (r *Figure4Result) String() string {
	var b strings.Builder
	b.WriteString("=== Figure 4 / Section 6.1: temporally frequent patterns ===\n")
	fmt.Fprintf(&b, "transactions=%d support=%d (5%%) frequent patterns=%d (paper: 22)\n",
		r.Transactions, r.Support, r.NumPatterns)
	fmt.Fprintf(&b, "largest pattern: %d edges, hub-and-spoke=%v (paper: 3-edge hub); mostly small=%v\n",
		r.LargestEdges, r.LargestIsHub, r.MostlySmall)
	if r.Largest != nil {
		b.WriteString(r.Largest.Dump())
	}
	return b.String()
}

// BlowupRow is one row of the Section 8 candidate-explosion study.
type BlowupRow struct {
	VertexLabels int
	Candidates   int
	// Embeddings is the embedding volume the run's support counting
	// enumerated (summed over levels) — the memory FSG's embedding
	// lists would hold, in the units fsg.Options.MaxEmbeddings
	// budgets, so the blow-up reports candidate and embedding memory
	// side by side.
	Embeddings int
	Aborted    bool
}

// Section8Result reproduces the Section 8 analysis: FSG's candidate
// sets stay manageable at chemical-dataset label cardinality (~66
// distinct vertex labels) but explode on transportation-scale
// cardinality (thousands), exhausting memory — here reproduced as a
// controlled abort at a candidate budget.
type Section8Result struct {
	Rows []BlowupRow
	// Monotone reports whether candidate volume grows with label
	// cardinality until abort.
	Monotone bool
}

// RunSection8 executes the label-cardinality stress.
func RunSection8(p Params, budget int) *Section8Result {
	if budget <= 0 {
		budget = 20000
	}
	out := &Section8Result{Monotone: true}
	prev := -1
	for _, labels := range []int{8, 66, 400, 1200} {
		// More distinct locations means more distinct recurring lanes
		// (the transportation daily snapshots had ~3,835 labels and
		// ~1,092 edges; the chemical sets 66 labels and ~27 edges),
		// so the lane universe grows with the label alphabet.
		lanes := 2 * labels
		if lanes > 1500 {
			lanes = 1500
		}
		txns := synth.LabelStress(synth.LabelStressConfig{
			Seed:            p.Seed,
			NumTransactions: 40,
			Lanes:           lanes,
			LanesPerTxn:     lanes * 3 / 4,
			Hubs:            4,
			VertexLabels:    labels,
			EdgeLabels:      4,
		})
		res, err := fsg.Mine(txns, fsg.Options{
			MinSupport:    20, // half the snapshots: recurring lanes stay frequent
			MaxEdges:      2,
			MaxSteps:      20000,
			MaxCandidates: budget,
			Parallelism:   p.Parallelism,
		})
		if err != nil {
			panic(err)
		}
		total, embTotal := 0, 0
		for _, lv := range res.Levels {
			total += lv.Candidates
			embTotal += lv.Embeddings
		}
		out.Rows = append(out.Rows, BlowupRow{
			VertexLabels: labels, Candidates: total, Embeddings: embTotal, Aborted: res.Aborted,
		})
		if prev >= 0 && total < prev && !res.Aborted && !out.Rows[len(out.Rows)-2].Aborted {
			out.Monotone = false
		}
		prev = total
	}
	return out
}

// String renders the stress table.
func (r *Section8Result) String() string {
	var b strings.Builder
	b.WriteString("=== Section 8: FSG candidate growth vs. vertex-label cardinality ===\n")
	b.WriteString("vertex-labels  candidates  embeddings  aborted(OOM analogue)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%13d  %10d  %10d  %v\n", row.VertexLabels, row.Candidates, row.Embeddings, row.Aborted)
	}
	return b.String()
}
