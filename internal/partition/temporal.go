package partition

import (
	"fmt"
	"sort"

	"tnkd/internal/bin"
	"tnkd/internal/dataset"
	"tnkd/internal/engine"
	"tnkd/internal/graph"
)

// TemporalOptions configures the Section 6 temporal partitioning.
type TemporalOptions struct {
	// Attr labels edges, binned by Attr.DefaultBinner() (the paper's
	// temporal experiment uses gross weight ranges).
	Attr dataset.EdgeAttr
	// SplitComponents breaks each disconnected daily transaction
	// into one transaction per connected component (the paper does
	// this; FSG's results are unaffected but transactions shrink).
	SplitComponents bool
	// DropSingleEdge removes transactions with only one edge, which
	// cannot produce interesting patterns (the paper drops them).
	DropSingleEdge bool
	// DedupEdges removes duplicate (from, to, label) edges within a
	// transaction, since FSG operates on graphs, not multigraphs.
	DedupEdges bool
	// MaxVertexLabels, when > 0, keeps only DAYS whose whole graph
	// has fewer than this many distinct vertex labels, before any
	// component splitting — the paper's final run was "limited to
	// dates with fewer than 200 distinct vertex labels" (Table 3).
	MaxVertexLabels int
	// MaxDays, when > 0, keeps only the earliest MaxDays calendar
	// days (applied after day bucketing, before any per-day work).
	// Because days are processed in calendar order and each day's
	// transactions depend on nothing outside the day, a MaxDays=k run
	// produces a transaction list that is an exact prefix of the
	// MaxDays=k+1 run's — the arrival simulation knob: a MaxDays=k
	// store seeds an ingest chain whose per-day batches converge to
	// the MaxDays=N mine. 0 keeps every day.
	MaxDays int
	// Parallelism is the worker count for building the ~180 per-day
	// transaction batches (graph build, dedup, filtering, component
	// split — each day is independent). <= 0 selects GOMAXPROCS; 1
	// runs fully serial. Results are merged in calendar order and
	// identical for every value.
	Parallelism int
}

// DefaultTemporalOptions mirrors the paper's Section 6 pipeline
// (before the Table 3 size filter).
func DefaultTemporalOptions() TemporalOptions {
	return TemporalOptions{
		Attr:            dataset.GrossWeight,
		SplitComponents: true,
		DropSingleEdge:  true,
		DedupEdges:      true,
	}
}

// TemporalResult carries the per-day graph transactions plus the
// bookkeeping numbers reported in Tables 2 and 3.
type TemporalResult struct {
	Transactions []*graph.Graph
	// DayStarts maps each processed calendar day (in order) to the
	// index of its first transaction in Transactions: day i
	// contributed Transactions[DayStarts[i]:DayStarts[i+1]] (to
	// len(Transactions) for the last day). A day whose transactions
	// were all filtered away still has an entry (an empty range).
	// Because a MaxDays=k run is an exact prefix of a MaxDays=k+1
	// run, DayStarts is how arrival streams slice a fixed dataset
	// into the per-day batches tndingest consumes.
	DayStarts []int
	// DaysTotal is the number of calendar days with at least one
	// active OD pair (before any filtering).
	DaysTotal int
	// DuplicateEdgesDropped counts multigraph duplicates removed.
	DuplicateEdgesDropped int
	// SingleEdgeDropped counts transactions removed by the
	// single-edge filter.
	SingleEdgeDropped int
	// FilteredByVertexLabels counts transactions removed by the
	// MaxVertexLabels filter.
	FilteredByVertexLabels int
}

// Stats summarises the surviving transactions in Table 2/3 form.
func (r *TemporalResult) Stats() graph.TransactionStats {
	return graph.SummarizeTransactions(r.Transactions)
}

// Temporal partitions the dataset into per-day graph transactions:
// an OD pair is an active edge of day d's graph when d lies between
// the requested pickup and delivery dates of one of its transactions.
// Vertices carry unique lat-lon labels so patterns are tied to
// locations across days (Section 6).
func Temporal(d *dataset.Dataset, opts TemporalOptions) *TemporalResult {
	binner := opts.Attr.DefaultBinner()

	// Bucket transactions by active day.
	byDay := make(map[string][]dataset.Transaction)
	for _, t := range d.Transactions {
		for day := t.ReqPickup; !day.After(t.ReqDelivery); day = day.AddDate(0, 0, 1) {
			key := day.Format("2006-01-02")
			byDay[key] = append(byDay[key], t)
		}
	}
	days := make([]string, 0, len(byDay))
	for day := range byDay {
		days = append(days, day)
	}
	sort.Strings(days)
	if opts.MaxDays > 0 && len(days) > opts.MaxDays {
		days = days[:opts.MaxDays]
	}

	res := &TemporalResult{DaysTotal: len(days)}

	// Each day's batch — graph build, dedup, vertex-label filter,
	// component split, single-edge filter — is independent of every
	// other day, so the ~180 batches fan out across the engine pool.
	// The merge walks days in calendar order, keeping transactions
	// and counters identical at every Parallelism.
	type dayBatch struct {
		txns             []*graph.Graph
		duplicateDropped int
		filteredByLabels int
		singleDropped    int
	}
	batches := engine.Map(opts.Parallelism, len(days), func(i int) dayBatch {
		day := days[i]
		g := buildDayGraph(day, byDay[day], opts.Attr, binner)
		var b dayBatch
		if opts.DedupEdges {
			deduped, dropped := g.DedupEdges()
			b.duplicateDropped = dropped
			g = deduped
		}
		if opts.MaxVertexLabels > 0 && len(g.VertexLabels()) >= opts.MaxVertexLabels {
			b.filteredByLabels = 1
			return b
		}
		var txns []*graph.Graph
		if opts.SplitComponents {
			txns = g.SplitComponents()
		} else {
			txns = []*graph.Graph{g}
		}
		for _, txn := range txns {
			if opts.DropSingleEdge && txn.NumEdges() <= 1 {
				b.singleDropped++
				continue
			}
			b.txns = append(b.txns, txn)
		}
		return b
	})
	for _, b := range batches {
		res.DayStarts = append(res.DayStarts, len(res.Transactions))
		res.Transactions = append(res.Transactions, b.txns...)
		res.DuplicateEdgesDropped += b.duplicateDropped
		res.FilteredByVertexLabels += b.filteredByLabels
		res.SingleEdgeDropped += b.singleDropped
	}
	return res
}

// buildDayGraph assembles one day's active-edge graph with unique
// lat-lon vertex labels.
func buildDayGraph(day string, txns []dataset.Transaction, attr dataset.EdgeAttr, binner bin.Binner) *graph.Graph {
	g := graph.New(fmt.Sprintf("day/%s", day))
	labels := bin.Labels(binner)
	idx := make(map[dataset.LatLon]graph.VertexID)
	vertexOf := func(p dataset.LatLon) graph.VertexID {
		if id, ok := idx[p]; ok {
			return id
		}
		id := g.AddVertex(p.String())
		idx[p] = id
		return id
	}
	for _, t := range txns {
		from := vertexOf(t.Origin)
		to := vertexOf(t.Dest)
		g.AddEdge(from, to, labels[binner.Bin(attr.Value(t))])
	}
	return g
}
