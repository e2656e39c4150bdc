package partition

import (
	"math"
	"time"

	"tnkd/internal/bin"
	"tnkd/internal/dataset"
	"tnkd/internal/engine"
	"tnkd/internal/graph"
)

// TemporalOptions configures the Section 6 temporal partitioning.
// The paper's fixed steps always run: edges are labelled by gross
// weight range, duplicate (from, to, label) edges within a day are
// dropped (FSG mines graphs, not multigraphs), and transactions with
// only one edge, which cannot produce interesting patterns, are
// dropped.
type TemporalOptions struct {
	// SplitComponents breaks each disconnected daily transaction
	// into one transaction per connected component (the paper does
	// this; FSG's results are unaffected but transactions shrink).
	SplitComponents bool
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
	return TemporalOptions{SplitComponents: true}
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
	days := bucketDays(d)
	if opts.MaxDays > 0 && len(days.names) > opts.MaxDays {
		days.names = days.names[:opts.MaxDays]
		days.txns = days.txns[:opts.MaxDays]
	}
	locs := dataset.NewLocationTable(d)
	edgeIDs, edgeLabels := binEdges(d, dataset.GrossWeight)

	res := &TemporalResult{DaysTotal: len(days.names)}

	// Each day's batch — dedup, vertex-label filter, graph build,
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
	batches := engine.Map(opts.Parallelism, len(days.names), func(i int) dayBatch {
		txns, dropped := dedupDay(locs, edgeIDs, days.txns[i])
		b := dayBatch{duplicateDropped: dropped}
		if opts.MaxVertexLabels > 0 &&
			distinctLabels(locs, txns, make([]bool, len(locs.Labels))) >= opts.MaxVertexLabels {
			b.filteredByLabels = 1
			return b
		}
		g := buildDayGraph(days.names[i], txns, locs, edgeIDs, edgeLabels)
		var gs []*graph.Graph
		if opts.SplitComponents {
			gs = g.SplitComponents()
		} else {
			gs = []*graph.Graph{g}
		}
		for _, txn := range gs {
			if txn.NumEdges() <= 1 {
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

// DayVertexLabelCounts returns, for every calendar day with at least
// one active OD pair, in calendar order, the number of distinct vertex
// labels of that day's graph: the number Temporal's MaxVertexLabels
// filter compares. It builds no graph.
func DayVertexLabelCounts(d *dataset.Dataset) []int {
	days := bucketDays(d)
	locs := dataset.NewLocationTable(d)
	mark := make([]bool, len(locs.Labels))
	counts := make([]int, len(days.txns))
	for i, txns := range days.txns {
		counts[i] = distinctLabels(locs, txns, mark)
	}
	return counts
}

// dayBuckets is a dataset grouped by active calendar day.
type dayBuckets struct {
	// names are the days with at least one active transaction, as
	// "2006-01-02", in calendar order.
	names []string
	// txns[i] lists the indices of the transactions active on day i,
	// in dataset order.
	txns [][]int32
}

// bucketDays groups d's transactions by the calendar days they are
// active on: from the requested pickup date through the last day whose
// pickup time of day is not after the requested delivery. Days are
// dates in the pickup's own location.
func bucketDays(d *dataset.Dataset) dayBuckets {
	n := len(d.Transactions)
	first, last := make([]int, n), make([]int, n)
	lo, hi := math.MaxInt, math.MinInt
	for i := range d.Transactions {
		t := &d.Transactions[i]
		first[i] = dayNumber(t.ReqPickup)
		last[i] = dayNumber(t.ReqDelivery.In(t.ReqPickup.Location()))
		if last[i] >= first[i] && t.ReqPickup.AddDate(0, 0, last[i]-first[i]).After(t.ReqDelivery) {
			last[i]--
		}
		if first[i] <= last[i] {
			lo, hi = min(lo, first[i]), max(hi, last[i])
		}
	}
	if lo > hi {
		return dayBuckets{}
	}
	// Counting sort by day. ends[k+1] first counts day lo+k's
	// transactions; after the prefix sum ends[k] is where day lo+k
	// starts in flat, and placing its transactions moves it to where
	// the day ends.
	ends := make([]int, hi-lo+2)
	for i := range first {
		for day := first[i]; day <= last[i]; day++ {
			ends[day-lo+1]++
		}
	}
	for k := 1; k < len(ends); k++ {
		ends[k] += ends[k-1]
	}
	flat := make([]int32, ends[len(ends)-1])
	for i := range first {
		for day := first[i]; day <= last[i]; day++ {
			flat[ends[day-lo]] = int32(i)
			ends[day-lo]++
		}
	}
	var days dayBuckets
	start := 0
	for k := 0; k <= hi-lo; k++ {
		if ends[k] > start {
			days.names = append(days.names, time.Unix(int64(lo+k)*secondsPerDay, 0).UTC().Format("2006-01-02"))
			days.txns = append(days.txns, flat[start:ends[k]:ends[k]])
		}
		start = ends[k]
	}
	return days
}

const secondsPerDay = 24 * 60 * 60

// dayNumber numbers t's calendar date (in t's location) as days since
// 1970-01-01.
func dayNumber(t time.Time) int {
	y, m, d := t.Date()
	return int(time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix() / secondsPerDay)
}

// binEdges labels every transaction's edge once: ids[i] is the edge
// label ID of d.Transactions[i] under attr's default binning, and
// labels maps an ID to its string. Bins whose labels are equal share
// an ID.
func binEdges(d *dataset.Dataset, attr dataset.EdgeAttr) (ids []int32, labels []string) {
	binner := attr.DefaultBinner()
	byBin := make([]int32, binner.NumBins())
	seen := make(map[string]int32)
	for b, l := range bin.Labels(binner) {
		id, ok := seen[l]
		if !ok {
			id = int32(len(labels))
			seen[l] = id
			labels = append(labels, l)
		}
		byBin[b] = id
	}
	ids = make([]int32, len(d.Transactions))
	for i := range d.Transactions {
		ids[i] = byBin[binner.Bin(attr.Value(d.Transactions[i]))]
	}
	return ids, labels
}

// dedupDay drops every transaction of txns whose (origin, destination,
// edge label) repeats an earlier one's, since FSG mines graphs, not
// multigraphs. It returns the kept transactions, in order, and the
// number dropped.
func dedupDay(locs *dataset.LocationTable, edgeIDs []int32, txns []int32) ([]int32, int) {
	type edge struct{ from, to, label int32 }
	seen := make(map[edge]struct{}, len(txns))
	kept := make([]int32, 0, len(txns))
	for _, i := range txns {
		e := edge{locs.Origins[i], locs.Dests[i], edgeIDs[i]}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		kept = append(kept, i)
	}
	return kept, len(txns) - len(kept)
}

// distinctLabels counts the distinct vertex labels of the day whose
// transactions are txns. mark is indexed by label ID; it must
// be all false, and is left so.
func distinctLabels(locs *dataset.LocationTable, txns []int32, mark []bool) int {
	n := 0
	visit := func(loc int32) {
		if l := locs.LabelIDs[loc]; !mark[l] {
			mark[l] = true
			n++
		}
	}
	for _, i := range txns {
		visit(locs.Origins[i])
		visit(locs.Dests[i])
	}
	for _, i := range txns {
		mark[locs.LabelIDs[locs.Origins[i]]] = false
		mark[locs.LabelIDs[locs.Dests[i]]] = false
	}
	return n
}

// buildDayGraph assembles one day's active-edge graph, one edge per
// transaction of txns, with one vertex per location labelled by its
// lat-lon.
func buildDayGraph(day string, txns []int32, locs *dataset.LocationTable, edgeIDs []int32, edgeLabels []string) *graph.Graph {
	g := graph.New("day/" + day)
	vertex := make([]graph.VertexID, len(locs.LabelIDs)) // location ID -> vertex ID + 1
	vertexOf := func(loc int32) graph.VertexID {
		if vertex[loc] == 0 {
			vertex[loc] = g.AddVertex(locs.Label(loc)) + 1
		}
		return vertex[loc] - 1
	}
	for _, i := range txns {
		from := vertexOf(locs.Origins[i])
		to := vertexOf(locs.Dests[i])
		g.AddEdge(from, to, edgeLabels[edgeIDs[i]])
	}
	return g
}
