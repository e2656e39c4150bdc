package partition

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"tnkd/internal/bin"
	"tnkd/internal/dataset"
	"tnkd/internal/graph"
)

// referenceDays builds every day's graph the direct way: bucket
// transaction copies under their formatted active dates, give each
// distinct LatLon of a day a vertex labelled LatLon.String(), add one
// gross-weight edge per transaction, then copy the graph without its
// repeated (from, to, label) edges. It returns the deduped graphs in
// calendar order and the number of edges dropped per day.
func referenceDays(d *dataset.Dataset) ([]*graph.Graph, []int) {
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
	attr := dataset.GrossWeight
	binner := attr.DefaultBinner()
	var graphs []*graph.Graph
	var dropped []int
	for _, day := range days {
		g := graph.New(fmt.Sprintf("day/%s", day))
		idx := make(map[dataset.LatLon]graph.VertexID)
		vertexOf := func(p dataset.LatLon) graph.VertexID {
			if id, ok := idx[p]; ok {
				return id
			}
			id := g.AddVertex(p.String())
			idx[p] = id
			return id
		}
		for _, t := range byDay[day] {
			from, to := vertexOf(t.Origin), vertexOf(t.Dest)
			g.AddEdge(from, to, bin.LabelOf(binner, attr.Value(t)))
		}
		deduped, n := referenceDedup(g)
		graphs = append(graphs, deduped)
		dropped = append(dropped, n)
	}
	return graphs, dropped
}

// referenceDedup copies g keeping the first edge of every (from, to,
// label) triple, and returns the copy and the number of edges dropped.
func referenceDedup(g *graph.Graph) (*graph.Graph, int) {
	type key struct {
		from, to graph.VertexID
		label    string
	}
	c := graph.New(g.Name)
	for v := range graph.VertexID(g.NumVertices()) {
		c.AddVertex(g.Vertex(v).Label)
	}
	seen := make(map[key]bool)
	dropped := 0
	for id := range graph.EdgeID(g.NumEdges()) {
		e := g.Edge(id)
		k := key{e.From, e.To, e.Label}
		if seen[k] {
			dropped++
			continue
		}
		seen[k] = true
		c.AddEdge(e.From, e.To, e.Label)
	}
	return c, dropped
}

// sharedLabelDataset has two distinct locations that both render as
// "1.0,2.0", so one day's graph has two vertices with one label; a
// transaction active on one day although its delivery date is the
// next (its delivery time is earlier than its pickup time); and one
// delivered before it is picked up, which is active on no day.
func sharedLabelDataset() *dataset.Dataset {
	at := func(day, hour int) time.Time {
		return time.Date(2004, time.March, 1+day, hour, 0, 0, 0, time.UTC)
	}
	p, q := dataset.LatLon{Lat: 1.0, Lon: 2.0}, dataset.LatLon{Lat: 1.04, Lon: 2.0}
	r, s := dataset.LatLon{Lat: 3.0, Lon: 4.0}, dataset.LatLon{Lat: 5.0, Lon: 6.0}
	txn := func(pickup, delivery time.Time, from, to dataset.LatLon, weight float64) dataset.Transaction {
		return dataset.Transaction{ReqPickup: pickup, ReqDelivery: delivery, Origin: from, Dest: to, GrossWeight: weight}
	}
	return &dataset.Dataset{Transactions: []dataset.Transaction{
		txn(at(0, 0), at(1, 0), p, r, 1000),
		txn(at(0, 0), at(0, 0), q, r, 1000),
		txn(at(0, 0), at(2, 0), p, r, 2000),   // same bin as the first: dropped on days 0 and 1
		txn(at(1, 10), at(2, 9), r, s, 20000), // active on day 1 only
		txn(at(3, 0), at(2, 0), s, p, 1000),
		txn(at(4, 0), at(4, 0), q, q, 1000),
	}}
}

// TestDayVertexLabelCountsMatchGraphs: the graph-free per-day label
// count equals len(VertexLabels()) of every reference day graph, also
// when two locations share a label.
func TestDayVertexLabelCountsMatchGraphs(t *testing.T) {
	for name, d := range map[string]*dataset.Dataset{
		"TestConfig":  dataset.Generate(dataset.TestConfig()),
		"sharedLabel": sharedLabelDataset(),
	} {
		ref, _ := referenceDays(d)
		counts := DayVertexLabelCounts(d)
		if len(counts) != len(ref) {
			t.Fatalf("%s: %d day counts, reference has %d days", name, len(counts), len(ref))
		}
		for i, g := range ref {
			if want := len(g.VertexLabels()); counts[i] != want {
				t.Errorf("%s: %s has %d vertex labels, DayVertexLabelCounts says %d", name, g.Name, want, counts[i])
			}
		}
	}
	if got, want := DayVertexLabelCounts(sharedLabelDataset()), []int{2, 3, 2, 1}; !slices.Equal(got, want) {
		t.Errorf("shared-label counts = %v, want %v", got, want)
	}
}

// TestTemporalMatchesReference: whole-day Temporal graphs equal the
// reference day graphs with more than one edge, vertex for vertex and
// edge for edge, with the same dedup and single-edge counts.
func TestTemporalMatchesReference(t *testing.T) {
	for name, d := range map[string]*dataset.Dataset{
		"TestConfig":  dataset.Generate(dataset.TestConfig()),
		"sharedLabel": sharedLabelDataset(),
	} {
		ref, dropped := referenceDays(d)
		res := Temporal(d, TemporalOptions{})
		var want []*graph.Graph
		total := 0
		for i, g := range ref {
			if g.NumEdges() > 1 {
				want = append(want, g)
			}
			total += dropped[i]
		}
		if res.DaysTotal != len(ref) || len(res.Transactions) != len(want) || res.SingleEdgeDropped != len(ref)-len(want) {
			t.Fatalf("%s: %d graphs over %d days, %d single-edge days dropped; reference has %d days, %d with more than one edge",
				name, len(res.Transactions), res.DaysTotal, res.SingleEdgeDropped, len(ref), len(want))
		}
		for i, g := range want {
			if got := res.Transactions[i]; got.Dump() != g.Dump() {
				t.Errorf("%s: graph %d\n%s\nwant\n%s", name, i, got.Dump(), g.Dump())
			}
		}
		if res.DuplicateEdgesDropped != total {
			t.Errorf("%s: %d duplicates dropped, reference drops %d", name, res.DuplicateEdgesDropped, total)
		}
	}
}
