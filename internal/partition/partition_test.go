package partition

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"tnkd/internal/dataset"
	"tnkd/internal/graph"
)

// ring builds a ring of n vertices with labeled edges.
func ring(n int) *graph.Graph {
	g := graph.New("ring")
	vs := make([]graph.VertexID, n)
	for i := range vs {
		vs[i] = g.AddVertex("*")
	}
	for i := range vs {
		g.AddEdge(vs[i], vs[(i+1)%n], "e")
	}
	return g
}

func TestSplitGraphPartitionsAllEdges(t *testing.T) {
	g := ring(40)
	for _, strat := range []Strategy{BreadthFirst, DepthFirst} {
		parts := SplitGraph(g, SplitOptions{K: 5, Strategy: strat, Rand: rand.New(rand.NewSource(3))})
		total := 0
		for _, p := range parts {
			total += p.NumEdges()
			if p.NumEdges() == 0 {
				t.Errorf("%v: empty partition", strat)
			}
		}
		if total != g.NumEdges() {
			t.Errorf("%v: partitioned edges = %d, want %d (edge-disjoint cover)", strat, total, g.NumEdges())
		}
		if g.NumEdges() != 40 {
			t.Error("input graph was mutated")
		}
	}
}

func TestSplitGraphSimilarSizes(t *testing.T) {
	g := ring(100)
	parts := SplitGraph(g, SplitOptions{K: 10, Strategy: DepthFirst, Rand: rand.New(rand.NewSource(7))})
	for _, p := range parts {
		if p.NumEdges() > 30 {
			t.Errorf("partition too large: %d edges (target ~10)", p.NumEdges())
		}
	}
}

func TestSplitGraphPreservesLabels(t *testing.T) {
	g := graph.New("lab")
	a := g.AddVertex("A")
	b := g.AddVertex("B")
	g.AddEdge(a, b, "x")
	parts := SplitGraph(g, SplitOptions{K: 1})
	if len(parts) != 1 {
		t.Fatalf("parts = %d", len(parts))
	}
	p := parts[0]
	if p.NumEdges() != 1 {
		t.Fatal("edge missing")
	}
	e := p.Edge(0)
	if p.Vertex(e.From).Label != "A" || p.Vertex(e.To).Label != "B" || e.Label != "x" {
		t.Errorf("labels/direction corrupted: %s", p.Dump())
	}
}

func TestSplitGraphBFPreservesHubs(t *testing.T) {
	// A star with 12 spokes: BF partitioning into 2 parts should keep
	// large fan-outs together; check some partition has a vertex with
	// out-degree >= 6.
	g := graph.New("star")
	hub := g.AddVertex("*")
	for i := 0; i < 12; i++ {
		s := g.AddVertex("*")
		g.AddEdge(hub, s, "w")
	}
	parts := SplitGraph(g, SplitOptions{K: 2, Strategy: BreadthFirst, Rand: rand.New(rand.NewSource(1))})
	maxOut := 0
	for _, p := range parts {
		for v := range graph.VertexID(p.NumVertices()) {
			if d := p.OutDegree(v); d > maxOut {
				maxOut = d
			}
		}
	}
	if maxOut < 6 {
		t.Errorf("BF max out-degree = %d, expected hub largely intact", maxOut)
	}
}

func TestSplitGraphDFPreservesChains(t *testing.T) {
	// A long path: DF partitioning should produce long chain pieces.
	g := graph.New("path")
	prev := g.AddVertex("*")
	for i := 0; i < 30; i++ {
		next := g.AddVertex("*")
		g.AddEdge(prev, next, "w")
		prev = next
	}
	parts := SplitGraph(g, SplitOptions{K: 3, Strategy: DepthFirst, Rand: rand.New(rand.NewSource(2))})
	longest := 0
	for _, p := range parts {
		if p.NumEdges() > longest {
			longest = p.NumEdges()
		}
	}
	if longest < 8 {
		t.Errorf("DF longest piece = %d edges, want long chain runs", longest)
	}
}

func TestSplitGraphDeterministicWithSeed(t *testing.T) {
	g := ring(24)
	a := SplitGraph(g, SplitOptions{K: 4, Strategy: BreadthFirst, Rand: rand.New(rand.NewSource(9))})
	b := SplitGraph(g, SplitOptions{K: 4, Strategy: BreadthFirst, Rand: rand.New(rand.NewSource(9))})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].NumEdges() != b[i].NumEdges() || a[i].NumVertices() != b[i].NumVertices() {
			t.Fatalf("partition %d differs", i)
		}
	}
}

func TestSplitGraphPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for K=0")
		}
	}()
	SplitGraph(ring(4), SplitOptions{K: 0})
}

// temporalDataset builds a tiny dataset with two lanes active on
// overlapping windows.
func temporalDataset() *dataset.Dataset {
	day := func(d int) time.Time { return time.Date(2004, 1, 5+d, 0, 0, 0, 0, time.UTC) }
	a := dataset.LatLon{Lat: 44.5, Lon: -88.0}
	b := dataset.LatLon{Lat: 41.9, Lon: -87.6}
	c := dataset.LatLon{Lat: 43.0, Lon: -87.9}
	return &dataset.Dataset{Transactions: []dataset.Transaction{
		{ID: 1, ReqPickup: day(0), ReqDelivery: day(1), Origin: a, Dest: b, Distance: 200, GrossWeight: 5000, TransitHours: 5, Mode: dataset.LessThanTruckload},
		{ID: 2, ReqPickup: day(0), ReqDelivery: day(0), Origin: a, Dest: c, Distance: 110, GrossWeight: 4000, TransitHours: 3, Mode: dataset.LessThanTruckload},
		{ID: 3, ReqPickup: day(1), ReqDelivery: day(2), Origin: a, Dest: b, Distance: 200, GrossWeight: 5200, TransitHours: 5, Mode: dataset.LessThanTruckload},
		// Duplicate lane+bin on day 1 (should dedup).
		{ID: 4, ReqPickup: day(1), ReqDelivery: day(1), Origin: a, Dest: b, Distance: 200, GrossWeight: 5100, TransitHours: 5, Mode: dataset.LessThanTruckload},
	}}
}

func TestTemporalActiveWindows(t *testing.T) {
	res := Temporal(temporalDataset(), TemporalOptions{})
	// Days: txn1 on d0,d1; txn2 d0; txn3 d1,d2; txn4 d1 => 3 days.
	if res.DaysTotal != 3 {
		t.Fatalf("days = %d, want 3", res.DaysTotal)
	}
	// Day 0: txn1 + txn2 = 2 edges. Day 1: txn1 + txn3 + txn4, one
	// lane and bin, so two duplicates drop and the single edge left
	// drops too. Day 2: txn3 alone, a single edge.
	if len(res.Transactions) != 1 || res.Transactions[0].NumEdges() != 2 {
		t.Fatalf("transactions = %v, want day 0's 2-edge graph alone", res.Transactions)
	}
	if res.DuplicateEdgesDropped != 2 || res.SingleEdgeDropped != 2 {
		t.Errorf("dropped %d duplicates and %d single edges, want 2 and 2",
			res.DuplicateEdgesDropped, res.SingleEdgeDropped)
	}
	// One whole-day transaction on day 0, none on days 1 and 2.
	if want := []int{0, 1, 1}; !slices.Equal(res.DayStarts, want) {
		t.Errorf("DayStarts = %v, want %v", res.DayStarts, want)
	}
}

func TestTemporalDayStartsSliceIntoPrefixRuns(t *testing.T) {
	// A MaxDays=k run must equal the first k day-ranges of the full
	// run — the prefix property arrival streams rely on to slice
	// per-day batches out of a fixed dataset.
	full := Temporal(temporalDataset(), DefaultTemporalOptions())
	if len(full.DayStarts) != 3 {
		t.Fatalf("DayStarts = %v, want 3 entries", full.DayStarts)
	}
	for k := 1; k <= 3; k++ {
		opts := DefaultTemporalOptions()
		opts.MaxDays = k
		pre := Temporal(temporalDataset(), opts)
		end := len(full.Transactions)
		if k < len(full.DayStarts) {
			end = full.DayStarts[k]
		}
		if len(pre.Transactions) != end {
			t.Errorf("MaxDays=%d: %d transactions, want prefix length %d", k, len(pre.Transactions), end)
		}
		for i, g := range pre.Transactions {
			if g.Name != full.Transactions[i].Name {
				t.Errorf("MaxDays=%d txn %d: name %q != full run's %q", k, i, g.Name, full.Transactions[i].Name)
			}
		}
	}
}

func TestTemporalDedupAndFilters(t *testing.T) {
	res := Temporal(temporalDataset(), DefaultTemporalOptions())
	// Day 1 has txn1 (5000) txn3 (5200) txn4 (5100) on lane a->b: all
	// in weight bin [0,6500) so two duplicates drop; day 1 then has a
	// single edge and is filtered; day 2 single edge filtered; day 0
	// has 2 edges in one component.
	if res.DuplicateEdgesDropped != 2 {
		t.Errorf("duplicates dropped = %d, want 2", res.DuplicateEdgesDropped)
	}
	if res.SingleEdgeDropped != 2 {
		t.Errorf("single-edge dropped = %d, want 2", res.SingleEdgeDropped)
	}
	if len(res.Transactions) != 1 {
		t.Fatalf("surviving transactions = %d, want 1", len(res.Transactions))
	}
	if res.Transactions[0].NumEdges() != 2 {
		t.Errorf("surviving edges = %d, want 2", res.Transactions[0].NumEdges())
	}
}

func TestTemporalUniqueVertexLabels(t *testing.T) {
	res := Temporal(temporalDataset(), TemporalOptions{})
	g := res.Transactions[0]
	labels := g.VertexLabels()
	if len(labels) != g.NumVertices() {
		t.Errorf("labels not unique per vertex: %v", labels)
	}
	found := false
	for _, l := range labels {
		if l == "44.5,-88.0" {
			found = true
		}
	}
	if !found {
		t.Errorf("lat-lon label missing: %v", labels)
	}
}

func TestTemporalVertexLabelCap(t *testing.T) {
	res := Temporal(temporalDataset(), TemporalOptions{MaxVertexLabels: 3})
	// The cap keeps days with FEWER THAN 3 distinct labels (as the
	// paper kept days with fewer than 200): day 0 has 3 locations ->
	// filtered; days 1 and 2 have 2 -> kept (then dropped as single
	// edges).
	if res.FilteredByVertexLabels != 1 || res.SingleEdgeDropped != 2 {
		t.Errorf("filtered %d days and dropped %d single edges, want 1 and 2",
			res.FilteredByVertexLabels, res.SingleEdgeDropped)
	}
	for _, g := range res.Transactions {
		if len(g.VertexLabels()) >= 3 {
			t.Errorf("transaction with %d labels survived cap", len(g.VertexLabels()))
		}
	}
}

func TestTemporalComponentSplit(t *testing.T) {
	res := Temporal(temporalDataset(), TemporalOptions{SplitComponents: true})
	// Day 0's graph a->b, a->c is one connected component; every
	// transaction must be connected after splitting.
	for _, g := range res.Transactions {
		if len(g.WeaklyConnectedComponents()) != 1 {
			t.Errorf("disconnected transaction survived: %s", g)
		}
	}
}

// BenchmarkTemporal times the Section 6 partition of a quarter-scale
// dataset (about 24.6k transactions) with the paper's options before
// the Table 3 cap, so every day's graph is built, deduped, split into
// components and filtered. The dataset is generated outside the timer.
func BenchmarkTemporal(b *testing.B) {
	d := dataset.Generate(dataset.DefaultConfig().Scaled(0.25))
	opts := DefaultTemporalOptions()
	b.ReportAllocs()
	for b.Loop() {
		Temporal(d, opts)
	}
}
