package fsg

import (
	"fmt"
	"slices"
	"testing"

	"tnkd/internal/bruteforce"
	"tnkd/internal/graph"
)

// decodeFuzzTxns reads a small transaction set and mining settings
// from data. Missing bytes read as zero.
//
//	data[0]   MaxEdges 1 + b%3; MaxEmbeddings {1, 2, 10, default}[b>>2&3];
//	          Parallelism {1, 4}[b>>4&1]
//	data[1]   transaction count 1 + b&7; MinSupport 1 + (b>>3)%3
//	per transaction: one byte, vertex count (b&7)%6 + 1 and edge count
//	(b>>3)%10, then one label byte (a/b) per vertex and from, to, label
//	(x/y) bytes per edge
//
// Endpoints are free, so transactions carry self-loops and parallel
// duplicate edges.
func decodeFuzzTxns(data []byte) ([]*graph.Graph, Options) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	opts := Options{
		MaxEdges:      1 + at(0)%3,
		MaxEmbeddings: []int{1, 2, 10, 0}[at(0)>>2&3],
		Parallelism:   []int{1, 4}[at(0)>>4&1],
		MinSupport:    1 + (at(1)>>3)%3,
	}
	n := 1 + at(1)&7
	pos := 2
	txns := make([]*graph.Graph, n)
	for i := range txns {
		nv := (at(pos)&7)%6 + 1
		ne := (at(pos) >> 3) % 10
		pos++
		g := graph.New(fmt.Sprintf("t%d", i))
		for j := 0; j < nv; j++ {
			g.AddVertex([]string{"a", "b"}[at(pos)%2])
			pos++
		}
		for j := 0; j < ne; j++ {
			g.AddEdge(graph.VertexID(at(pos)%nv), graph.VertexID(at(pos+1)%nv), []string{"x", "y"}[at(pos+2)%2])
			pos += 3
		}
		txns[i] = g
	}
	return txns, opts
}

// minedLanguage reports whether FSG's candidate generation can produce
// p: no self-loop and no repeated (from, to, label) edge.
func minedLanguage(p *graph.Graph) bool {
	type sig struct {
		from, to graph.VertexID
		label    string
	}
	seen := make(map[sig]bool)
	for e := range graph.EdgeID(p.NumEdges()) {
		ed := p.Edge(e)
		s := sig{ed.From, ed.To, ed.Label}
		if ed.From == ed.To || seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// FuzzMineBruteForce is the differential target of the level-wise
// miner against the exhaustive oracle: on small multigraph
// transactions with self-loops and parallel duplicate edges, under any
// embedding budget and parallelism, Mine must report exactly the
// oracle's patterns in FSG's pattern language, with the same codes,
// supports and TID lists. The checked-in corpus under
// testdata/fuzz/FuzzMineBruteForce includes a self-loop beside a plain
// edge of the same labels, which must not support the one-edge
// pattern.
func FuzzMineBruteForce(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		txns, opts := decodeFuzzTxns(data)
		want := make(map[string]bruteforce.Pattern)
		for _, p := range bruteforce.Mine(txns, opts.MinSupport, opts.MaxEdges) {
			if minedLanguage(p.Graph) {
				want[p.Code] = p
			}
		}
		res, err := Mine(txns, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string][]int)
		for _, p := range res.Patterns {
			if p.Support != p.TIDs.Len() {
				t.Fatalf("support %d but %d TIDs\n%s", p.Support, p.TIDs.Len(), p.Graph.Dump())
			}
			got[p.Code] = p.TIDs.Slice()
			if w, ok := want[p.Code]; !ok || !slices.Equal(w.TIDs, got[p.Code]) {
				t.Errorf("fsg pattern with TIDs %v, oracle %v (opts %+v)\n%s", got[p.Code], w.TIDs, opts, p.Graph.Dump())
			}
		}
		for code, w := range want {
			if _, ok := got[code]; !ok {
				t.Errorf("oracle pattern with TIDs %v missing from fsg output (opts %+v)\n%s", w.TIDs, opts, w.Graph.Dump())
			}
		}
	})
}
