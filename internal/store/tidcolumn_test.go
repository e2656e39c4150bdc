package store

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/pattern"
)

// tinyTxns builds n one-edge transactions — enough TID space for wide
// columns without heavyweight fixtures.
func tinyTxns(n int) []*graph.Graph {
	txns := make([]*graph.Graph, n)
	for i := range txns {
		g := graph.New(fmt.Sprintf("t%d", i))
		a := g.AddVertex("A")
		b := g.AddVertex("B")
		g.AddEdge(a, b, "e")
		txns[i] = g
	}
	return txns
}

func edgePattern(code string, tids pattern.TIDSet) pattern.Pattern {
	g := graph.New("pat")
	a := g.AddVertex("A")
	b := g.AddVertex("B")
	g.AddEdge(a, b, "e")
	return pattern.Pattern{Graph: g, Code: code, Support: tids.Len(), TIDs: tids}
}

// TestTIDColumnEncodingsRoundTrip round-trips delta-list TID columns
// through a store: a dense 70,000-member column and a sparse one
// whose deltas need 3 uvarint bytes. A column reaching
// math.MaxUint32 cannot sit in a store (its TIDs must name stored
// transactions), so it round-trips through the column codec alone.
func TestTIDColumnEncodingsRoundTrip(t *testing.T) {
	const numTxns = 70000
	dense := pattern.NewTIDSet()
	for tid := 0; tid < numTxns; tid++ {
		dense.Add(tid)
	}
	sparse := pattern.NewTIDSet(3, 20000, 40000, 69999)

	path := tmpStore(t)
	writeStore(t, path, Meta{Name: "enc", Kind: "fsg"}, tinyTxns(numTxns),
		map[int][]pattern.Pattern{1: {
			edgePattern("dense", dense),
			edgePattern("sparse", sparse),
		}})

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, want := range []pattern.TIDSet{dense, sparse} {
		got, err := r.PatternLite(i)
		if err != nil {
			t.Fatal(err)
		}
		if !got.TIDs.Equal(want) {
			t.Fatalf("record %d: decoded %d TIDs, wrote %d", i, got.TIDs.Len(), want.Len())
		}
	}

	top := pattern.NewTIDSet(0, math.MaxUint32-1, math.MaxUint32)
	var e enc
	encodeTIDColumn(&e, top)
	d := &dec{buf: e.buf}
	if got := decodeTIDColumn(d); d.done() != nil || !got.Equal(top) {
		t.Fatalf("column up to math.MaxUint32: decoded %v (err %v), wrote %v", got, d.done(), top)
	}
}

// TestTIDColumnRejectsUnknownEncoding: a column of any kind but the
// delta list — kind 1 was the retired bitset encoding — fails decode.
func TestTIDColumnRejectsUnknownEncoding(t *testing.T) {
	d := &dec{buf: []byte{1, 1, 0, 0, 1, 0, 5, 0}}
	if got := decodeTIDColumn(d); !got.IsEmpty() {
		t.Fatalf("kind-1 column decoded members %v", got)
	}
	if d.err == nil || !strings.Contains(d.err.Error(), "unknown TID column encoding 1") {
		t.Fatalf("kind-1 column: error %v, want unknown TID column encoding 1", d.err)
	}
}
