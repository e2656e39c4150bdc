package store

import (
	"fmt"
	"strings"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/pattern"
)

// tinyTxns builds n one-edge transactions — enough TID space to force
// bitset columns without heavyweight fixtures.
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

// TestTIDColumnEncodingsRoundTrip pins the writer's
// smaller-encoding-wins choice and both decode paths: a dense column
// spanning a chunk boundary must be stored as bitset containers, a
// sparse one as a delta list, and both must decode to identical sets.
func TestTIDColumnEncodingsRoundTrip(t *testing.T) {
	const numTxns = 70000 // crosses the 65536 chunk boundary
	dense := pattern.NewTIDSet()
	for tid := 0; tid < numTxns; tid++ {
		dense.Add(tid)
	}
	sparse := pattern.NewTIDSet(3, 4096, 65535, 65536, 69999)

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

	st := ReadStats(r)
	if len(st.Levels) != 1 {
		t.Fatalf("levels = %d", len(st.Levels))
	}
	lv := st.Levels[0]
	if lv.BitsetCols != 1 || lv.ListCols != 1 {
		t.Fatalf("encoding split: %d bitset / %d list, want 1/1", lv.BitsetCols, lv.ListCols)
	}
	// The dense column holds two chunks: 0..65535 full (bitmap) and
	// 65536..69999 (4464 members, bitmap — past the 4096 array max).
	if lv.BitmapCons != 2 || lv.ArrayCons != 0 {
		t.Fatalf("containers: %d bitmaps / %d arrays, want 2/0", lv.BitmapCons, lv.ArrayCons)
	}
	if lv.ColumnBytes <= 2*8*1024 || lv.ColumnBytes > 2*8*1024+64 {
		t.Fatalf("column bytes %d, want just over two bitmap containers", lv.ColumnBytes)
	}
	report := st.String()
	for _, want := range []string{"list-cols", "bitset-cols", "picks the smaller"} {
		if !strings.Contains(report, want) {
			t.Fatalf("stats report lacks %q:\n%s", want, report)
		}
	}
}

// TestTIDColumnArrayContainers covers the array-container side of the
// writer choice: a column dense enough to beat the delta list but
// under the 4096-member bitmap threshold stores array containers.
func TestTIDColumnArrayContainers(t *testing.T) {
	// 3000 spread members: delta gaps of ~43 are one byte each, so the
	// list costs ~3000 bytes... array container costs 2 bytes/member
	// plus headers — the list wins. Use wide gaps (multi-byte deltas)
	// to flip the choice: members spaced 300 apart have 2-byte deltas.
	s := pattern.NewTIDSet()
	numTxns := 0
	for i := 0; i < 3000; i++ {
		s.Add(i * 20) // 60000 span, single chunk, one-byte deltas of 20
		numTxns = i*20 + 1
	}
	// One-byte deltas: list = ~3001 bytes, array container = 6000+ —
	// list wins here.
	path := tmpStore(t)
	writeStore(t, path, Meta{Kind: "fsg"}, tinyTxns(numTxns),
		map[int][]pattern.Pattern{1: {edgePattern("spread", s)}})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	lv := ReadStats(r).Levels[0]
	if lv.ListCols != 1 || lv.BitsetCols != 0 {
		t.Fatalf("one-byte-delta column stored as bitset (%d/%d)", lv.ListCols, lv.BitsetCols)
	}
	r.Close()

	// A mixed column — chunk 0 completely full, chunk 1 sparse — is
	// where array containers appear: the full chunk's bitmap (8 KiB
	// vs a 64 KiB delta list) pays for the bitset encoding, and the
	// sparse tail rides along as an array container.
	w := pattern.NewTIDSet()
	for tid := 0; tid < 65536; tid++ {
		w.Add(tid)
	}
	for i := 0; i < 100; i++ {
		w.Add(65536 + i*500)
	}
	path2 := tmpStore(t)
	writeStore(t, path2, Meta{Kind: "fsg"}, tinyTxns(65536+100*500),
		map[int][]pattern.Pattern{1: {edgePattern("mixed", w)}})
	r2, err := Open(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	lv2 := ReadStats(r2).Levels[0]
	if lv2.BitsetCols != 1 || lv2.ArrayCons != 1 || lv2.BitmapCons != 1 {
		t.Fatalf("mixed column: bitset=%d arrays=%d bitmaps=%d, want 1/1/1",
			lv2.BitsetCols, lv2.ArrayCons, lv2.BitmapCons)
	}
	got, err := r2.PatternLite(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.TIDs.Equal(w) {
		t.Fatal("mixed column mangled by the array-container round trip")
	}
}
