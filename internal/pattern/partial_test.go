package pattern

import (
	"fmt"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
)

// hubTxn builds a transaction with one v0 hub fanning out to `fan` v1
// leaves over "e" edges: vertex 0 is the hub, vertex i+1 is leaf i,
// edge i is hub->leaf i. A k-leaf star pattern has fan!/(fan-k)!
// embeddings here, so one large fan explodes combinatorially while
// small fans stay tiny — the exact shape per-TID retention exists for.
func hubTxn(name string, fan int) *graph.Graph {
	g := graph.New(name)
	hub := g.AddVertex("v0")
	for i := 0; i < fan; i++ {
		g.AddEdge(hub, g.AddVertex("v1"), "e")
	}
	return g
}

// singleEdgeParent is the v0-e->v1 single-edge pattern with complete
// embedding lists over hub transactions, the shape level-1 mining
// hands to the extension counter.
func singleEdgeParent(txns []*graph.Graph) *Pattern {
	pg := graph.New("p")
	pg.AddEdge(pg.AddVertex("v0"), pg.AddVertex("v1"), "e")
	p := &Pattern{Graph: pg, Code: iso.Code(pg), TIDs: NewTIDSet(), Embs: iso.NewEmbeddingList(pg), Offsets: []int32{0}}
	for tid, txn := range txns {
		for i := range txn.NumEdges() {
			p.Embs.IDs = append(p.Embs.IDs, 0, int32(i+1), int32(i))
		}
		p.TIDs.Add(tid)
		p.Offsets = append(p.Offsets, int32(p.Embs.Len()))
	}
	p.Support = p.TIDs.Len()
	return p
}

// twoLeafStar extends the single-edge parent with a second hub edge:
// v0-e->v1 plus v0-e->v1', fan*(fan-1) ordered embeddings per hub
// transaction.
func twoLeafStar(parent *Pattern) (*graph.Graph, graph.EdgeID) {
	child := parent.Graph.Clone()
	ne := child.AddEdge(0, child.AddVertex("v1"), "e")
	return child, ne
}

// TestPartialRetentionKeepsCompleteTIDs pins the per-TID overflow
// semantics: when one exploding transaction trips the MaxEmbeddings
// budget, the complete lists counted before the trip survive, only the
// tripping and later transactions demote to seeds, and Partial records
// exactly that split — while support and TIDs stay exact throughout.
func TestPartialRetentionKeepsCompleteTIDs(t *testing.T) {
	txns := []*graph.Graph{hubTxn("small0", 2), hubTxn("big", 40), hubTxn("small1", 2)}
	parent := singleEdgeParent(txns)
	child, ne := twoLeafStar(parent)

	// Budget 10: TID 0 retains its full 2-embedding list, TID 1's
	// 40*39 enumeration trips mid-transaction, TID 2 rides after the
	// trip — both demote to seeds.
	got, _ := CountExtension(txns, parent, child, "c", ne, parent.TIDs, CountOptions{MaxEmbeddings: 10})
	if got.Support != 3 || fmt.Sprint(got.TIDs) != "[0 1 2]" {
		t.Fatalf("support stayed exact? support=%d tids=%v", got.Support, got.TIDs)
	}
	if !got.Overflowed || got.Offsets == nil {
		t.Fatalf("budget trip must leave a seeded overflowed column: overflowed=%v hasLists=%v", got.Overflowed, got.Offsets != nil)
	}
	if fmt.Sprint(got.Partial) != "[1 2]" {
		t.Fatalf("partial TIDs %v, want [1 2] (the tripping txn and everything after)", got.Partial)
	}
	if !got.CompleteAt(0) || got.CompleteAt(1) || got.CompleteAt(2) {
		t.Fatalf("CompleteAt split wrong: %v %v %v", got.CompleteAt(0), got.CompleteAt(1), got.CompleteAt(2))
	}
	// TID 0's list is the full 2*1 ordered enumeration; the partial
	// TIDs keep at most SeedsPerTID warm-start seeds.
	if n := got.EmbsAt(0).Len(); n != 2 {
		t.Fatalf("complete list holds %d embeddings, want the full enumeration of 2", n)
	}
	for _, i := range []int{1, 2} {
		if n := got.EmbsAt(i).Len(); n == 0 || n > SeedsPerTID {
			t.Fatalf("partial list %d holds %d embeddings, want 1..%d seeds", i, n, SeedsPerTID)
		}
	}

	// The unlimited-budget run agrees on every mined fact.
	free, _ := CountExtension(txns, parent, child, "c", ne, parent.TIDs, CountOptions{})
	if free.Support != got.Support || !free.TIDs.Equal(got.TIDs) || free.Overflowed || free.Partial.Len() != 0 {
		t.Fatalf("unlimited run diverged: %+v", free)
	}
}

// TestPartialRetentionExtendsWithoutSearch pins the payoff of keeping
// complete lists on a partially-overflowed parent: a TID whose parent
// list is complete proves absence with no isomorphism search, and the
// Partial TIDs' seeds prove presence with no search either — the next
// level mines off a tripped column at zero fallback cost here.
func TestPartialRetentionExtendsWithoutSearch(t *testing.T) {
	txns := []*graph.Graph{hubTxn("small0", 2), hubTxn("big", 40), hubTxn("small1", 3)}
	parent := singleEdgeParent(txns)
	child, ne := twoLeafStar(parent)

	mid, _ := CountExtension(txns, parent, child, "c", ne, parent.TIDs, CountOptions{MaxEmbeddings: 10})
	if fmt.Sprint(mid.Partial) != "[1 2]" {
		t.Fatalf("fixture: partial %v, want [1 2]", mid.Partial)
	}

	// Extend to the three-leaf star. TID 0 (fan 2) cannot host it:
	// its complete list proves the absence. TIDs 1 and 2 host it and
	// their seeds extend directly.
	gchild := child.Clone()
	ne2 := gchild.AddEdge(0, gchild.AddVertex("v1"), "e")
	out, st := CountExtension(txns, mid, gchild, "g", ne2, mid.TIDs, CountOptions{MaxEmbeddings: 10})
	if out.Support != 2 || fmt.Sprint(out.TIDs) != "[1 2]" {
		t.Fatalf("grandchild lost exactness: support=%d tids=%v", out.Support, out.TIDs)
	}
	if st.IsoTests != 0 {
		t.Fatalf("ran %d fallback searches, want 0: complete lists prove absence, seeds prove presence", st.IsoTests)
	}
}
