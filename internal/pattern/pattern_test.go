package pattern

import (
	"fmt"
	"math/rand"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/synth"
)

// cycle builds a directed cycle of n uniformly labeled vertices —
// the shape whose hashed invariants used to collide (C12 vs C6+C6).
func cycle(g *graph.Graph, n int) {
	first := g.AddVertex("*")
	cur := first
	for i := 1; i < n; i++ {
		next := g.AddVertex("*")
		g.AddEdge(cur, next, "e")
		cur = next
	}
	g.AddEdge(cur, first, "e")
}

// TestExactCodesSeparateFormerCollision is the engineered collision
// of the pre-canonical era: C12 and C6+C6 are non-isomorphic but
// share vertex and edge invariants, so hashed codes used to collide.
// Exact canonical codes must separate the pair outright, and code
// equality must agree with isomorphism on both the pair and an
// isomorphic copy.
func TestExactCodesSeparateFormerCollision(t *testing.T) {
	c12 := graph.New("c12")
	cycle(c12, 12)
	twoC6 := graph.New("2c6")
	cycle(twoC6, 6)
	cycle(twoC6, 6)
	c12b := graph.New("c12b")
	cycle(c12b, 12)

	if iso.Code(c12) == iso.Code(twoC6) {
		t.Fatal("exact codes failed to separate C12 from C6+C6")
	}
	for _, pair := range [][2]*graph.Graph{{c12, twoC6}, {c12, c12b}} {
		a, b := pair[0], pair[1]
		if same, isomorphic := iso.Code(a) == iso.Code(b), iso.Isomorphic(a, b); same != isomorphic {
			t.Fatalf("%s/%s: equal codes %v but isomorphic %v", a.Name, b.Name, same, isomorphic)
		}
	}
}

// TestSameGraphMatchesIsomorphicOnSynthPairs cross-checks code
// equality against exact isomorphism on seeded random graph pairs
// from the synth generator: (iso.Code(a) == iso.Code(b)) ==
// iso.Isomorphic(a, b).
func TestSameGraphMatchesIsomorphicOnSynthPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(20050405))
	patterns := synth.DefaultPatterns()
	build := func(seed int64, copies, noise int) *graph.Graph {
		return synth.Plant(synth.PlantConfig{
			Seed:             seed,
			Patterns:         patterns[:1+rng.Intn(len(patterns))],
			CopiesPerPattern: copies,
			NoiseEdges:       noise,
			NoiseLabels:      []string{"w1", "w2"},
		}).Graph
	}
	for trial := 0; trial < 20; trial++ {
		seedA := int64(trial)
		seedB := seedA
		copies := 1 + rng.Intn(3)
		noise := rng.Intn(4)
		if trial%2 == 0 {
			seedB = seedA + 100 // usually a different graph
		}
		a := build(seedA, copies, noise)
		b := build(seedB, copies, noise)
		codeA, codeB := iso.Code(a), iso.Code(b)
		if got, want := codeA == codeB, iso.Isomorphic(a, b); got != want {
			t.Fatalf("trial %d: equal codes %v but Isomorphic=%v (codes %q / %q)",
				trial, got, want, codeA, codeB)
		}
	}
}

// twoTxns builds a pair of transactions sharing a v0-e-v1 lane.
func twoTxns() []*graph.Graph {
	txns := make([]*graph.Graph, 2)
	for i := range txns {
		g := graph.New(fmt.Sprintf("t%d", i))
		a := g.AddVertex("v0")
		b := g.AddVertex("v1")
		c := g.AddVertex("v2")
		g.AddEdge(a, b, "e")
		g.AddEdge(b, c, "f")
		txns[i] = g
	}
	return txns
}

// TestCountExtensionIncrementalAndFallback checks both counting paths
// directly on a tiny handmade case.
func TestCountExtensionIncrementalAndFallback(t *testing.T) {
	txns := twoTxns()
	pg := graph.New("p")
	pa := pg.AddVertex("v0")
	pb := pg.AddVertex("v1")
	pg.AddEdge(pa, pb, "e")
	parent := &Pattern{
		Graph: pg, Code: iso.Code(pg), Support: 2, TIDs: NewTIDSet(0, 1),
		Embs: [][]iso.DenseEmbedding{
			{{Verts: []graph.VertexID{0, 1}, Edges: []graph.EdgeID{0}}},
			{{Verts: []graph.VertexID{0, 1}, Edges: []graph.EdgeID{0}}},
		},
	}
	child := pg.Clone()
	pc := child.AddVertex("v2")
	ne := child.AddEdge(pb, pc, "f")

	got, st := CountExtension(txns, parent, child, "c", ne, parent.TIDs, CountOptions{})
	if got.Support != 2 || fmt.Sprint(got.TIDs) != "[0 1]" {
		t.Fatalf("incremental: support %d tids %v", got.Support, got.TIDs)
	}
	if st.IsoTests != 0 || !got.HasEmbeddings() || got.NumEmbeddings() != 2 {
		t.Fatalf("incremental: isoTests=%d embeddings=%d", st.IsoTests, got.NumEmbeddings())
	}

	parent.DropEmbeddings()
	got, st = CountExtension(txns, parent, child, "c", ne, parent.TIDs, CountOptions{})
	if got.Support != 2 || st.IsoTests != 2 {
		t.Fatalf("fallback: support %d isoTests %d", got.Support, st.IsoTests)
	}
	if got.HasEmbeddings() {
		t.Fatal("fallback must leave the child untracked (overflow propagates)")
	}

	// A one-embedding budget overflows the child but keeps counting.
	got, _ = CountExtension(txns, parent, child, "c", ne, parent.TIDs, CountOptions{MaxEmbeddings: 1})
	if got.Support != 2 || got.HasEmbeddings() || !got.Overflowed {
		t.Fatalf("budgeted: support %d hasEmbs %v overflowed %v",
			got.Support, got.HasEmbeddings(), got.Overflowed)
	}
}

// TestEnforceBudget checks the level-wide prefix enforcement.
func TestEnforceBudget(t *testing.T) {
	mk := func(n int) Pattern {
		embs := make([]iso.DenseEmbedding, n)
		return Pattern{Embs: [][]iso.DenseEmbedding{embs}, TIDs: NewTIDSet(0)}
	}
	pats := []Pattern{mk(3), mk(4), mk(2)}
	if retained := EnforceBudget(pats, 5); retained != 5 {
		t.Fatalf("retained %d, want 5 (3 + dropped 4 + 2)", retained)
	}
	if pats[0].Overflowed || !pats[1].Overflowed || pats[2].Overflowed {
		t.Fatalf("wrong drop pattern: %v %v %v",
			pats[0].Overflowed, pats[1].Overflowed, pats[2].Overflowed)
	}
	pats = []Pattern{mk(3), mk(4)}
	if retained := EnforceBudget(pats, 0); retained != 7 {
		t.Fatalf("unlimited retained %d, want 7", retained)
	}
}

// validEmbedding checks that emb really maps pat into txn: labels
// agree and every pattern edge's witness connects the mapped
// endpoints.
func validEmbedding(t *testing.T, txn, pat *graph.Graph, emb iso.DenseEmbedding) {
	t.Helper()
	for pv, tv := range emb.Verts {
		if pat.Vertex(graph.VertexID(pv)).Label != txn.Vertex(tv).Label {
			t.Fatalf("vertex %d label mismatch after rebase", pv)
		}
	}
	for pe, te := range emb.Edges {
		ped, ted := pat.Edge(graph.EdgeID(pe)), txn.Edge(te)
		if ped.Label != ted.Label ||
			emb.Verts[ped.From] != ted.From || emb.Verts[ped.To] != ted.To {
			t.Fatalf("edge %d witness mismatch after rebase", pe)
		}
	}
}

// TestRebasePermutedConstruction rebases a stored pattern whose graph
// was built in a different vertex/edge order than the delta run's
// candidate — the slow path that must rewrite every embedding through
// the pattern-level isomorphism.
func TestRebasePermutedConstruction(t *testing.T) {
	txns := twoTxns()
	// Candidate construction: A(v0)->B(v1)->C(v2), edges e then f.
	child := graph.New("cand")
	ca := child.AddVertex("v0")
	cb := child.AddVertex("v1")
	cc := child.AddVertex("v2")
	child.AddEdge(ca, cb, "e")
	child.AddEdge(cb, cc, "f")
	// Stored construction: same pattern, IDs permuted — C first, f
	// before e.
	sg := graph.New("stored")
	sc := sg.AddVertex("v2")
	sa := sg.AddVertex("v0")
	sb := sg.AddVertex("v1")
	sg.AddEdge(sb, sc, "f")
	sg.AddEdge(sa, sb, "e")
	code := iso.Code(child)
	if iso.Code(sg) != code {
		t.Fatal("fixture graphs must share a canonical code")
	}
	stored := &Pattern{
		Graph: sg, Code: code, Support: 2, TIDs: NewTIDSet(0, 1),
		// Stored embeddings are in stored-ID order: Verts[sc]=2,
		// Verts[sa]=0, Verts[sb]=1; Edges[f]=1, Edges[e]=0.
		Embs: [][]iso.DenseEmbedding{
			{{Verts: []graph.VertexID{2, 0, 1}, Edges: []graph.EdgeID{1, 0}}},
			{{Verts: []graph.VertexID{2, 0, 1}, Edges: []graph.EdgeID{1, 0}}},
		},
	}
	out, ok := Rebase(stored, child, code)
	if !ok {
		t.Fatal("rebase failed on isomorphic constructions")
	}
	if out.Graph != child || out.Support != 2 || fmt.Sprint(out.TIDs) != "[0 1]" || !out.HasEmbeddings() {
		t.Fatalf("rebase mangled the column: %+v", out)
	}
	for i, tid := range out.TIDs.All() {
		for _, emb := range out.Embs[i] {
			validEmbedding(t, txns[tid], child, emb)
		}
	}
	// The identity construction takes the fast path and must agree.
	fast, ok := Rebase(&Pattern{Graph: child, Code: code, Support: 2, TIDs: NewTIDSet(0, 1),
		Embs: out.Embs}, child, code)
	if !ok || fast.NumEmbeddings() != out.NumEmbeddings() {
		t.Fatal("identity rebase diverged")
	}
	// A bare record rebases to a bare overflowed column.
	bare, ok := Rebase(&Pattern{Graph: sg, Code: code, Support: 2, TIDs: NewTIDSet(0, 1)}, child, code)
	if !ok || bare.Embs != nil || !bare.Overflowed {
		t.Fatalf("bare rebase: %+v", bare)
	}
}

// TestCountExtensionFromContinuesColumn appends one transaction's
// worth of counting to a pre-counted column and must agree with
// counting the whole column in one shot — including the bare-base
// degradation, where the merged column keeps no lists but stays
// support-exact.
func TestCountExtensionFromContinuesColumn(t *testing.T) {
	txns := twoTxns()
	pg := graph.New("p")
	pa := pg.AddVertex("v0")
	pb := pg.AddVertex("v1")
	pg.AddEdge(pa, pb, "e")
	parentEmb := iso.DenseEmbedding{Verts: []graph.VertexID{0, 1}, Edges: []graph.EdgeID{0}}
	parent := &Pattern{
		Graph: pg, Code: iso.Code(pg), Support: 2, TIDs: NewTIDSet(0, 1),
		Embs: [][]iso.DenseEmbedding{{parentEmb}, {parentEmb.Clone()}},
	}
	child := pg.Clone()
	pc := child.AddVertex("v2")
	ne := child.AddEdge(pb, pc, "f")
	code := "c"

	oneShot, _ := CountExtension(txns, parent, child, code, ne, parent.TIDs, CountOptions{})

	// The same column, counted as TID 0 from the store + TID 1 fresh.
	base := &Pattern{Graph: child, Code: code, Support: 1, TIDs: NewTIDSet(0),
		Embs: [][]iso.DenseEmbedding{append([]iso.DenseEmbedding(nil), oneShot.Embs[0]...)}}
	cont, st := CountExtensionFrom(base, txns, parent, ne, NewTIDSet(1), CountOptions{})
	if fmt.Sprint(cont.TIDs) != fmt.Sprint(oneShot.TIDs) || cont.Support != oneShot.Support {
		t.Fatalf("continued column diverged: %v vs %v", cont.TIDs, oneShot.TIDs)
	}
	if !cont.HasEmbeddings() || cont.NumEmbeddings() != oneShot.NumEmbeddings() {
		t.Fatalf("continued column lost lists: %d vs %d", cont.NumEmbeddings(), oneShot.NumEmbeddings())
	}
	if st.IsoTests != 0 {
		t.Fatalf("complete parent lists should prove the appended TID without search, ran %d", st.IsoTests)
	}

	// A bare base (store record whose lists were dropped) stays bare
	// but exact.
	bare := &Pattern{Graph: child, Code: code, Support: 1, TIDs: NewTIDSet(0)}
	cont, _ = CountExtensionFrom(bare, txns, parent, ne, NewTIDSet(1), CountOptions{})
	if fmt.Sprint(cont.TIDs) != fmt.Sprint(oneShot.TIDs) || cont.Embs != nil || !cont.Overflowed {
		t.Fatalf("bare base: tids=%v embs=%v overflowed=%v", cont.TIDs, cont.Embs, cont.Overflowed)
	}
}

// TestCountExtensionFromClampsOversizedBase resumes a column whose
// stored embeddings already exceed this run's budget (the prior run
// was mined under a larger one): the base must demote to seeds
// before counting, or the loop's remaining-budget arithmetic would
// go negative and enumerate the appended transactions without any
// cap.
func TestCountExtensionFromClampsOversizedBase(t *testing.T) {
	txns := twoTxns()
	pg := graph.New("p")
	pa := pg.AddVertex("v0")
	pb := pg.AddVertex("v1")
	pg.AddEdge(pa, pb, "e")
	parentEmb := iso.DenseEmbedding{Verts: []graph.VertexID{0, 1}, Edges: []graph.EdgeID{0}}
	parent := &Pattern{
		Graph: pg, Code: iso.Code(pg), Support: 2, TIDs: NewTIDSet(0, 1),
		Embs: [][]iso.DenseEmbedding{{parentEmb}, {parentEmb.Clone()}},
	}
	child := pg.Clone()
	pc := child.AddVertex("v2")
	ne := child.AddEdge(pb, pc, "f")

	// Base column holds 4 embeddings for TID 0; the delta run's
	// budget is 3.
	over := make([]iso.DenseEmbedding, 4)
	for i := range over {
		over[i] = iso.DenseEmbedding{Verts: []graph.VertexID{0, 1, 2}, Edges: []graph.EdgeID{0, 1}}
	}
	base := &Pattern{Graph: child, Code: "c", Support: 1, TIDs: NewTIDSet(0),
		Embs: [][]iso.DenseEmbedding{over}}
	got, _ := CountExtensionFrom(base, txns, parent, ne, NewTIDSet(1), CountOptions{MaxEmbeddings: 3})
	if got.Support != 2 || fmt.Sprint(got.TIDs) != "[0 1]" {
		t.Fatalf("clamped resume lost exactness: support=%d tids=%v", got.Support, got.TIDs)
	}
	if !got.Overflowed {
		t.Fatal("over-budget base must leave the merged column overflowed")
	}
	for i, l := range got.Embs {
		if len(l) > SeedsPerTID {
			t.Fatalf("list %d kept %d embeddings; demotion to seeds did not happen", i, len(l))
		}
	}
}
