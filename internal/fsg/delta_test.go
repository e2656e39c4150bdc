package fsg

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/pattern"
)

// groupByEdges shapes a mined result as Prior.Levels.
func groupByEdges(r *Result) map[int][]Pattern {
	out := make(map[int][]Pattern)
	for i := range r.Patterns {
		p := r.Patterns[i]
		out[p.Graph.NumEdges()] = append(out[p.Graph.NumEdges()], p)
	}
	return out
}

// renderMinedSet serialises exactly the facts delta mining promises
// to preserve bit-for-bit: codes, supports and TID lists, in output
// order. Embedding lists are deliberately excluded — a reused column
// keeps the store's enumeration order and budget demotions can land
// differently, which is allowed as long as the lists stay valid
// (checked separately).
func renderMinedSet(r *Result) string {
	var b strings.Builder
	for i := range r.Patterns {
		p := &r.Patterns[i]
		fmt.Fprintf(&b, "%d edges=%d code=%q support=%d tids=%v\n",
			i, p.Graph.NumEdges(), p.Code, p.Support, p.TIDs)
	}
	return b.String()
}

// TestMineDeltaMatchesFullMine is the delta-mining property test:
// over many random transaction sets and random split points, mining
// the prefix, then folding the suffix in with MineDelta, yields a
// pattern set identical (codes, supports, TID lists) to mining the
// whole set in one shot — across unlimited, default and starvation
// embedding budgets, so the overflow/seeded/bare rehydration paths
// all participate. It also requires the suite to exercise promotion
// (patterns sub-threshold on the prefix that qualify on the union)
// and store reuse, or the test would be vacuous.
func TestMineDeltaMatchesFullMine(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	budgets := []int{-1, 0, 3} // unlimited, default, starved-to-seeds
	totalPromoted, totalReused := 0, 0
	for trial := 0; trial < 40; trial++ {
		txns := randomTxns(rng, 8+rng.Intn(8), 5, 8, 2, 2)
		minSup := 2 + rng.Intn(2)
		split := rng.Intn(len(txns) + 1) // 0 and len(txns) included
		budget := budgets[trial%len(budgets)]
		opts := Options{MinSupport: minSup, MaxEdges: 4, MaxEmbeddings: budget}

		full, err := Mine(txns, opts)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := Mine(txns[:split], opts) // split may be 0: an empty prefix mines to nothing
		if err != nil {
			t.Fatal(err)
		}
		prior := Prior{Txns: txns[:split], Levels: groupByEdges(prev)}
		if trial%2 == 0 {
			// Half the trials advertise the prior threshold, enabling
			// the incremental level-1 pass; the other half leave it
			// unknown and take the full level-1 rescan. Both must
			// produce identical output.
			prior.MinSupport = minSup
		}
		delta, err := MineDelta(prior, txns[split:], opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderMinedSet(delta), renderMinedSet(full); got != want {
			t.Fatalf("trial %d (split %d/%d, budget %d): delta diverges from full mine\n--- full ---\n%s--- delta ---\n%s",
				trial, split, len(txns), budget, want, got)
		}
		for _, lv := range delta.Levels {
			totalPromoted += lv.Promoted
			totalReused += lv.Reused
		}
		// Every complete embedding list the delta kept must still be
		// the exact full enumeration for its transaction.
		for i := range delta.Patterns {
			p := &delta.Patterns[i]
			if !p.HasEmbeddings() {
				continue
			}
			for j, tid := range p.TIDs.All() {
				if want := iso.CountEmbeddings(p.Graph, txns[tid], 0); len(p.Embs[j]) != want {
					t.Fatalf("trial %d pattern %q tid %d: delta kept %d embeddings, full enumeration has %d",
						trial, p.Code, tid, len(p.Embs[j]), want)
				}
			}
		}
	}
	if totalPromoted == 0 {
		t.Fatal("no promotions across the whole suite; the sub-threshold path went untested")
	}
	if totalReused == 0 {
		t.Fatal("no store reuse across the whole suite; the delta fast path went untested")
	}
}

// TestMineDeltaRisingThreshold folds new transactions in under a
// higher support threshold than the prior run used: stored patterns
// whose combined support falls short must drop out, exactly as a
// re-mine at the new threshold would drop them.
func TestMineDeltaRisingThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		txns := randomTxns(rng, 10+rng.Intn(6), 5, 8, 2, 2)
		split := 3 + rng.Intn(len(txns)-3)
		prevOpts := Options{MinSupport: 2, MaxEdges: 4}
		newOpts := Options{MinSupport: 3, MaxEdges: 4}

		prev, err := Mine(txns[:split], prevOpts)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Mine(txns, newOpts)
		if err != nil {
			t.Fatal(err)
		}
		delta, err := MineDelta(Prior{Txns: txns[:split], Levels: groupByEdges(prev), MinSupport: prevOpts.MinSupport}, txns[split:], newOpts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderMinedSet(delta), renderMinedSet(full); got != want {
			t.Fatalf("trial %d: rising-threshold delta diverges\n--- full ---\n%s--- delta ---\n%s", trial, want, got)
		}
	}
}

// TestMineDeltaDeterministicAcrossParallelism mines the same delta
// fold serially and with a worker pool; run under -race this both
// checks determinism and exercises the concurrent rebase/extend path.
func TestMineDeltaDeterministicAcrossParallelism(t *testing.T) {
	txns := motifTxns(30, 13)
	split := 22
	opts := Options{MinSupport: 5, MaxEdges: 4}
	prev, err := Mine(txns[:split], opts)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, par := range []int{1, 4, 0} {
		o := opts
		o.Parallelism = par
		delta, err := MineDelta(Prior{Txns: txns[:split], Levels: groupByEdges(prev)}, txns[split:], o)
		if err != nil {
			t.Fatal(err)
		}
		got := renderResult(delta)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("parallelism %d changed the delta result", par)
		}
	}
}

// TestMineDeltaRejectsBadPrior pins the Prior validation: duplicate
// codes within a level and mis-filed levels fail with a clear error
// instead of mining garbage.
func TestMineDeltaRejectsBadPrior(t *testing.T) {
	g := graph.New("p")
	a := g.AddVertex("A")
	b := g.AddVertex("B")
	g.AddEdge(a, b, "x")
	opts := Options{MinSupport: 1}
	pat := Pattern{Graph: g, Code: iso.Code(g), Support: 1, TIDs: pattern.NewTIDSet(0)}

	if _, err := MineDelta(Prior{Txns: []*graph.Graph{g}, Levels: map[int][]Pattern{1: {pat, pat}}}, nil, opts); err == nil || !strings.Contains(err.Error(), "two level-1 patterns") {
		t.Fatalf("duplicate prior code not rejected: %v", err)
	}
	if _, err := MineDelta(Prior{Txns: []*graph.Graph{g}, Levels: map[int][]Pattern{2: {pat}}}, nil, opts); err == nil || !strings.Contains(err.Error(), "has 1 edges") {
		t.Fatalf("mis-filed prior level not rejected: %v", err)
	}
}
