package fsg

import (
	"fmt"
	"strings"
	"testing"

	"tnkd/internal/iso"
	"tnkd/internal/synth"
)

// renderPatterns serialises the frequent-pattern set only (no level
// stats: the incremental and fallback counters legitimately differ in
// IsoTests/Embeddings while their mined output must be identical).
func renderPatterns(r *Result) string {
	var b strings.Builder
	for i := range r.Patterns {
		p := &r.Patterns[i]
		fmt.Fprintf(&b, "pattern %d code=%q support=%d tids=%v\n%s",
			i, p.Code, p.Support, p.TIDs, p.Graph.Dump())
	}
	return b.String()
}

// TestEmbeddingSupportsMatchFullIso is the embedding-API property
// test: supports and TID lists computed by embedding extension equal
// the brute-force iso-based counts, and every stored embedding list
// is exactly the full enumeration for its transaction. Run under
// -race in CI, with a parallel worker pool, this also exercises the
// concurrency of the incremental counter.
func TestEmbeddingSupportsMatchFullIso(t *testing.T) {
	txns := synth.LabelStress(synth.LabelStressConfig{
		Seed: 11, NumTransactions: 18, Lanes: 30, LanesPerTxn: 20,
		Hubs: 3, VertexLabels: 6, EdgeLabels: 3,
	})
	res, err := Mine(txns, Options{MinSupport: 6, MaxEdges: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no frequent patterns mined")
	}
	checkedEmbs := 0
	for i := range res.Patterns {
		p := &res.Patterns[i]
		// TID list vs brute-force containment over every transaction.
		var wantTIDs []int
		for ti, txn := range txns {
			if iso.Contains(txn, p.Graph) {
				wantTIDs = append(wantTIDs, ti)
			}
		}
		if fmt.Sprint(wantTIDs) != fmt.Sprint(p.TIDs) {
			t.Fatalf("pattern %d: TIDs %v, brute force %v\n%s", i, p.TIDs, wantTIDs, p.Graph.Dump())
		}
		if !p.HasEmbeddings() {
			continue
		}
		// Stored embedding lists vs full enumeration per transaction.
		for j, tid := range p.TIDs.All() {
			full, _ := iso.Embeddings(txns[tid], p.Graph, iso.Options{})
			want := full.Len()
			if got := p.EmbsAt(j).Len(); got != want {
				t.Fatalf("pattern %d tid %d: stored %d embeddings, full search %d",
					i, tid, got, want)
			}
			checkedEmbs += want
		}
	}
	if checkedEmbs == 0 {
		t.Fatal("no stored embeddings checked; property test is vacuous")
	}
}

// TestEmbeddingAndFallbackPathsAgree mines the same transactions with
// unlimited embedding budget (pure incremental counting) and with a
// budget of 1 (every pattern overflows at level 1, forcing the full
// isomorphism fallback everywhere) and asserts identical mined
// output.
func TestEmbeddingAndFallbackPathsAgree(t *testing.T) {
	txns := motifTxns(24, 7)
	incremental, err := Mine(txns, Options{MinSupport: 4, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := Mine(txns, Options{MinSupport: 4, MaxEdges: 4, MaxEmbeddings: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderPatterns(fallback), renderPatterns(incremental); got != want {
		t.Errorf("fallback mining diverged from incremental:\n--- incremental ---\n%s\n--- fallback ---\n%s",
			want, got)
	}
	for i := range fallback.Patterns {
		if fallback.Patterns[i].HasEmbeddings() && fallback.Patterns[i].NumEmbeddings() > 1 {
			t.Errorf("pattern %d retained %d embeddings over budget 1",
				i, fallback.Patterns[i].NumEmbeddings())
		}
	}
}

// TestMineDeterministicAcrossBudgetAndParallelism asserts that for
// each embedding budget the full observable result is bit-identical
// at every worker count (the PR 1 guarantee extended to the
// incremental counter's overflow paths).
func TestMineDeterministicAcrossBudgetAndParallelism(t *testing.T) {
	txns := motifTxns(24, 3)
	for _, budget := range []int{0, 1, 10, 200} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			var want string
			for _, p := range []int{1, 4} {
				res, err := Mine(txns, Options{
					MinSupport: 5, MaxEdges: 4, MaxEmbeddings: budget, Parallelism: p,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := renderResult(res)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("budget %d: parallelism %d diverged from serial", budget, p)
				}
			}
		})
	}
}
