package fsg

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tnkd/internal/graph"
)

func progressTxns() []*graph.Graph {
	hub := func(noise string) *graph.Graph {
		return mkTxn([][3]interface{}{
			{0, 1, "a"}, {0, 2, "a"}, {0, 3, "b"}, {4, 5, noise},
		})
	}
	return []*graph.Graph{hub("x"), hub("y"), hub("z")}
}

// resultKey flattens the mining outcome into a comparable string.
func resultKey(res *Result) string {
	var b strings.Builder
	for _, p := range res.Patterns {
		fmt.Fprintf(&b, "%s=%d;", p.Code, p.Support)
	}
	return b.String()
}

func TestProgressEmitsOneEventPerLevel(t *testing.T) {
	txns := progressTxns()
	base, err := Mine(txns, Options{MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}

	var events []LevelProgress
	res, err := Mine(txns, Options{MinSupport: 3, Progress: func(ev LevelProgress) {
		events = append(events, ev)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(res.Levels) {
		t.Fatalf("events = %d, levels = %d", len(events), len(res.Levels))
	}
	cum := 0
	for i, ev := range events {
		if ev.LevelStats != res.Levels[i] {
			t.Fatalf("event %d stats %+v != level %+v", i, ev.LevelStats, res.Levels[i])
		}
		cum += ev.Frequent
		if ev.Patterns != cum {
			t.Fatalf("event %d cumulative patterns = %d, want %d", i, ev.Patterns, cum)
		}
		if ev.Elapsed < 0 {
			t.Fatalf("event %d negative elapsed", i)
		}
	}
	// The observer must not change the mining outcome.
	if resultKey(res) != resultKey(base) {
		t.Fatal("Progress observer changed the mining result")
	}
}

func TestProgressFiresOnAbortedLevel(t *testing.T) {
	// Reuse the candidate-budget abort shape: many distinct labels.
	var txns []*graph.Graph
	for i := 0; i < 3; i++ {
		edges := make([][3]interface{}, 0, 12)
		for j := 0; j < 12; j++ {
			edges = append(edges, [3]interface{}{j, j + 1, labelFor(j)})
		}
		txns = append(txns, mkTxn(edges))
	}
	var events []LevelProgress
	res, err := Mine(txns, Options{MinSupport: 3, MaxCandidates: 2, Progress: func(ev LevelProgress) {
		events = append(events, ev)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("expected candidate-budget abort")
	}
	if len(events) != len(res.Levels) {
		t.Fatalf("events = %d, levels = %d (abort row must emit too)", len(events), len(res.Levels))
	}
}

// TestBudgetedTestsPerLevel: with a tiny MaxSteps every fallback
// search aborts, and the per-level BudgetedTests (as reported to
// Progress) must sum to the run's Result.BudgetedTests.
func TestBudgetedTestsPerLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var txns []*graph.Graph
	for i := 0; i < 6; i++ {
		var edges [][3]interface{}
		seen := map[[3]interface{}]bool{}
		for len(edges) < 14 {
			e := [3]interface{}{rng.Intn(7), rng.Intn(7), []string{"a", "b"}[rng.Intn(2)]}
			if e[0] != e[1] && !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		txns = append(txns, mkTxn(edges))
	}
	var events []LevelProgress
	res, err := Mine(txns, Options{
		MinSupport: 3, MaxEdges: 4, MaxEmbeddings: 1, MaxSteps: 3, Parallelism: 1,
		Progress: func(ev LevelProgress) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, levels := 0, 0
	for i, ev := range events {
		if ev.BudgetedTests != res.Levels[i].BudgetedTests {
			t.Fatalf("level %d: event reports %d budgeted tests, Result.Levels %d", ev.Edges, ev.BudgetedTests, res.Levels[i].BudgetedTests)
		}
		if ev.BudgetedTests > ev.IsoTests {
			t.Fatalf("level %d: %d budgeted of %d iso tests", ev.Edges, ev.BudgetedTests, ev.IsoTests)
		}
		sum += ev.BudgetedTests
		if ev.BudgetedTests > 0 {
			levels++
		}
	}
	if res.BudgetedTests == 0 || levels < 2 {
		t.Fatalf("fixture too easy: %d budgeted tests over %d levels", res.BudgetedTests, levels)
	}
	if sum != res.BudgetedTests {
		t.Fatalf("per-level budgeted tests sum to %d, Result.BudgetedTests = %d", sum, res.BudgetedTests)
	}
}
