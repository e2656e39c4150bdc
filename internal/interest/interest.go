// Package interest implements interestingness metrics for graph
// patterns — the Section 9 challenge that "a variety of metrics have
// been developed to evaluate the interestingness of association
// rules... similar metrics are needed for graph mining". The paper
// found that "even at high support levels... many of these patterns
// turn out to be trivial or uninteresting"; these metrics rank mined
// patterns so the trivial ones sink.
//
// The null model treats each frequent single-edge pattern as an
// independent per-transaction event, so a k-edge pattern's expected
// support is N·∏p(eᵢ) with a size correction; observed support far
// above that expectation marks a structurally surprising pattern.
package interest

import (
	"fmt"
	"sort"
	"strings"

	"tnkd/internal/fsg"
	"tnkd/internal/graph"
)

// Score is the interestingness evaluation of one pattern.
type Score struct {
	Pattern *graph.Graph
	Support int
	// Expected is the null-model expected number of supporting
	// transactions.
	Expected float64
	// Lift is Support / Expected (capped); > 1 means the structure
	// co-occurs more than independent edges would.
	Lift float64
	// Leverage is (Support - Expected) / N.
	Leverage float64
	// Triviality flags patterns whose lift is indistinguishable from
	// 1 (the "trivial or uninteresting" bulk the paper observed).
	Trivial bool
}

// String renders the score.
func (s Score) String() string {
	return fmt.Sprintf("support=%d expected=%.1f lift=%.2f leverage=%.4f trivial=%v",
		s.Support, s.Expected, s.Lift, s.Leverage, s.Trivial)
}

// Options tunes the scoring.
type Options struct {
	// TrivialLiftBand treats lift within [1/band, band] as trivial
	// (default 1.5).
	TrivialLiftBand float64
}

// Rank scores every pattern of an FSG result against the transaction
// set it was mined from and returns the scores ordered by lift
// descending. Single-edge patterns are by definition trivial (they
// ARE the null model) and rank last.
func Rank(res *fsg.Result, txns []*graph.Graph, opts Options) []Score {
	if opts.TrivialLiftBand <= 1 {
		opts.TrivialLiftBand = 1.5
	}
	n := len(txns)
	if n == 0 {
		return nil
	}
	// Per-transaction probability of each single-edge triple.
	type triple struct{ from, label, to string }
	prob := make(map[triple]float64)
	for _, t := range txns {
		seen := make(map[triple]bool)
		for e := range graph.EdgeID(t.NumEdges()) {
			ed := t.Edge(e)
			tr := triple{t.Vertex(ed.From).Label, ed.Label, t.Vertex(ed.To).Label}
			if !seen[tr] {
				seen[tr] = true
				prob[tr] += 1 / float64(n)
			}
		}
	}

	var scores []Score
	for i := range res.Patterns {
		p := &res.Patterns[i]
		expected := float64(n)
		for e := range graph.EdgeID(p.Graph.NumEdges()) {
			ed := p.Graph.Edge(e)
			tr := triple{p.Graph.Vertex(ed.From).Label, ed.Label, p.Graph.Vertex(ed.To).Label}
			pe := prob[tr]
			if pe <= 0 {
				pe = 0.5 / float64(n)
			}
			expected *= pe
		}
		if expected < 1e-9 {
			expected = 1e-9
		}
		lift := float64(p.Support) / expected
		if p.Graph.NumEdges() <= 1 {
			lift = 1 // single edges define the null model
		}
		s := Score{
			Pattern:  p.Graph,
			Support:  p.Support,
			Expected: expected,
			Lift:     lift,
			Leverage: (float64(p.Support) - expected) / float64(n),
		}
		s.Trivial = lift <= opts.TrivialLiftBand && lift >= 1/opts.TrivialLiftBand
		scores = append(scores, s)
	}
	sort.SliceStable(scores, func(i, j int) bool {
		if scores[i].Lift != scores[j].Lift {
			return scores[i].Lift > scores[j].Lift
		}
		return scores[i].Support > scores[j].Support
	})
	return scores
}

// Summary renders the top-k scores with their patterns.
func Summary(scores []Score, k int) string {
	var b strings.Builder
	nontrivial := 0
	for _, s := range scores {
		if !s.Trivial {
			nontrivial++
		}
	}
	fmt.Fprintf(&b, "%d patterns scored, %d non-trivial\n", len(scores), nontrivial)
	for i, s := range scores {
		if i == k {
			break
		}
		fmt.Fprintf(&b, "--- rank %d: %s\n%s", i+1, s, s.Pattern.Dump())
	}
	return b.String()
}
