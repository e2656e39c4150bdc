// Package iso implements subgraph isomorphism, graph isomorphism and
// exact canonical codes for the labeled directed multigraphs of
// package graph.
//
// Section 4 of the paper defines when two subgraphs support the same
// pattern: there must be a bijection between their vertices that
// preserves vertex labels and maps every labeled edge onto a
// correspondingly labeled edge. This package supplies exactly that
// matching relation, used by both the FSG reimplementation (support
// counting, candidate deduplication) and the SUBDUE reimplementation
// (instance discovery). Every match it returns is a row of an
// EmbeddingList, indexed by the pattern's vertex and edge IDs and read
// as a DenseEmbedding view.
package iso

import (
	"tnkd/internal/graph"
)

// Options tunes a matching call.
type Options struct {
	// Limit stops after this many embeddings (<= 0 finds all).
	Limit int
	// MaxSteps bounds backtracking-node expansions (<= 0 unbounded);
	// searches that exceed it return partial results.
	MaxSteps int
}

// Contains reports whether target contains at least one embedding of
// pattern.
func Contains(target, pattern *graph.Graph) bool {
	found, _ := ContainsBudget(target, pattern, 0)
	return found
}

// ContainsBudget is Contains with a step budget; it returns
// (found, completed) where completed is false if the search aborted
// on budget before finding anything.
func ContainsBudget(target, pattern *graph.Graph, maxSteps int) (found, completed bool) {
	m := NewMatcher(pattern)
	if !m.fits(target) {
		return false, true
	}
	m.begin(target, Options{Limit: 1, MaxSteps: maxSteps}, nil)
	m.search(0)
	found = m.found > 0
	m.finish()
	return found, !m.aborted
}

// Isomorphic reports whether a and b are isomorphic labeled directed
// multigraphs (Section 4's "identical" relation).
func Isomorphic(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	if a.NumVertices() == 0 {
		return true
	}
	// An injective, edge-injective embedding between equal-size
	// graphs is a bijection on both vertices and edges.
	return Contains(b, a)
}

// Reanchorer repeatedly verifies that concrete target subgraphs are
// instances of one fixed pattern, returning embeddings keyed to that
// pattern's IDs. It reuses one matcher's dense graph-sized state
// across calls — each Reanchor costs O(pattern), not O(target) —
// which is what SUBDUE's instance re-anchoring needs: one pattern,
// one big target, many candidate subgraphs. Not safe for concurrent
// use; create one per goroutine.
type Reanchorer struct {
	m        *Matcher
	target   *graph.Graph
	maxSteps int
	buf      EmbeddingList // the last result
}

// NewReanchorer prepares re-anchoring of subgraphs of target onto
// pattern. maxSteps bounds each search (<= 0 unbounded).
func NewReanchorer(pattern, target *graph.Graph, maxSteps int) *Reanchorer {
	return &Reanchorer{m: NewMatcher(pattern), target: target, maxSteps: maxSteps, buf: NewEmbeddingList(pattern)}
}

// Reanchor maps the pattern onto exactly the target vertices and
// edges covered by emb (an embedding of some isomorphic construction
// of the pattern), returning an embedding keyed to the pattern's own
// IDs. The result is a view valid until the next Reanchor call.
func (r *Reanchorer) Reanchor(emb DenseEmbedding) (DenseEmbedding, bool) {
	m := r.m
	if m.pattern.NumVertices() != len(emb.Verts) {
		return DenseEmbedding{}, false
	}
	r.buf.Truncate(0)
	m.begin(r.target, Options{Limit: 1, MaxSteps: r.maxSteps}, &r.buf)
	defer m.finish()
	m.hasRestrictV, m.hasRestrictE = true, true
	for _, tv := range emb.Verts {
		m.restrictV.add(int(tv))
	}
	for _, te := range emb.Edges {
		m.restrictE.add(int(te))
	}
	m.search(0)
	if r.buf.Len() == 0 {
		return DenseEmbedding{}, false
	}
	return r.buf.At(0), true
}
