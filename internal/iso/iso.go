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
// (instance discovery).
package iso

import (
	"tnkd/internal/graph"
)

// Embedding records one occurrence of a pattern inside a target
// graph: an injective vertex mapping plus the specific target edge
// matched by each pattern edge (edge-injective, so multigraph
// instances consume distinct parallel edges).
type Embedding struct {
	Vertices map[graph.VertexID]graph.VertexID // pattern vertex -> target vertex
	Edges    map[graph.EdgeID]graph.EdgeID     // pattern edge -> target edge
}

// Options tunes a matching call.
type Options struct {
	// Limit stops after this many embeddings (<= 0 finds all).
	Limit int
	// MaxSteps bounds backtracking-node expansions (<= 0 unbounded);
	// searches that exceed it return partial results.
	MaxSteps int
	// ExcludedEdges are target edges the match may not use.
	ExcludedEdges map[graph.EdgeID]bool
	// ExcludedVertices are target vertices the match may not use.
	ExcludedVertices map[graph.VertexID]bool
	// RestrictVertices, when non-nil, limits the match to these
	// target vertices (used to verify an instance candidate against
	// a specific target subgraph).
	RestrictVertices map[graph.VertexID]bool
	// RestrictEdges, when non-nil, limits the match to these target
	// edges.
	RestrictEdges map[graph.EdgeID]bool
}

// FindEmbeddings returns embeddings of pattern into target under the
// Section 4 matching relation. The pattern must have at least one
// vertex. Results are deterministic for identical inputs.
func FindEmbeddings(pattern, target *graph.Graph, opts Options) []Embedding {
	m := NewMatcher(pattern)
	if !m.fits(target) {
		return nil
	}
	return m.find(target, opts)
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
	m.begin(target, Options{Limit: 1, MaxSteps: maxSteps}, emitNone)
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

// CountEmbeddings returns the number of embeddings of pattern in
// target, up to limit (<= 0 for all). Automorphic images of the same
// subgraph are counted separately.
func CountEmbeddings(pattern, target *graph.Graph, limit int) int {
	return len(FindEmbeddings(pattern, target, Options{Limit: limit}))
}

// CountNonOverlapping greedily counts pairwise edge-disjoint
// instances of pattern in target. SUBDUE evaluates substructures by
// the number of non-overlapping instances (the paper runs it "without
// allowing overlap"); greedy extraction gives the standard lower
// bound used by the original system.
func CountNonOverlapping(pattern, target *graph.Graph, maxSteps int) int {
	m := NewMatcher(pattern)
	if !m.fits(target) {
		return 0
	}
	// One matcher serves every extraction round: exclusions
	// accumulate in its dense state and each round resets in
	// O(pattern), instead of rebuilding graph-sized state per
	// instance.
	m.begin(target, Options{Limit: 1, MaxSteps: maxSteps}, emitNone)
	defer m.finish()
	count := 0
	for {
		m.search(0)
		if m.found == 0 {
			return count
		}
		count++
		m.excludeCurrent(false)
		m.nextRound()
	}
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
}

// NewReanchorer prepares re-anchoring of subgraphs of target onto
// pattern. maxSteps bounds each search (<= 0 unbounded).
func NewReanchorer(pattern, target *graph.Graph, maxSteps int) *Reanchorer {
	return &Reanchorer{m: NewMatcher(pattern), target: target, maxSteps: maxSteps}
}

// restrictTo starts one re-anchoring search confined to exactly the
// given target vertices and edges.
func (r *Reanchorer) restrictTo(emit emitMode, verts []graph.VertexID, edges []graph.EdgeID) {
	m := r.m
	m.begin(r.target, Options{Limit: 1, MaxSteps: r.maxSteps}, emit)
	m.hasRestrictV, m.hasRestrictE = true, true
	for _, tv := range verts {
		m.restrictV.add(int(tv))
	}
	for _, te := range edges {
		m.restrictE.add(int(te))
	}
	m.search(0)
}

// Reanchor maps the pattern onto exactly the target vertices and
// edges covered by emb (an embedding of some isomorphic construction
// of the pattern), returning an embedding keyed to the pattern's own
// vertex/edge IDs.
func (r *Reanchorer) Reanchor(emb Embedding) (Embedding, bool) {
	if r.m.pattern.NumVertices() != len(emb.Vertices) {
		return Embedding{}, false
	}
	verts := make([]graph.VertexID, 0, len(emb.Vertices))
	for _, tv := range emb.Vertices {
		verts = append(verts, tv)
	}
	edges := make([]graph.EdgeID, 0, len(emb.Edges))
	for _, te := range emb.Edges {
		edges = append(edges, te)
	}
	r.restrictTo(emitMap, verts, edges)
	defer r.m.finish()
	if len(r.m.results) == 0 {
		return Embedding{}, false
	}
	return r.m.results[0], true
}

// EmbedInSubgraph finds one embedding of pattern using only the given
// target vertices and edges — verifying that a concrete target
// subgraph is an instance of pattern. The search space is tiny
// (pattern-sized), but each call pays one allocation of dense
// matcher state sized to the target graph; for repeated checks
// against one pattern use Reanchorer.
func EmbedInSubgraph(pattern, target *graph.Graph, vset map[graph.VertexID]bool, eset map[graph.EdgeID]bool, maxSteps int) (Embedding, bool) {
	embs := FindEmbeddings(pattern, target, Options{
		Limit: 1, MaxSteps: maxSteps,
		RestrictVertices: vset, RestrictEdges: eset,
	})
	if len(embs) == 0 {
		return Embedding{}, false
	}
	return embs[0], true
}

// GreedyNonOverlap selects a maximal prefix-greedy subset of
// embeddings that are pairwise vertex- and edge-disjoint — the
// "no overlap" instance count SUBDUE evaluates with.
func GreedyNonOverlap(embs []Embedding) []Embedding {
	usedV := make(map[graph.VertexID]bool)
	usedE := make(map[graph.EdgeID]bool)
	var out []Embedding
	for _, emb := range embs {
		ok := true
		for _, tv := range emb.Vertices {
			if usedV[tv] {
				ok = false
				break
			}
		}
		if ok {
			for _, te := range emb.Edges {
				if usedE[te] {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		for _, tv := range emb.Vertices {
			usedV[tv] = true
		}
		for _, te := range emb.Edges {
			usedE[te] = true
		}
		out = append(out, emb)
	}
	return out
}

// FindNonOverlapping greedily extracts pairwise vertex- and
// edge-disjoint instances of pattern in target, up to maxInstances
// (<= 0 for all). Vertex-disjointness is the "no overlap" notion of
// the paper's SUBDUE runs and guarantees termination even for
// edgeless patterns.
func FindNonOverlapping(pattern, target *graph.Graph, maxInstances, maxSteps int) []Embedding {
	m := NewMatcher(pattern)
	if !m.fits(target) {
		return nil
	}
	// One matcher serves every extraction round (see
	// CountNonOverlapping).
	m.begin(target, Options{Limit: 1, MaxSteps: maxSteps}, emitMap)
	defer m.finish()
	var result []Embedding
	for maxInstances <= 0 || len(result) < maxInstances {
		m.search(0)
		if len(m.results) == 0 {
			return result
		}
		result = append(result, m.results[0])
		m.excludeCurrent(true)
		m.nextRound()
	}
	return result
}
