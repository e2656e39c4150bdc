// Package pattern is the shared pattern-with-embeddings store of the
// mining layers: a pattern graph coupled with its exact canonical
// code, the TID list of supporting transactions, and per-TID
// embedding lists (vertex/edge maps into each transaction).
//
// It is the FSG embedding-list idea — the frequent-itemset TID-list
// optimisation carried down to vertex maps — applied to the paper's
// dominant cost (Sections 5–8 of Jiang et al., ICDE 2005): level-wise
// support counting. A (k+1)-edge candidate's occurrences are exactly
// the one-edge extensions of its k-edge parent's occurrences, so
// support counting can extend stored parent embeddings instead of
// re-proving containment from scratch with a full subgraph-
// isomorphism search per (candidate × transaction).
//
// Embedding lists trade memory for that speed, which is the very
// trade-off that made the original FSG exhaust memory on
// transportation-scale data (Section 8). The store therefore meters
// itself: CountOptions.MaxEmbeddings bounds the embeddings a pattern
// may retain, and EnforceBudget bounds a whole level; a pattern over
// budget is demoted to warm-start seeds (SeedsPerTID per
// transaction), and its extensions fall back to an isomorphism
// search only when the seeds miss, so memory stays bounded, results
// stay exact, and the worst case costs what classic counting cost.
//
// The same representation serves both transaction-set mining (FSG:
// many transactions, TID lists) and single-graph discovery (SUBDUE:
// one target, instance lists — see NewSingle).
package pattern

import (
	"tnkd/internal/graph"
	"tnkd/internal/iso"
)

// Pattern couples a pattern graph with its code, support and
// embeddings. The Graph must have dense IDs (true of every graph
// built by Clone+AddVertex+AddEdge), because embeddings are stored in
// dense form.
type Pattern struct {
	Graph *graph.Graph
	// Code is the exact canonical code of Graph (iso.Code): equal
	// codes certify isomorphism, so every dedup site keys patterns by
	// plain string equality.
	Code string
	// Support is the number of supporting transactions, TIDs.Len().
	Support int
	// TIDs is the set of supporting transaction indices, stored as
	// word-parallel roaring-style containers; positional iteration
	// (TIDs.All) is ascending and aligns with Embs.
	TIDs TIDSet
	// Embs, when tracked, holds one embedding list per supporting
	// transaction, aligned positionally with TIDs. With Overflowed
	// unset the lists are complete: every embedding of Graph in
	// txns[tid] appears in the tid's list exactly once. (A list may be
	// empty in the degenerate case of a transaction supporting a
	// single-edge pattern only through self-loops, which admit no
	// injective embedding.) With Overflowed set, the lists of the TIDs
	// in Partial are seeds — at most SeedsPerTID true embeddings that
	// warm-start extension counting but cannot prove absence — while
	// the lists of TIDs outside Partial are still complete.
	Embs [][]iso.DenseEmbedding
	// Overflowed marks that at least one transaction's complete
	// enumeration exceeded its budget (or that lists were dropped
	// entirely): support data stays valid, and Partial says which
	// per-TID lists are seeds rather than complete.
	Overflowed bool
	// Partial, on an Overflowed pattern with lists, is the subset of
	// TIDs whose lists are seeds-only. A pattern demoted wholesale has
	// Partial == TIDs; a pattern whose budget tripped midway keeps its
	// already-complete prefix outside Partial, so one exploding
	// transaction no longer costs the whole pattern its lists. Empty
	// on an Overflowed pattern means "unknown" (legacy data): every
	// list is treated as seeds.
	Partial TIDSet
}

// SeedsPerTID is the number of embeddings retained per transaction
// when a pattern's complete enumeration overflows its budget. Seeds
// are true embeddings: if one extends across a candidate's new edge,
// the candidate is supported with no search at all; only when every
// seed fails does support counting fall back to a full isomorphism
// search. Small on purpose — seed memory is O(patterns × TIDs ×
// SeedsPerTID) and sits outside the MaxEmbeddings meter.
const SeedsPerTID = 2

// HasEmbeddings reports whether the per-TID embedding lists are
// present and all complete.
func (p *Pattern) HasEmbeddings() bool {
	return !p.Overflowed && p.Embs != nil
}

// HasSeeds reports whether at least warm-start seed lists are
// present.
func (p *Pattern) HasSeeds() bool { return p.Embs != nil }

// CompleteAt reports whether the pattern's embedding list for tid is
// a complete enumeration (tid must be a member of TIDs): true for an
// unoverflowed tracked pattern, and true on an overflowed one exactly
// when per-TID retention kept that transaction's list out of Partial.
func (p *Pattern) CompleteAt(tid int) bool {
	if p.Embs == nil {
		return false
	}
	if !p.Overflowed {
		return true
	}
	return p.Partial.Len() > 0 && !p.Partial.Contains(tid)
}

// NumEmbeddings returns the total number of stored embeddings across
// all TIDs.
func (p *Pattern) NumEmbeddings() int {
	n := 0
	for _, l := range p.Embs {
		n += len(l)
	}
	return n
}

// retainedEmbeddings counts the embeddings held in complete lists —
// the unit the MaxEmbeddings meter budgets. Seeds (the Partial TIDs'
// lists) sit outside the meter by design.
func (p *Pattern) retainedEmbeddings() int {
	if p.Embs == nil {
		return 0
	}
	if !p.Overflowed {
		return p.NumEmbeddings()
	}
	if p.Partial.Len() == 0 {
		return 0 // unknown which lists are complete: all treated as seeds
	}
	n := 0
	cur := p.Partial.Cursor()
	for pi, tid := range p.TIDs.All() {
		if !cur.Contains(tid) {
			n += len(p.Embs[pi])
		}
	}
	return n
}

// DropEmbeddings discards the embedding lists entirely and marks the
// pattern overflowed; support data is untouched. Extensions of the
// pattern count by classic search only.
func (p *Pattern) DropEmbeddings() {
	p.Embs = nil
	p.Overflowed = true
	p.Partial = TIDSet{}
}

// DemoteToSeeds truncates each per-TID list to at most SeedsPerTID
// embeddings and marks the pattern overflowed with every TID partial:
// what remains are warm-start seeds, no longer a complete
// enumeration.
func (p *Pattern) DemoteToSeeds() {
	for i, l := range p.Embs {
		if len(l) > SeedsPerTID {
			p.Embs[i] = l[:SeedsPerTID:SeedsPerTID]
		}
	}
	p.Overflowed = true
	if p.Embs != nil {
		p.Partial = p.TIDs.Clone()
	}
}

// NewSingle returns a Pattern over one implicit transaction (TID 0)
// holding the given instance list — the single-graph (SUBDUE) view of
// the store.
func NewSingle(g *graph.Graph, code string, embs []iso.DenseEmbedding) *Pattern {
	return &Pattern{
		Graph:   g,
		Code:    code,
		Support: 1,
		TIDs:    NewTIDSet(0),
		Embs:    [][]iso.DenseEmbedding{embs},
	}
}

// Instances returns the embedding list of a single-graph pattern
// (nil when embeddings are not tracked).
func (p *Pattern) Instances() []iso.DenseEmbedding {
	if len(p.Embs) == 0 {
		return nil
	}
	return p.Embs[0]
}

// CountOptions tunes CountExtension.
type CountOptions struct {
	// MaxEmbeddings bounds the embeddings the child pattern may
	// retain (0 = unlimited); over budget the child overflows and
	// keeps counting by existence checks only.
	MaxEmbeddings int
	// MaxSteps bounds each fallback isomorphism search (0 =
	// unlimited); searches that exceed it count as non-containment
	// when they found nothing.
	MaxSteps int
}

// CountStats meters one CountExtension call.
type CountStats struct {
	// IsoTests is the number of full isomorphism searches run (only
	// the fallback path runs any).
	IsoTests int
	// BudgetedTests counts searches aborted on MaxSteps with nothing
	// found, treated as non-containment.
	BudgetedTests int
	// Generated is the number of embeddings enumerated — the memory
	// unit MaxEmbeddings budgets.
	Generated int
}

// CountExtension computes the support of child — parent.Graph plus
// the single edge newEdge (IDs preserved) — over txns, incrementally
// when it can. Three tiers, degrading gracefully:
//
//   - Complete parent: each parent embedding is extended across
//     newEdge, so a transaction supports child iff at least one
//     extension exists, and the extensions are exactly child's
//     embeddings there — no isomorphism search at all. The child's
//     lists stay complete until the MaxEmbeddings budget trips
//     (enforced during enumeration: symmetric patterns in dense
//     transactions have combinatorially many embeddings, and the
//     whole point of the meter is never to materialise them), after
//     which the child keeps SeedsPerTID seeds per transaction.
//   - Seeded parent: each seed is tried against newEdge; a hit
//     proves support with no search (a seed extension is a true
//     embedding), and only when every seed misses does a classic
//     budgeted search decide — harvesting one embedding as the
//     child's seed when it succeeds.
//   - Untracked parent (no lists at all): the classic budgeted
//     containment test per transaction, exactly the pre-embedding
//     counter's cost profile.
//
// The tiers apply per transaction: an overflowed parent with per-TID
// partial retention still counts its complete-list TIDs in the first
// tier, and only its Partial TIDs pay the seeded tier.
//
// tidFilter is the candidate TID set (by downward closure, the
// intersection of all isomorphic parents' TID columns); it must be a
// subset of parent.TIDs on the embedding paths. Support counts are
// exact in every tier.
//
// Completeness is decided per transaction. A budget trip truncates
// only the tripping transaction's list to seeds (marking it Partial)
// and stops complete retention for the rest of the loop — the
// complete lists stored before the trip survive, so one exploding
// transaction no longer drops the whole pattern's lists. The
// post-trip transactions still extend the parent's complete lists
// where it has them (absence stays provable without a search); only
// the parent's own Partial TIDs pay the seeded tier's fallback.
func CountExtension(txns []*graph.Graph, parent *Pattern, child *graph.Graph, code string, newEdge graph.EdgeID, tidFilter TIDSet, opts CountOptions) (*Pattern, CountStats) {
	out := &Pattern{Graph: child, Code: code}
	var st CountStats
	budget := opts.MaxEmbeddings
	// retained counts the complete-list embeddings stored so far,
	// against budget.
	retained := 0
	// exhausted latches once the budget trips: later transactions
	// keep seeds only, exactly the demoted worst case of old runs.
	exhausted := false
	fmax := tidFilter.Max()
	fcur := tidFilter.Cursor()
	pcur := parent.Partial.Cursor()
	var buf []iso.DenseEmbedding
	// The fallback search's plan is compiled on first use and reused
	// across the rest of the candidate's transactions.
	var matcher *iso.Matcher
	for pi, tid := range parent.TIDs.All() {
		if tid > fmax {
			break
		}
		if !fcur.Contains(tid) {
			continue
		}
		// An untracked parent (no lists at all) behaves as a seeded
		// parent with zero seeds: every transaction decides by
		// search, at exactly the classic counter's cost.
		var pembs []iso.DenseEmbedding
		if parent.Embs != nil {
			pembs = parent.Embs[pi]
		}
		parentComplete := parent.Embs != nil &&
			(!parent.Overflowed || (parent.Partial.Len() > 0 && !pcur.Contains(tid)))
		txn := txns[tid]

		// Extend the parent's embeddings (all of them when the
		// parent's list here is complete, else up to SeedsPerTID
		// hits).
		storeComplete := parentComplete && !exhausted
		lim := SeedsPerTID
		if storeComplete {
			lim = 0
			if budget > 0 {
				lim = budget - retained + 1
			}
		}
		buf = buf[:0]
		tripped := false
		for _, pe := range pembs {
			buf = iso.ExtendEmbedding(txn, child, pe, newEdge, lim, buf)
			if lim > 0 && len(buf) >= lim {
				tripped = storeComplete
				break
			}
		}
		st.Generated += len(buf)

		if len(buf) == 0 {
			if parentComplete {
				continue // complete parent lists prove absence
			}
			// Seeds missed: a classic search decides, harvesting the
			// child's seed on success.
			st.IsoTests++
			if matcher == nil {
				matcher = iso.NewMatcher(child)
			}
			embs, completed := matcher.Embeddings(txn, iso.Options{Limit: 1, MaxSteps: opts.MaxSteps})
			if len(embs) == 0 {
				if !completed {
					st.BudgetedTests++
				}
				continue
			}
			st.Generated += len(embs)
			out.TIDs.Add(tid)
			out.Embs = append(out.Embs, embs)
			out.Partial.Add(tid)
			out.Overflowed = true
			continue
		}

		out.TIDs.Add(tid)
		if tripped {
			// This transaction's complete enumeration just tripped
			// the budget: keep seeds for it alone and stop complete
			// retention from here on.
			exhausted = true
			if len(buf) > SeedsPerTID {
				buf = buf[:SeedsPerTID]
			}
		}
		out.Embs = append(out.Embs, append([]iso.DenseEmbedding(nil), buf...))
		if storeComplete && !tripped {
			retained += len(buf)
		} else {
			out.Partial.Add(tid)
			out.Overflowed = true
		}
	}
	out.Support = out.TIDs.Len()
	return out, st
}

// EnforceBudget walks patterns in order and demotes complete
// embedding lists to seeds once the cumulative retained count exceeds
// budget (0 = unlimited) — the level-wide memory meter, the embedding
// analogue of FSG's per-level candidate budget. Seed memory
// (SeedsPerTID per supporting transaction) sits outside the meter by
// design, so only complete-list embeddings (a partially retained
// pattern's complete columns included) are counted and demotable. It
// returns the number of complete-list embeddings retained.
func EnforceBudget(pats []Pattern, budget int) int {
	retained := 0
	for i := range pats {
		p := &pats[i]
		n := p.retainedEmbeddings()
		if n == 0 {
			continue
		}
		if budget > 0 && retained+n > budget {
			p.DemoteToSeeds()
			continue
		}
		retained += n
	}
	return retained
}
