// Package pattern is the shared pattern-with-embeddings store of the
// mining layers: a pattern graph coupled with its exact canonical
// code, the TID list of supporting transactions, and the embeddings
// (vertex/edge maps into each transaction) grouped by TID.
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
// transportation-scale data (Section 8). The store therefore keeps
// them compact and meters them. A pattern's embeddings, of every
// transaction, are one stride-packed iso.EmbeddingList (a single
// pointer-free []int32, the layout of Gaston's occurrence lists) plus
// a per-TID offset column, so a pattern costs a few allocations the
// garbage collector never scans, however many embeddings it holds.
// CountOptions.MaxEmbeddings bounds the embeddings a pattern may
// retain, and EnforceBudget bounds a whole level; a pattern over
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
	"slices"
	"sync"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
)

// Pattern couples a pattern graph with its code, support and
// embeddings.
type Pattern struct {
	Graph *graph.Graph
	// Code is the exact canonical code of Graph (iso.Code): equal
	// codes certify isomorphism, so every dedup site keys patterns by
	// plain string equality.
	Code string
	// Support is the number of supporting transactions, TIDs.Len().
	Support int
	// TIDs is the set of supporting transaction indices; positional
	// iteration (TIDs.All) is ascending and aligns with Offsets.
	TIDs TIDSet
	// Embs holds the tracked embeddings of every supporting
	// transaction, stride-packed for Graph and grouped by TID in TIDs
	// order; EmbsAt(i) is the list of the transaction at position i.
	// With Overflowed unset the lists are complete: every embedding
	// of Graph in txns[tid] appears in the tid's list exactly once.
	// With Overflowed set, the lists of the TIDs in Partial are seeds
	// — at most SeedsPerTID true embeddings that warm-start extension
	// counting but cannot prove absence — while the lists of TIDs
	// outside Partial are still complete.
	Embs iso.EmbeddingList
	// Offsets is the per-TID offset column, nil exactly when
	// embeddings are not tracked: TIDs.Len()+1 ascending row indices
	// into Embs, the rows of the transaction at position i of TIDs
	// being [Offsets[i], Offsets[i+1]).
	Offsets []int32
	// Overflowed marks that at least one transaction's complete
	// enumeration exceeded its budget (or that lists were dropped
	// entirely): support data stays valid, and Partial says which
	// per-TID lists are seeds rather than complete.
	Overflowed bool
	// Partial, on an Overflowed pattern with lists, is the subset of
	// TIDs whose lists are seeds-only. A pattern demoted wholesale has
	// Partial == TIDs; a pattern whose budget tripped midway keeps its
	// already-complete prefix outside Partial, so one exploding
	// transaction no longer costs the whole pattern its lists.
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
	return !p.Overflowed && p.Offsets != nil
}

// CompleteAt reports whether the pattern's embedding list for tid is
// a complete enumeration (tid must be a member of TIDs): true for an
// unoverflowed tracked pattern, and true on an overflowed one exactly
// when per-TID retention kept that transaction's list out of Partial.
func (p *Pattern) CompleteAt(tid int) bool {
	if p.Offsets == nil {
		return false
	}
	if !p.Overflowed {
		return true
	}
	return !p.Partial.Contains(tid)
}

// EmbsAt returns the embedding list of the transaction at position i
// of TIDs, sharing Embs' storage. Embeddings must be tracked.
func (p *Pattern) EmbsAt(i int) iso.EmbeddingList {
	return p.Embs.Rows(int(p.Offsets[i]), int(p.Offsets[i+1]))
}

// NumEmbeddings returns the total number of stored embeddings across
// all TIDs.
func (p *Pattern) NumEmbeddings() int { return p.Embs.Len() }

// retainedEmbeddings counts the embeddings held in complete lists —
// the unit the MaxEmbeddings meter budgets. Seeds (the Partial TIDs'
// lists) sit outside the meter by design.
func (p *Pattern) retainedEmbeddings() int {
	if !p.Overflowed {
		return p.NumEmbeddings()
	}
	n := 0
	cur := p.Partial.Cursor()
	for pi, tid := range p.TIDs.All() {
		if !cur.Contains(tid) {
			n += int(p.Offsets[pi+1] - p.Offsets[pi])
		}
	}
	return n
}

// DemoteToSeeds truncates each per-TID list to at most SeedsPerTID
// embeddings and marks the pattern overflowed with every TID partial:
// what remains are warm-start seeds, no longer a complete
// enumeration. The kept rows move into a new exact-size array, so the
// dropped ones are freed.
func (p *Pattern) DemoteToSeeds() {
	p.Overflowed = true
	p.Partial = p.TIDs.Clone()
	n := 0
	for pi := range len(p.Offsets) - 1 {
		n += min(int(p.Offsets[pi+1]-p.Offsets[pi]), SeedsPerTID)
	}
	if n == p.Embs.Len() {
		return
	}
	seeds := p.Embs
	seeds.IDs = make([]int32, 0, n*p.Embs.Stride())
	offs := make([]int32, 1, len(p.Offsets))
	for pi := range len(p.Offsets) - 1 {
		l := p.EmbsAt(pi)
		seeds.IDs = append(seeds.IDs, l.Rows(0, min(l.Len(), SeedsPerTID)).IDs...)
		offs = append(offs, int32(seeds.Len()))
	}
	p.Embs, p.Offsets = seeds, offs
}

// NewSingle returns a Pattern over one implicit transaction (TID 0)
// holding the given instance list — the single-graph (SUBDUE) view of
// the store.
func NewSingle(g *graph.Graph, code string, embs iso.EmbeddingList) *Pattern {
	return &Pattern{
		Graph:   g,
		Code:    code,
		Support: 1,
		TIDs:    NewTIDSet(0),
		Embs:    embs,
		Offsets: []int32{0, int32(embs.Len())},
	}
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
// when it can. Two tiers, degrading gracefully:
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
	// Every transaction's embeddings are appended to one list built in
	// pooled scratch, and its offsets beside it; out keeps exact-size
	// copies of both.
	sc := scratchPool.Get().(*countScratch)
	list := iso.NewEmbeddingList(child)
	list.IDs = sc.ids[:0]
	offs := append(sc.offs[:0], 0)
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
		pembs := parent.EmbsAt(pi)
		parentComplete := !parent.Overflowed || !pcur.Contains(tid)
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
		start := list.Len()
		if lim > 0 {
			lim += start
		}
		tripped := false
		if n := pembs.Len(); n > 0 {
			x := iso.NewExtender(txn, child, newEdge, pembs.NV)
			for i := range n {
				x.Extend(pembs.At(i), lim, &list)
				if lim > 0 && list.Len() >= lim {
					tripped = storeComplete
					break
				}
			}
		}
		found := list.Len() - start
		st.Generated += found

		if found == 0 {
			if parentComplete {
				continue // complete parent lists prove absence
			}
			// Seeds missed: a classic search decides, harvesting the
			// child's seed on success.
			st.IsoTests++
			if matcher == nil {
				matcher = iso.NewMatcher(child)
			}
			completed := matcher.Embeddings(txn, iso.Options{Limit: 1, MaxSteps: opts.MaxSteps}, &list)
			if list.Len() == start {
				if !completed {
					st.BudgetedTests++
				}
				continue
			}
			st.Generated++
			out.TIDs.Add(tid)
			offs = append(offs, int32(list.Len()))
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
			if found > SeedsPerTID {
				list.Truncate(start + SeedsPerTID)
			}
		}
		offs = append(offs, int32(list.Len()))
		if storeComplete && !tripped {
			retained += found
		} else {
			out.Partial.Add(tid)
			out.Overflowed = true
		}
	}
	out.Support = out.TIDs.Len()
	if out.Support > 0 {
		out.Embs = list
		out.Embs.IDs = slices.Clone(list.IDs)
		out.Offsets = slices.Clone(offs)
	}
	sc.ids, sc.offs = list.IDs[:0], offs[:0]
	scratchPool.Put(sc)
	return out, st
}

// countScratch is the buffer pair CountExtension builds a child's
// list and offset column in. Pooling it pays the buffers' growth
// once per worker instead of once per candidate, so a candidate
// allocates about the size of what it keeps.
type countScratch struct {
	ids, offs []int32
}

var scratchPool = sync.Pool{New: func() any { return new(countScratch) }}

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
