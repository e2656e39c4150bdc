package fsg

// Incremental delta mining: fold appended transactions into a
// previous run's frequent-pattern set instead of re-mining from
// scratch.
//
// A full level-wise mine is candidate-first: every level's candidates
// are generated, then counted over every transaction. MineDelta
// inverts that for the transactions the previous run already covered.
// Each level is seeded from the persisted patterns: a candidate whose
// exact canonical code matches a stored pattern inherits the stored
// TID column verbatim (support over the old transactions cannot
// change — supports are monotone under appending transactions) and
// pays only for extending its parent's embeddings over the appended
// TIDs. Only candidates absent from the store — sub-threshold before
// the append, now possibly frequent ("promotions") — are counted over
// the full transaction set, through their parent's rehydrated
// embedding lists, so even the promotion work runs on the incremental
// counter rather than raw isomorphism search.
//
// Level 1 is the one deliberate rescan: single-edge support is a
// linear pass over every edge, and only a rescan can surface triples
// that were sub-threshold in the previous run. Everything above level
// 1 touches old transactions only for promotions.
//
// The result is pattern-for-pattern identical (codes, supports, TID
// lists) to mining the combined transaction set in one shot, provided
// the previous run was itself exact (Result.BudgetedTests == 0 — true
// of every stock configuration; a run whose isomorphism searches were
// cut off by MaxSteps may have under-counted, and MineDelta inherits
// whatever the store says). Embedding lists are equivalent but not
// bit-identical: reused columns keep the stored enumeration order,
// and budget demotions can differ at the margin, which affects only
// how much later levels re-search, never which patterns they find.

import (
	"errors"
	"fmt"

	"tnkd/internal/graph"
	"tnkd/internal/pattern"
)

// ErrDeltaPrior reports a Prior that cannot seed a delta fold:
// patterns filed under the wrong level, or duplicate codes within a
// level. It marks the *prior* (the persisted
// run being folded into) as unusable, never the appended
// transactions — callers like the ingest daemon use it to distinguish
// "my store is bad" from "this batch is bad" when deciding whether to
// retry, quarantine, or halt.
var ErrDeltaPrior = errors.New("fsg: invalid delta prior")

// Prior is the rehydrated state of a previous mining run that
// MineDelta folds new transactions into — typically read back from an
// internal/store file (store.Reader.Transactions and LevelPatterns).
type Prior struct {
	// Txns is the previous run's transaction set in stored order. The
	// delta run mines the concatenation Txns ++ added, so persisted
	// TID lists stay valid verbatim and appended transactions take
	// TIDs len(Txns)...
	Txns []*graph.Graph
	// Levels holds the previous run's frequent patterns grouped by
	// edge count: exact canonical codes, ascending TID lists into
	// Txns, embedding lists as persisted (complete, seeds, or absent).
	Levels map[int][]Pattern
	// MinSupport is the previous run's support threshold (store
	// Meta.MinSupport). When known, and the delta run's threshold is
	// no lower, level 1 goes incremental too: stored single-edge
	// columns are reused and only the appended transactions are
	// scanned in full (old transactions are re-read just for the
	// triples the append introduced). 0 = unknown, which keeps the
	// level-1 full rescan — still exact, just linear in the old data.
	MinSupport int
	// Generation is the parent run's delta generation (store
	// Meta.Generation; 0 for a full mine). Informational: it is only
	// used to label fold-provenance logs, never to steer the mine.
	Generation int
}

// MineDelta mines the transaction set Prior.Txns ++ added, reusing
// the previous run's persisted support columns so that old
// transactions are re-examined only where the append could change the
// outcome. The returned Result is the full result over the combined
// set — codes, supports and TID lists identical to Mine on the
// concatenation with the same Options — with LevelStats.Reused and
// LevelStats.Promoted metering how much of each level came from the
// store versus fresh counting. opts applies to the delta run;
// MinSupport may differ from the previous run's (a higher threshold
// drops stored patterns that no longer qualify, a lower one promotes
// aggressively — both stay exact, the store only ever accelerates).
//
// Prior patterns must carry exact canonical codes (every store does)
// and at most one pattern per code per level (true of every single-run store; Algorithm 1
// stores keep one record per repetition and are not delta inputs).
func MineDelta(prior Prior, added []*graph.Graph, opts Options) (*Result, error) {
	opts, err := normalizeOptions(opts)
	if err != nil {
		return nil, err
	}
	byLevel, err := validatePrior(prior)
	if err != nil {
		return nil, err
	}
	all := make([]*graph.Graph, 0, len(prior.Txns)+len(added))
	all = append(all, prior.Txns...)
	all = append(all, added...)
	if l := opts.Logger; l != nil {
		l.Info("delta fold start",
			"generation", prior.Generation+1,
			"parent_generation", prior.Generation,
			"prior_txns", len(prior.Txns),
			"appended_txns", len(added),
			"appended_tids", fmt.Sprintf("%d..%d", len(prior.Txns), len(all)-1),
			"prior_min_support", prior.MinSupport,
			"min_support", opts.MinSupport,
		)
	}
	m := &miner{
		txns:            all,
		opts:            opts,
		res:             &Result{},
		prior:           byLevel,
		newStart:        len(prior.Txns),
		priorMinSupport: prior.MinSupport,
	}
	if err := m.run(); err != nil {
		return nil, err
	}
	if l := opts.Logger; l != nil {
		var reused, promoted int
		for _, lv := range m.res.Levels {
			reused += lv.Reused
			promoted += lv.Promoted
		}
		l.Info("delta fold done",
			"generation", prior.Generation+1,
			"levels", len(m.res.Levels),
			"patterns", len(m.res.Patterns),
			"reused", reused,
			"promoted", promoted,
			"aborted", m.res.Aborted,
		)
	}
	return m.res, nil
}

// validatePrior checks the structural preconditions every incremental
// run (MineDelta, RetireDelta) shares — patterns filed under their
// own edge count, at most one pattern per code per level — and
// returns the prior indexed by level and code.
// Violations wrap ErrDeltaPrior: the persisted run is unusable, not
// the incoming change.
func validatePrior(prior Prior) (map[int]map[string]*Pattern, error) {
	byLevel := make(map[int]map[string]*Pattern, len(prior.Levels))
	for edges, pats := range prior.Levels {
		lvl := make(map[string]*Pattern, len(pats))
		for i := range pats {
			p := &pats[i]
			if p.Graph == nil || p.Graph.NumEdges() != edges {
				return nil, fmt.Errorf("%w: pattern %q filed under level %d has %d edges", ErrDeltaPrior, p.Code, edges, p.Graph.NumEdges())
			}
			if _, dup := lvl[p.Code]; dup {
				return nil, fmt.Errorf("%w: two level-%d patterns with code %q — not a single-run store", ErrDeltaPrior, edges, p.Code)
			}
			lvl[p.Code] = p
		}
		byLevel[edges] = lvl
	}
	return byLevel, nil
}

// priorAt returns the parent run's pattern with the given exact code
// at the given level, or nil outside delta mode / on a miss.
func (m *miner) priorAt(edges int, code string) *Pattern {
	if m.prior == nil {
		return nil
	}
	return m.prior[edges][code]
}

// deltaFilter restricts a candidate TID filter to the appended
// transactions — the only TIDs a store-reused candidate still has to
// count. On bitset columns this trims whole containers below
// newStart's chunk in one step.
func (m *miner) deltaFilter(filter pattern.TIDSet) pattern.TIDSet {
	return filter.TrimBelow(m.newStart)
}
