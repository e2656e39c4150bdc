package fsg

import (
	"errors"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"tnkd/internal/store"
)

// TestCheckpointStreamsLevelsToStore mines with a store-backed
// Checkpoint and asserts the persisted file reproduces the in-memory
// result exactly: same level structure, and per record the same
// graph, code, support, TID list, embeddings and overflow flag. This
// is the mined-output half of the store round-trip property (the
// randomised half lives in internal/store); it runs once with
// complete embedding lists and once with a budget of 1, so overflowed
// patterns and seed lists cross the disk boundary.
func TestCheckpointStreamsLevelsToStore(t *testing.T) {
	txns := motifTxns(24, 7)
	for _, budget := range []int{0, 1} {
		path := filepath.Join(t.TempDir(), "mined.tnd")
		w, err := store.Create(path, store.Meta{Name: "motif", Kind: "fsg", MinSupport: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteTransactions(txns); err != nil {
			t.Fatal(err)
		}
		levels := 0
		res, err := Mine(txns, Options{
			MinSupport:    4,
			MaxEdges:      4,
			MaxEmbeddings: budget,
			Checkpoint: func(lv LevelStats, pats []Pattern) error {
				levels++
				return w.WriteLevel(lv.Edges, pats)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if levels == 0 || len(res.Patterns) == 0 {
			t.Fatalf("budget %d: vacuous run (%d levels, %d patterns)", budget, levels, len(res.Patterns))
		}

		r, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumPatterns() != len(res.Patterns) {
			t.Fatalf("budget %d: store has %d patterns, mining produced %d",
				budget, r.NumPatterns(), len(res.Patterns))
		}
		if r.NumTransactions() != len(txns) {
			t.Fatalf("budget %d: store has %d transactions, want %d", budget, r.NumTransactions(), len(txns))
		}
		if got := len(r.Levels()); got != levels {
			t.Fatalf("budget %d: store has %d levels, checkpoint saw %d", budget, got, levels)
		}
		// res.Patterns is level-ordered, exactly the order records
		// were streamed in.
		for i := range res.Patterns {
			want := &res.Patterns[i]
			got, err := r.Pattern(i)
			if err != nil {
				t.Fatal(err)
			}
			if got.Code != want.Code || got.Support != want.Support ||
				got.Overflowed != want.Overflowed ||
				!reflect.DeepEqual(got.TIDs, want.TIDs) ||
				got.Graph.Dump() != want.Graph.Dump() {
				t.Fatalf("budget %d: record %d diverged from mined pattern:\nstore: %+v\nmined: %+v",
					budget, i, got, want)
			}
			if !slices.Equal(got.Offsets, want.Offsets) || got.Embs.NV != want.Embs.NV ||
				got.Embs.NE != want.Embs.NE || !slices.Equal(got.Embs.IDs, want.Embs.IDs) {
				t.Fatalf("budget %d: record %d embeddings diverged (store %d, mined %d)",
					budget, i, got.NumEmbeddings(), want.NumEmbeddings())
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointErrorAbortsMine: a failing checkpoint must abort the
// run and surface through Mine's error.
func TestCheckpointErrorAbortsMine(t *testing.T) {
	txns := motifTxns(12, 3)
	boom := errors.New("disk full")
	_, err := Mine(txns, Options{
		MinSupport: 3,
		MaxEdges:   3,
		Checkpoint: func(LevelStats, []Pattern) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want checkpoint error, got %v", err)
	}
}
