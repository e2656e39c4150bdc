package core

import (
	"path/filepath"
	"reflect"
	"testing"

	"tnkd/internal/dataset"
	"tnkd/internal/partition"
	"tnkd/internal/store"
)

// TestMineTemporalPersistsStore: the store written by a
// StorePath-enabled temporal run reproduces the in-memory mining
// result exactly — transactions, level structure, and every pattern
// record with TIDs and embeddings.
func TestMineTemporalPersistsStore(t *testing.T) {
	d := smallData(t)
	opts := DefaultTemporalMineOptions()
	opts.Partition.MaxVertexLabels = 40
	opts.StorePath = filepath.Join(t.TempDir(), "temporal.tnd")
	res, err := MineTemporal(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mining.Patterns) == 0 {
		t.Fatal("no frequent patterns at this configuration; store test vacuous")
	}
	r, err := store.Open(opts.StorePath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Meta().Kind != "temporal" || r.Meta().MinSupport != res.Support {
		t.Fatalf("meta %+v does not record the run", r.Meta())
	}
	if r.NumTransactions() != len(res.Partition.Transactions) {
		t.Fatalf("store has %d transactions, run produced %d",
			r.NumTransactions(), len(res.Partition.Transactions))
	}
	for tid, want := range res.Partition.Transactions {
		got, err := r.Transaction(tid)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dump() != want.Dump() {
			t.Fatalf("transaction %d diverged", tid)
		}
	}
	if r.NumPatterns() != len(res.Mining.Patterns) {
		t.Fatalf("store has %d patterns, run mined %d", r.NumPatterns(), len(res.Mining.Patterns))
	}
	for i := range res.Mining.Patterns {
		want := &res.Mining.Patterns[i]
		got, err := r.Pattern(i)
		if err != nil {
			t.Fatal(err)
		}
		if got.Code != want.Code || got.Support != want.Support ||
			!reflect.DeepEqual(got.TIDs, want.TIDs) ||
			got.Graph.Dump() != want.Graph.Dump() ||
			got.NumEmbeddings() != want.NumEmbeddings() {
			t.Fatalf("record %d diverged from mined pattern", i)
		}
	}
}

// TestMineStructuralPersistsStore: an Algorithm 1 run's store holds
// every repetition's partitioning (concatenated) and every per-run
// pattern with TIDs shifted into the concatenated transaction space.
func TestMineStructuralPersistsStore(t *testing.T) {
	d := smallData(t)
	g := d.BuildGraph(dataset.GraphOptions{Attr: dataset.TransitHours, Vertices: dataset.UniformLabels})
	path := filepath.Join(t.TempDir(), "structural.tnd")
	res, err := MineStructural(g, StructuralOptions{
		Strategy:    partition.BreadthFirst,
		Partitions:  16,
		Repetitions: 2,
		Support:     5,
		MaxEdges:    3,
		MaxSteps:    100000,
		Seed:        1,
		StorePath:   path,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	wantTxns, total := 0, 0
	for _, n := range res.PartitionCounts {
		wantTxns += n
	}
	for _, run := range res.PerRun {
		total += len(run.Patterns)
	}
	if r.NumTransactions() != wantTxns {
		t.Fatalf("store has %d transactions, partitionings total %d", r.NumTransactions(), wantTxns)
	}
	if r.NumPatterns() != total {
		t.Fatalf("store has %d records, runs produced %d", r.NumPatterns(), total)
	}

	// Every per-run pattern appears with its TIDs shifted by the
	// repetition's offset, graph intact.
	offset := 0
	for rep, run := range res.PerRun {
		for i := range run.Patterns {
			want := &run.Patterns[i]
			found := false
			for _, ri := range r.FindByCode(want.Code) {
				got, err := r.Pattern(ri)
				if err != nil {
					t.Fatal(err)
				}
				if got.Graph.Dump() != want.Graph.Dump() {
					continue
				}
				if got.TIDs.Equal(want.TIDs.Offset(offset)) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("rep %d pattern %q not found with offset-%d TIDs", rep, want.Code, offset)
			}
		}
		offset += res.PartitionCounts[rep]
	}

	// The union's per-code max support is recoverable from the store.
	for _, sp := range res.Patterns {
		maxSupport := 0
		for _, ri := range r.FindByCode(sp.Code) {
			maxSupport = max(maxSupport, r.Info(ri).Support)
		}
		if maxSupport != sp.Support {
			t.Fatalf("pattern %q: store max support %d, union support %d", sp.Code, maxSupport, sp.Support)
		}
	}
}
