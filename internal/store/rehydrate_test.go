package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/pattern"
)

// TestRehydrationRoundTrip writes a randomised store and reads it
// back through the bulk rehydration path delta mining uses —
// Transactions, LevelPatterns, AllLevelPatterns — asserting
// element-for-element equality with what was written.
func TestRehydrationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	txns := []*graph.Graph{randGraph(rng, "t0"), randGraph(rng, "t1"), randGraph(rng, "t2")}
	levels := map[int][]pattern.Pattern{
		1: {randPattern(rng, 1, txns), randPattern(rng, 1, txns)},
		2: {randPattern(rng, 2, txns)},
	}
	path := tmpStore(t)
	writeStore(t, path, Meta{Name: "rehydrate", Kind: "fsg"}, txns, levels)

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	gotTxns, err := r.Transactions()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTxns) != len(txns) {
		t.Fatalf("rehydrated %d transactions, wrote %d", len(gotTxns), len(txns))
	}
	for i := range txns {
		sameGraphBytes(t, txns[i], gotTxns[i])
	}
	all, err := r.AllLevelPatterns()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(levels) {
		t.Fatalf("rehydrated %d levels, wrote %d", len(all), len(levels))
	}
	for edges, want := range levels {
		got, err := r.LevelPatterns(edges)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("level %d: rehydrated %d patterns, wrote %d", edges, len(got), len(want))
		}
		for i := range want {
			samePattern(t, &want[i], &got[i])
			samePattern(t, &all[edges][i], &got[i])
		}
	}
	if got, err := r.LevelPatterns(99); err != nil || len(got) != 0 {
		t.Fatalf("absent level: %v patterns, err %v", got, err)
	}
}

// TestVerifyPrefix pins the delta pre-condition check: the stored
// transactions must be an exact byte prefix of the supplied list.
func TestVerifyPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	txns := []*graph.Graph{randGraph(rng, "a"), randGraph(rng, "b"), randGraph(rng, "c")}
	path := tmpStore(t)
	writeStore(t, path, Meta{Kind: "fsg"}, txns[:2], nil)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := r.VerifyPrefix(txns); err != nil {
		t.Fatalf("true prefix rejected: %v", err)
	}
	if err := r.VerifyPrefix(txns[:2]); err != nil {
		t.Fatalf("exact match rejected: %v", err)
	}
	if err := r.VerifyPrefix(txns[:1]); err == nil || !strings.Contains(err.Error(), "must extend") {
		t.Fatalf("shorter list accepted: %v", err)
	}
	reordered := []*graph.Graph{txns[1], txns[0], txns[2]}
	if err := r.VerifyPrefix(reordered); err == nil || !strings.Contains(err.Error(), "not a prefix") {
		t.Fatalf("reordered list accepted: %v", err)
	}
}

// TestMetaProvenanceRoundTrip checks the delta/Algorithm 1 metadata
// extension survives the JSON index and renders in the stats report —
// and that a store written without it reads back as generation 0.
func TestMetaProvenanceRoundTrip(t *testing.T) {
	path := tmpStore(t)
	meta := Meta{
		Name: "prov", Kind: "structural", MinSupport: 3,
		Parent: "/some/parent.tnd", Generation: 2,
		Repetitions: 4, Partitions: 80, Seed: 17, Strategy: "BF",
	}
	writeStore(t, path, meta, []*graph.Graph{graph.New("t")}, nil)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Meta()
	if got.Parent != meta.Parent || got.Generation != meta.Generation ||
		got.Repetitions != meta.Repetitions || got.Partitions != meta.Partitions ||
		got.Seed != meta.Seed || got.Strategy != meta.Strategy {
		t.Fatalf("provenance mangled: %+v", got)
	}
	report := ReadStats(r).String()
	for _, want := range []string{"generation=2", "parent=/some/parent.tnd", "repetitions=4", "strategy=BF"} {
		if !strings.Contains(report, want) {
			t.Fatalf("stats report lacks %q:\n%s", want, report)
		}
	}

	plain := tmpStore(t)
	writeStore(t, plain, Meta{Kind: "fsg"}, []*graph.Graph{graph.New("t")}, nil)
	pr, err := Open(plain)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if m := pr.Meta(); m.Parent != "" || m.Generation != 0 || m.Repetitions != 0 {
		t.Fatalf("full-mine store grew provenance: %+v", m)
	}
}

// TestDumpPatternsEquivalence pins the dump as an equality oracle:
// two stores with the same mined content dump identically regardless
// of metadata, and any support/TID difference shows.
func TestDumpPatternsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	txns := []*graph.Graph{randGraph(rng, "a"), randGraph(rng, "b")}
	levels := map[int][]pattern.Pattern{1: {randPattern(rng, 1, txns)}}

	dump := func(meta Meta, lv map[int][]pattern.Pattern) string {
		path := filepath.Join(t.TempDir(), "d.tnd")
		writeStore(t, path, meta, txns, lv)
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		s, err := DumpPatterns(r)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	a := dump(Meta{Name: "x", Kind: "fsg"}, levels)
	b := dump(Meta{Name: "y", Kind: "temporal", Parent: "p", Generation: 3, CreatedUnix: 1}, levels)
	if a != b {
		t.Fatalf("metadata leaked into the dump:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, fmt.Sprintf("support=%d", levels[1][0].Support)) {
		t.Fatalf("dump lacks support: %s", a)
	}
	changed := map[int][]pattern.Pattern{1: {levels[1][0]}}
	changed[1][0].Support++
	changed[1][0].TIDs = changed[1][0].TIDs.Clone()
	if c := dump(Meta{Kind: "fsg"}, changed); c == a {
		t.Fatal("support change did not change the dump")
	}
}
