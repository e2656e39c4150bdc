package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"tnkd/internal/dataset"
	"tnkd/internal/fsg"
	"tnkd/internal/partition"
	"tnkd/internal/store"
)

func renderFSG(r *fsg.Result) string {
	var b strings.Builder
	for i := range r.Patterns {
		p := &r.Patterns[i]
		fmt.Fprintf(&b, "%d edges=%d code=%q support=%d tids=%v\n",
			i, p.Graph.NumEdges(), p.Code, p.Support, p.TIDs)
	}
	return b.String()
}

func dumpStore(t *testing.T, path string) string {
	t.Helper()
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s, err := store.DumpPatterns(r)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// temporalOpts is the shared configuration of the temporal delta
// tests; MaxDays, StorePath and DeltaFrom vary per run.
func temporalOpts() TemporalMineOptions {
	opts := DefaultTemporalMineOptions()
	opts.Partition.MaxVertexLabels = 40
	return opts
}

// TestMineTemporalDeltaMatchesFullMine mines a day-prefix of the
// dataset to a store, then every day with DeltaFrom naming it, and
// requires the result — in memory and on disk — to be identical to a
// one-shot mine of every day, with delta provenance recorded.
func TestMineTemporalDeltaMatchesFullMine(t *testing.T) {
	d := smallData(t)
	dir := t.TempDir()

	fullOpts := temporalOpts()
	fullOpts.StorePath = filepath.Join(dir, "full.tnd")
	full, err := MineTemporal(d, fullOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Mining.Patterns) == 0 {
		t.Fatal("no frequent patterns at this configuration; delta test vacuous")
	}

	// Pick a day prefix that holds some but not all transactions.
	total := len(full.Partition.Transactions)
	days := full.Partition.DaysTotal
	prefixDays := 0
	for k := days / 2; k < days; k++ {
		popts := fullOpts.Partition
		popts.MaxDays = k
		n := len(partition.Temporal(d, popts).Transactions)
		if n > 0 && n < total {
			prefixDays = k
			break
		}
	}
	if prefixDays == 0 {
		t.Fatalf("no day prefix splits the %d transactions; fixture too small", total)
	}

	baseOpts := temporalOpts()
	baseOpts.Partition.MaxDays = prefixDays
	baseOpts.StorePath = filepath.Join(dir, "base.tnd")
	if _, err := MineTemporal(d, baseOpts); err != nil {
		t.Fatal(err)
	}

	deltaOpts := temporalOpts()
	deltaOpts.DeltaFrom = baseOpts.StorePath
	deltaOpts.StorePath = filepath.Join(dir, "delta.tnd")
	delta, err := MineTemporal(d, deltaOpts)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := renderFSG(delta.Mining), renderFSG(full.Mining); got != want {
		t.Fatalf("delta mining diverged from full mine\n--- full ---\n%s--- delta ---\n%s", want, got)
	}
	if delta.Support != full.Support {
		t.Fatalf("support %d vs %d", delta.Support, full.Support)
	}
	if got, want := dumpStore(t, deltaOpts.StorePath), dumpStore(t, fullOpts.StorePath); got != want {
		t.Fatalf("delta store diverged from full store\n--- full ---\n%s--- delta ---\n%s", want, got)
	}
	r, err := store.Open(deltaOpts.StorePath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if m := r.Meta(); m.Parent != baseOpts.StorePath || m.Generation != 1 {
		t.Fatalf("delta provenance not recorded: %+v", m)
	}
}

// TestMineTemporalDeltaErrors pins the guard rails: structural
// sources, self-overwrites and non-prefix sources all fail with a
// diagnostic instead of mining garbage.
func TestMineTemporalDeltaErrors(t *testing.T) {
	d := smallData(t)
	dir := t.TempDir()

	g := d.BuildGraph(dataset.GraphOptions{Attr: dataset.TransitHours, Vertices: dataset.UniformLabels})
	structPath := filepath.Join(dir, "struct.tnd")
	if _, err := MineStructural(g, StructuralOptions{
		Strategy: partition.BreadthFirst, Partitions: 8, Repetitions: 1,
		Support: 5, MaxEdges: 2, Seed: 1, StorePath: structPath,
	}); err != nil {
		t.Fatal(err)
	}
	opts := temporalOpts()
	opts.DeltaFrom = structPath
	if _, err := MineTemporal(d, opts); err == nil || !strings.Contains(err.Error(), "Algorithm 1") {
		t.Fatalf("structural source accepted: %v", err)
	}

	basePath := filepath.Join(dir, "base.tnd")
	baseOpts := temporalOpts()
	baseOpts.StorePath = basePath
	if _, err := MineTemporal(d, baseOpts); err != nil {
		t.Fatal(err)
	}
	opts = temporalOpts()
	opts.DeltaFrom = basePath
	opts.StorePath = basePath
	if _, err := MineTemporal(d, opts); err == nil || !strings.Contains(err.Error(), "same file") {
		t.Fatalf("self-overwrite accepted: %v", err)
	}

	// A differently filtered partition is not an extension of the
	// stored one.
	opts = temporalOpts()
	opts.Partition.MaxVertexLabels = 20
	opts.DeltaFrom = basePath
	if _, err := MineTemporal(d, opts); err == nil || !strings.Contains(err.Error(), "delta source mismatch") {
		t.Fatalf("non-prefix source accepted: %v", err)
	}
}
