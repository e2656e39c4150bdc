package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"tnkd/internal/dataset"
	"tnkd/internal/partition"
)

func renderStructural(r *StructuralResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "partitionCounts=%v\n", r.PartitionCounts)
	for i := range r.Patterns {
		p := &r.Patterns[i]
		fmt.Fprintf(&b, "pattern %d code=%q support=%d runs=%d\n%s",
			i, p.Code, p.Support, p.Runs, p.Graph.Dump())
	}
	for _, run := range r.PerRun {
		fmt.Fprintf(&b, "run patterns=%d aborted=%v budgeted=%d\n",
			len(run.Patterns), run.Aborted, run.BudgetedTests)
	}
	return b.String()
}

func renderTemporal(r *TemporalMineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "txns=%d daysTotal=%d dup=%d single=%d filtered=%d support=%d\n",
		len(r.Partition.Transactions), r.Partition.DaysTotal,
		r.Partition.DuplicateEdgesDropped, r.Partition.SingleEdgeDropped,
		r.Partition.FilteredByVertexLabels, r.Support)
	b.WriteString(r.Stats.String())
	for i := range r.Mining.Patterns {
		p := &r.Mining.Patterns[i]
		fmt.Fprintf(&b, "pattern %d code=%q support=%d tids=%v\n%s",
			i, p.Code, p.Support, p.TIDs, p.Graph.Dump())
	}
	return b.String()
}

// TestMineStructuralDeterministicAcrossParallelism asserts that
// Algorithm 1 produces bit-identical output at Parallelism 1, 4 and
// GOMAXPROCS (the m repetitions and their support counting both fan
// out on the engine pool).
func TestMineStructuralDeterministicAcrossParallelism(t *testing.T) {
	data := dataset.Generate(dataset.DefaultConfig().Scaled(0.02))
	g := data.BuildGraph(dataset.GraphOptions{
		Attr: dataset.TransitHours, Vertices: dataset.UniformLabels,
	})
	var want string
	for _, p := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		res, err := MineStructural(g, StructuralOptions{
			Strategy:    partition.BreadthFirst,
			Partitions:  12,
			Repetitions: 3,
			Support:     4,
			MaxEdges:    3,
			MaxSteps:    50000,
			Seed:        11,
			Parallelism: p,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		got := renderStructural(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("parallelism %d diverged from serial result:\n--- serial ---\n%s\n--- p=%d ---\n%s",
				p, want, p, got)
		}
	}
}

// TestMineTemporalDeterministicAcrossParallelism asserts the Section
// 6 pipeline (parallel per-day batch construction + parallel support
// counting) is bit-identical at every Parallelism.
func TestMineTemporalDeterministicAcrossParallelism(t *testing.T) {
	data := dataset.Generate(dataset.DefaultConfig().Scaled(0.02))
	opts := DefaultTemporalMineOptions()
	opts.Partition.MaxVertexLabels = 12
	var want string
	for _, p := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		opts.Partition.Parallelism = p
		res, err := MineTemporal(data, opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		got := renderTemporal(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("parallelism %d diverged from serial result:\n--- serial ---\n%s\n--- p=%d ---\n%s",
				p, want, p, got)
		}
	}
}
