package pattern

import (
	"math/rand"
	"testing"
)

// intersectSortedTIDs is a plain sorted-[]int merge, the benchmark
// baseline.
func intersectSortedTIDs(a, b []int) []int {
	out := make([]int, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// benchSets draws two random TID sets of the given density over the
// universe. density 0.5 models the hot fsg case (high-support
// patterns); density 0.01 models sparse low-support columns. The 2k
// universe covers the benchmark workloads' largest transaction count
// (1,714); the 128k universe is far past any workload.
func benchSets(universe int, density float64) (a, b []int) {
	rng := rand.New(rand.NewSource(1902))
	for v := 0; v < universe; v++ {
		if rng.Float64() < density {
			a = append(a, v)
		}
		if rng.Float64() < density {
			b = append(b, v)
		}
	}
	return a, b
}

func BenchmarkTIDIntersect(b *testing.B) {
	cases := []struct {
		name     string
		universe int
		density  float64
	}{
		{"dense50pct-2k", 2048, 0.50},
		{"mid10pct-2k", 2048, 0.10},
		{"sparse1pct-2k", 2048, 0.01},
		{"dense50pct-128k", 1 << 17, 0.50},
		{"mid10pct-128k", 1 << 17, 0.10},
		{"sparse1pct-128k", 1 << 17, 0.01},
	}
	for _, c := range cases {
		la, lb := benchSets(c.universe, c.density)
		sa, sb := TIDSetFromSlice(la), TIDSetFromSlice(lb)
		b.Run(c.name+"/sorted-slice", func(b *testing.B) {
			b.ReportMetric(float64(len(la)), "members")
			for i := 0; i < b.N; i++ {
				sink = len(intersectSortedTIDs(la, lb))
			}
		})
		b.Run(c.name+"/tidset-and", func(b *testing.B) {
			b.ReportMetric(float64(sa.Len()), "members")
			for i := 0; i < b.N; i++ {
				got := sa.And(sb)
				sink = got.Len()
			}
		})
		b.Run(c.name+"/tidset-andcard", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = sa.AndCard(sb)
			}
		})
	}
}

var sink int
