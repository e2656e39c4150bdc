package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantiles are the percentiles a tail may be reported at, highest
// first. The rule takes the highest one with at least minBeyond
// samples above it, so a tail is never a single outlier.
var tailQuantiles = []float64{0.99, 0.95, 0.90}

const minBeyond = 10

// tailQuantile returns the highest of tailQuantiles that leaves at
// least minBeyond of n samples beyond it, or 1 (the maximum) when even
// p90 is unsupported.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if n-rank(q, n) >= minBeyond {
			return q
		}
	}
	return 1
}

// rank is the 1-based nearest rank of quantile q among n samples,
// ceil(q·n), immune to q·n landing a rounding error above an integer.
func rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// quantile is the nearest-rank quantile of sorted: the smallest value
// with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle sample (mean of the two middle ones for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail applies the tail rule to xs.
func tail(xs []float64) float64 {
	return quantile(sorted(xs), tailQuantile(len(xs)))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (method "exclusive") computes them, the
// spread rule the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// ms is a duration in (fractional) milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
