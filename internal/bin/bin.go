// Package bin implements the binning (discretisation) strategy of
// Section 3 of the paper: continuous shipment attributes (distance,
// transit hours, gross weight) are divided into a small number of
// ranges so that edges with similar — though not exactly equal —
// values support the same pattern. The paper uses seven bins for
// gross weight and ten for transit hours.
package bin

import (
	"fmt"
	"math"
	"sort"
)

// Binner maps a continuous value to a bin index and an interval label.
type Binner interface {
	// Bin returns the zero-based bin index for v.
	Bin(v float64) int
	// Label returns the interval label of the given bin, in the
	// "[lo, hi]" style used by the paper's Figure 4.
	Label(bin int) string
	// NumBins returns the number of bins.
	NumBins() int
}

// LabelOf is a convenience that bins v and returns its interval label.
func LabelOf(b Binner, v float64) string { return b.Label(b.Bin(v)) }

// EqualWidth divides [Lo, Hi] into N equal-width bins. Values below
// Lo map to bin 0 and values at or above Hi map to bin N-1, so every
// value has a bin.
type EqualWidth struct {
	Lo, Hi float64
	N      int
}

// NewEqualWidth returns an equal-width binner over [lo, hi] with n
// bins. It panics if n < 1 or hi <= lo.
func NewEqualWidth(lo, hi float64, n int) EqualWidth {
	if n < 1 {
		panic("bin: NewEqualWidth with n < 1")
	}
	if hi <= lo {
		panic("bin: NewEqualWidth with hi <= lo")
	}
	return EqualWidth{Lo: lo, Hi: hi, N: n}
}

// Bin implements Binner.
func (b EqualWidth) Bin(v float64) int {
	if v <= b.Lo {
		return 0
	}
	if v >= b.Hi {
		return b.N - 1
	}
	w := (b.Hi - b.Lo) / float64(b.N)
	idx := int((v - b.Lo) / w)
	if idx >= b.N {
		idx = b.N - 1
	}
	return idx
}

// Label implements Binner.
func (b EqualWidth) Label(bin int) string {
	w := (b.Hi - b.Lo) / float64(b.N)
	lo := b.Lo + float64(bin)*w
	hi := lo + w
	return interval(lo, hi)
}

// NumBins implements Binner.
func (b EqualWidth) NumBins() int { return b.N }

// Boundaries is a binner over explicit ascending cut points. A value
// v falls in bin i when Cuts[i] <= v < Cuts[i+1]; values below the
// first cut go to bin 0 and values at or beyond the last cut go to
// the last bin.
type Boundaries struct {
	Cuts []float64 // ascending; len(Cuts) >= 2; defines len(Cuts)-1 bins
}

// Bin implements Binner.
func (b Boundaries) Bin(v float64) int {
	n := len(b.Cuts) - 1
	if v < b.Cuts[0] {
		return 0
	}
	idx := sort.SearchFloat64s(b.Cuts, v)
	// SearchFloat64s returns the first i with Cuts[i] >= v.
	if idx < len(b.Cuts) && b.Cuts[idx] == v {
		// v is exactly on a cut: it belongs to the bin starting there.
		if idx >= n {
			return n - 1
		}
		return idx
	}
	idx--
	if idx >= n {
		return n - 1
	}
	return idx
}

// Label implements Binner.
func (b Boundaries) Label(bin int) string {
	return interval(b.Cuts[bin], b.Cuts[bin+1])
}

// NumBins implements Binner.
func (b Boundaries) NumBins() int { return len(b.Cuts) - 1 }

// EqualFrequency builds a Boundaries binner whose cuts place roughly
// equal numbers of the given sample values into each of n bins.
// Duplicate cut points (from heavily repeated values) are collapsed,
// so the result may have fewer than n bins.
func EqualFrequency(values []float64, n int) Boundaries {
	if n < 1 {
		panic("bin: EqualFrequency with n < 1")
	}
	if len(values) == 0 {
		panic("bin: EqualFrequency with no values")
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	cuts := []float64{sorted[0]}
	for i := 1; i < n; i++ {
		v := sorted[i*len(sorted)/n]
		if v > cuts[len(cuts)-1] {
			cuts = append(cuts, v)
		}
	}
	last := sorted[len(sorted)-1]
	if last > cuts[len(cuts)-1] {
		cuts = append(cuts, last+math.Nextafter(0, 1))
	} else {
		cuts = append(cuts, cuts[len(cuts)-1]+1)
	}
	return Boundaries{Cuts: cuts}
}

// interval formats a half-open interval label. Whole numbers render
// without decimals to match the paper's "[0, 6500]" style.
func interval(lo, hi float64) string {
	return fmt.Sprintf("[%s, %s)", num(lo), num(hi))
}

func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}
