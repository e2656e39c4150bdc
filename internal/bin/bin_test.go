package bin

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEqualWidthBasic(t *testing.T) {
	b := NewEqualWidth(0, 45500, 7) // the paper's weight binning
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {6499, 0}, {6500, 1}, {13000, 2}, {19499, 2},
		{45499, 6}, {45500, 6}, {1e6, 6}, {-5, 0},
	}
	for _, c := range cases {
		if got := b.Bin(c.v); got != c.want {
			t.Errorf("Bin(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if b.NumBins() != 7 {
		t.Errorf("NumBins = %d", b.NumBins())
	}
	if got := b.Label(0); got != "[0, 6500)" {
		t.Errorf("Label(0) = %q", got)
	}
	if got := b.Label(2); got != "[13000, 19500)" {
		t.Errorf("Label(2) = %q (the Figure 4 interval)", got)
	}
}

func TestEqualWidthPropertyInRange(t *testing.T) {
	b := NewEqualWidth(0, 100, 10)
	f := func(v float64) bool {
		idx := b.Bin(v)
		return idx >= 0 && idx < 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualWidthMonotone(t *testing.T) {
	b := NewEqualWidth(-50, 50, 9)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		x := rng.Float64()*200 - 100
		y := x + rng.Float64()*10
		if b.Bin(x) > b.Bin(y) {
			t.Fatalf("binning not monotone: Bin(%v)=%d > Bin(%v)=%d", x, b.Bin(x), y, b.Bin(y))
		}
	}
}

func TestBoundaries(t *testing.T) {
	b := Boundaries{Cuts: []float64{0, 10, 100, 1000}}
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0}, {0, 0}, {9.99, 0}, {10, 1}, {99, 1}, {100, 2}, {999, 2}, {1000, 2}, {5000, 2},
	}
	for _, c := range cases {
		if got := b.Bin(c.v); got != c.want {
			t.Errorf("Bin(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if got := b.Label(1); got != "[10, 100)" {
		t.Errorf("Label(1) = %q", got)
	}
}

func TestEqualFrequency(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i)
	}
	b := EqualFrequency(values, 4)
	counts := make([]int, b.NumBins())
	for _, v := range values {
		counts[b.Bin(v)]++
	}
	for i, c := range counts {
		if c < 15 || c > 35 {
			t.Errorf("bin %d has %d values, want ~25", i, c)
		}
	}
}

func TestEqualFrequencySkewed(t *testing.T) {
	// Heavily repeated values collapse cut points without panicking.
	values := []float64{1, 1, 1, 1, 1, 1, 1, 1, 2, 3}
	b := EqualFrequency(values, 5)
	if b.NumBins() < 1 {
		t.Fatalf("bins = %d", b.NumBins())
	}
	for _, v := range values {
		idx := b.Bin(v)
		if idx < 0 || idx >= b.NumBins() {
			t.Fatalf("Bin(%v) = %d out of range", v, idx)
		}
	}
}

func TestLabelOf(t *testing.T) {
	b := NewEqualWidth(0, 70, 7)
	if got := LabelOf(b, 15); got != "[10, 20)" {
		t.Errorf("LabelOf = %q", got)
	}
	if !strings.HasPrefix(LabelOf(b, -3), "[0,") {
		t.Error("clamped label")
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero bins":      func() { NewEqualWidth(0, 1, 0) },
		"inverted range": func() { NewEqualWidth(5, 1, 3) },
		"empty ef":       func() { EqualFrequency(nil, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFractionalLabels(t *testing.T) {
	b := NewEqualWidth(0, 1, 4)
	if got := b.Label(0); got != "[0, 0.25)" {
		t.Errorf("Label(0) = %q", got)
	}
}
