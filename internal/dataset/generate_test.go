package dataset

import (
	"math/rand"
	"testing"
)

// TestRandomDestAllocs: randomDest runs once per random-lane
// transaction, so its candidate list lives in a buffer the generator
// reuses; once that buffer has grown, picking a destination allocates
// nothing.
func TestRandomDestAllocs(t *testing.T) {
	cfg := DefaultConfig()
	g := &generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.buildLocations()
	pick := func() {
		for _, o := range g.origins[:200] {
			g.randomDest(o)
		}
	}
	pick() // grow the buffer
	if allocs := testing.AllocsPerRun(20, pick); allocs != 0 {
		t.Fatalf("randomDest allocated %.1f times per 200 calls, want 0", allocs)
	}
}

// BenchmarkGenerate times the calibrated generator at a quarter of
// full scale (about 24.6k transactions).
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig().Scaled(0.25)
	b.ReportAllocs()
	for b.Loop() {
		Generate(cfg)
	}
}
